"""Integer primitives: prime enumeration, primality, factorization, multiplicative order.

Primality is decided here only: each process keeps one sieve, grown on demand
up to 2^22, which pool workers forked after a range was sieved inherit.
Beyond it, Miller-Rabin answers with one set of 7 witnesses, exact for every
n below 2^64 (found by J. Sinclair, 2011).  The sieve answers for every prime
of a range a command lists, so Miller-Rabin runs only for the few numbers
beyond it, such as a prime that ``digits`` or ``tables`` asks about.
"""
from __future__ import annotations

import math
import re
from typing import Iterator

__all__ = [
    "prime_mask",
    "prime_flags",
    "sieve_primes",
    "is_prime",
    "factorize",
    "multiplicative_order",
]

# Small primes whose multiples _miller_rabin rejects before its witnesses.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The process sieve, a prime_mask.  It never grows past _SIEVE_BOUND: a larger
# limit of sieve_primes gets a mask that is not kept, and a larger n (only a
# hand-made cache line near the prime cap) gets Miller-Rabin.
_sieve = bytearray()
_SIEVE_BOUND = 1 << 22

# factorize's trial divisors: a bound and every prime up to it, ascending.  Each
# process grows its own on demand; a pair, so that it is replaced in one step.
_divisors: tuple[int, list[int]] = (1, [])

# Miller-Rabin witnesses, exact for every n < 2^64 (see the module docstring).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def prime_mask(limit: int) -> bytearray:
    """Sieve of Eratosthenes: byte n is 1 exactly when n is prime, 0 <= n <= limit (>= 1)."""
    mask = bytearray(2) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes((limit - p * p) // p + 1)
    return mask


def _grown(top: int) -> bytearray:
    """The process sieve, grown to reach top up to the bound: at least doubled,
    so that rising tops sieve O(top) numbers in all."""
    global _sieve
    if len(_sieve) <= min(top, _SIEVE_BOUND):
        _sieve = prime_mask(min(_SIEVE_BOUND, max(top, 2 * len(_sieve))))
    return _sieve


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit (none below 2), ascending, from the process sieve up to its bound."""
    mask = _grown(limit) if limit <= _SIEVE_BOUND else prime_mask(limit)
    # the offsets of the prime bytes: no int is made for a composite
    return [m.start() for m in re.compile(b"\x01").finditer(mask, 0, limit + 1)]


def prime_flags(ns: list[int]) -> list:
    """Whether each n in ns is prime (a sieve byte or a bool).  One Miller-Rabin
    proof costs about as much as sieving 1000 numbers, so the sieve grows over
    the span beyond it only where the ns fill it that densely."""
    n = len(_sieve)
    if ns and min(ns) >= 0 and max(ns) < n:  # all inside the built sieve
        return list(map(_sieve.__getitem__, ns))
    top = max(filter(_SIEVE_BOUND.__ge__, ns), default=0)
    mask = _grown(top) if top >= n and 1000 * sum(map(n.__le__, ns)) >= top - n else _sieve
    return [mask[x] if 0 <= x < len(mask) else is_prime(x) for x in ns]


def is_prime(n: int) -> bool:
    """Whether n is prime: the process sieve where it reaches, else _miller_rabin."""
    return _sieve[n] == 1 if 0 <= n < len(_sieve) else _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2^64 (see the module docstring)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """{p: e} for each p**e that exactly divides n >= 1, by trial division by the
    primes up to sqrt(n) (fine up to ~10^12)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: must be >= 1")
    return dict(_prime_powers(n))


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each p**e that exactly divides n >= 1, p ascending, by trial division."""
    global _divisors
    root = math.isqrt(n)
    bound, primes = _divisors
    if root > bound:
        # at least doubled, so that rising n sieve O(sqrt(n)) numbers in all
        bound = max(root, 2 * bound)
        primes = sieve_primes(bound)
        _divisors = bound, primes
    for p in primes:
        if p > root:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            yield p, e
            root = math.isqrt(n)
    if n > 1:
        yield n, 1


def multiplicative_order(a: int, m: int) -> int:
    """Smallest T >= 1 with a**T == 1 (mod m), for a prime modulus m.

    The group order m-1 is factored and its prime factors are stripped while
    the power stays 1; no brute-force iteration, so large moduli stay cheap.
    """
    if not is_prime(m):
        raise ValueError(f"{m} is not prime")
    if a % m == 0:
        raise ValueError(f"{a} is not invertible mod {m}")
    t = m - 1
    for q, _ in _prime_powers(t):
        while t % q == 0 and pow(a, t // q, m) == 1:
            t //= q
    return t

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseq import numtheory
from dseq.numtheory import (
    Factorization,
    _miller_rabin,
    factorize,
    is_prime,
    multiplicative_order,
    prime_flags,
    sieve_primes,
)

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_small():
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(30) == FIRST_PRIMES
    assert sieve_primes(29) == FIRST_PRIMES


def test_sieve_counts():
    assert len(sieve_primes(10_000)) == 1229
    assert len(sieve_primes(100_000)) == 9592


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(999983)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(999981)
    # strong pseudoprime to base 2, composite 3215031751 = 151*751*28351
    assert not is_prime(3215031751)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_matches_sieve():
    # Miller-Rabin never reads the sieve, so it checks it independently
    primes = set(sieve_primes(10_000))
    for n in range(10_001):
        assert _miller_rabin(n) == is_prime(n) == (n in primes)


def test_witness_sets_exact_across_first_bound():
    # the 7 witnesses are exact on both sides of 1373653, the least strong pseudoprime
    # to bases 2 and 3
    lo, hi = 1_360_000, 1_390_000
    primes = set(p for p in sieve_primes(hi) if p >= lo)
    assert [n for n in range(lo, hi + 1) if _miller_rabin(n)] == sorted(primes)
    # strong pseudoprimes to bases 2, 3 and to bases 2, 3, 5
    assert not _miller_rabin(1373653)  # 829 * 1657
    assert not _miller_rabin(25326001)  # 2251 * 11251


def test_sieve_to_prime_below_1e6():
    assert len(sieve_primes(999983)) == 78498


def test_prime_flags(monkeypatch):
    monkeypatch.setattr(numtheory, "_sieve", bytearray())
    ns = [-7, 0, 1, 2, 9, 601, 999983, 2**61 - 1]
    assert list(map(bool, prime_flags(ns))) == [False, False, False, True, False, True, True,
                                                True]
    assert len(numtheory._sieve) <= 999983  # eight numbers pay for no sieve of that size
    numtheory._grown(1000)  # then every n but the negative ones lies inside the built sieve
    assert list(map(bool, prime_flags([2, 9, 601]))) == [True, False, True]
    assert not any(prime_flags(list(range(-30, 0)) + [9, 601])[:-1])


def test_factorize_examples():
    assert factorize(1).factors == {}
    assert factorize(2).factors == {2: 1}
    assert factorize(360).factors == {2: 3, 3: 2, 5: 1}
    assert factorize(999983).factors == {999983: 1}
    assert factorize(61 * 67).factors == {61: 1, 67: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorization_validates():
    Factorization(12, {2: 2, 3: 1})
    with pytest.raises(ValueError):
        Factorization(12, {2: 1, 3: 1})
    with pytest.raises(ValueError):
        Factorization(12, {4: 1, 3: 1})


@settings(max_examples=200)
@given(st.integers(1, 10**9))
def test_factorize_roundtrip(n):
    fact = factorize(n)
    assert fact.n == n
    prod = 1
    for p, e in fact.factors.items():
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n


def test_multiplicative_order_examples():
    assert multiplicative_order(10, 7) == 6
    assert multiplicative_order(10, 3) == 1
    assert multiplicative_order(10, 601) == 300
    with pytest.raises(ValueError):
        multiplicative_order(10, 5)
    # only prime moduli are accepted
    with pytest.raises(ValueError):
        multiplicative_order(10, 487 * 487)
    with pytest.raises(ValueError):
        multiplicative_order(3, 8)
    with pytest.raises(ValueError):
        multiplicative_order(4, 8)


def test_order_divides_group_order():
    for p in sieve_primes(10_000):
        if p in (2, 5):
            continue
        t = multiplicative_order(10, p)
        assert (p - 1) % t == 0
        assert pow(10, t, p) == 1
        # t is minimal: no proper divisor of t works
        for q in {2, 3, 5, 7}:
            if t % q == 0:
                assert pow(10, t // q, p) != 1


@given(st.integers(2, 10**5), st.integers(2, 10**5))
def test_order_is_annihilating(a, m):
    if not is_prime(m) or math.gcd(a, m) != 1:
        with pytest.raises(ValueError):
            multiplicative_order(a, m)
    else:
        t = multiplicative_order(a, m)
        assert t >= 1
        assert pow(a, t, m) == 1

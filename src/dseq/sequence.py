"""Digit generation for base-10 prime reciprocals (d-sequences).

The i-th decimal digit of 1/p (i >= 1) is ``(l * (10**i mod p)) % 10`` where
l is the single digit with ``l*p = 9 (mod 10)``; equivalently it is
``floor(10*r / p)`` for the residue ``r = 10**(i-1) mod p``.  A schoolbook
long-division generator is kept alongside as an independent oracle.

A period histogram therefore counts the subgroup ``H = <10>`` of (Z/p)* in
the ten intervals ``[d*p/10, (d+1)*p/10)``, and there are four ways to
count it:

- full length (``H`` is the whole group): the closed form ``N_p``;
- an even period: only its first half is counted, because Midy's theorem
  gives ``r_{i+T/2} = p - r_i``, which maps digit d to 9 - d;
- an odd period T = (p-1)/2, p > 3 (so p = 3 mod 4, and ``H`` is the
  quadratic residues): two class numbers h = h(-p) and g = h(-5p) give
  f(d) = N_p(d)/2 + c(d) with c(9-d) = -c(d), where 8c(0..4) is
  (4h-2g, g, 3g, -g, -g) for p = 7 (mod 8) and
  (0, 6h-g, -6h+g, 6h+g, 6h-g) for p = 3 (mod 8) (B. C. Berndt, *Classical
  theorems on quadratic residues*, 1976; K. Girstmair, *The digits of 1/p
  in connection with class number factors*, Acta Arith. 67, 1994).  The
  census counts these primes, up to a bound, in ``classnumber``;
- any other period is counted whole.

``histogram`` takes the first, second and last branch, and counts every odd
period whole, so it stays the oracle of the third.  Counting runs long
division three digits a step, in float64, on up to 2**13 lanes that hold
the residues of up to 128 primes at once, so its memory grows neither with
p nor with the number of primes.

numpy is imported inside the counting kernel, not here: commands served
from the results cache never count digits, and importing numpy would be a
large share of their run time.

The records here and in the other modules are namedtuples with validating
``__init__`` methods: immutable, compared and hashed by their fields, without
a per-instance dict, and unpickled without being checked again.  Importing
``dataclasses`` pulls in ``inspect`` and took a fresh process about 16 ms
(Python 3.11), more than a warm ``profile`` spends on its own work.
"""
from __future__ import annotations

import contextlib
import math
import os
from bisect import bisect_right
from collections import namedtuple
from operator import add
from typing import Iterator

from .numtheory import is_prime, multiplicative_order

__all__ = [
    "EVEN",
    "ODD",
    "FULL",
    "HALF",
    "OTHER",
    "PRIME_CAP",
    "ClassKey",
    "ReciprocalSpec",
    "DigitHistogram",
    "l_multiplier",
    "digit_prefix",
    "long_division_digits",
    "histogram",
]

# Largest admissible prime.  Below 2^31, the counting kernel's float64 step is
# exact (see _count_batch), and its lane starts multiply below 2^62 in uint64.
PRIME_CAP = 2**31 - 1

# l by last digit of p: the unique digit with l*p = 9 (mod 10).
_L_FOR_LSD = {1: 9, 3: 3, 7: 7, 9: 1}

EVEN = "even"
ODD = "odd"
FULL = "full"
HALF = "half"
OTHER = "other"

# Lanes and primes the counting kernel advances together (_count_batch).  On
# the kernel primes to 1e5, 2**13 lanes measured faster than 2**12 or 2**14,
# and 128 primes faster than 64; the bins then take 1 MB.
_LANES = 1 << 13
_BATCH_PRIMES = 128


def _check_prime(p: int) -> None:
    if p in (2, 5):
        raise ValueError(f"10 is not invertible mod {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > PRIME_CAP:
        raise ValueError(f"{p} exceeds the supported cap {PRIME_CAP}")


def l_multiplier(p: int) -> int:
    """The digit l with l*p = 9 (mod 10), for odd primes p != 5."""
    _check_prime(p)
    return _L_FOR_LSD[p % 10]


class ClassKey(namedtuple("ClassKey", "lsd second_parity length_class")):
    """(last digit, tens-digit parity, length class) of a prime."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.lsd not in (1, 3, 7, 9):
            raise ValueError(f"last digit must be 1, 3, 7 or 9, got {self.lsd}")
        if self.second_parity not in (EVEN, ODD):
            raise ValueError(f"bad parity {self.second_parity!r}")
        if self.length_class not in (FULL, HALF, OTHER):
            raise ValueError(f"bad length class {self.length_class!r}")


class ReciprocalSpec(namedtuple("ReciprocalSpec", "p l period")):
    """A prime p with its multiplier digit l and period T = ord_p(10).

    The cofactor k = (p-1)/T and the class key are derived: k is 1 for a
    full-length prime, 2 for a half-length one.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.p > PRIME_CAP:
            raise ValueError(f"{self.p} exceeds the supported cap {PRIME_CAP}")
        if _L_FOR_LSD.get(self.p % 10) != self.l:
            raise ValueError(f"l={self.l} does not invert -{self.p} mod 10")
        if self.period < 1 or (self.p - 1) % self.period != 0:
            raise ValueError(f"period {self.period} does not divide {self.p} - 1")

    @property
    def cofactor(self) -> int:
        return (self.p - 1) // self.period

    @property
    def key(self) -> ClassKey:
        k = self.cofactor
        return _KEYS[self.p % 10, (self.p // 10) % 2,
                     FULL if k == 1 else HALF if k == 2 else OTHER]

    @classmethod
    def for_prime(cls, p: int) -> "ReciprocalSpec":
        """The spec of p; multiplicative_order proves p prime, once."""
        if p in (2, 5):
            raise ValueError(f"10 is not invertible mod {p}")
        if p > PRIME_CAP:
            raise ValueError(f"{p} exceeds the supported cap {PRIME_CAP}")
        period = multiplicative_order(10, p)
        return cls(p, _L_FOR_LSD[p % 10], period)


# The 24 class keys, by (last digit, tens digit mod 2, length class).
_KEYS = {
    (lsd, parity_bit, length): ClassKey(lsd, parity, length)
    for lsd in (1, 3, 7, 9)
    for parity_bit, parity in enumerate((EVEN, ODD))
    for length in (FULL, HALF, OTHER)
}


class DigitHistogram(namedtuple("DigitHistogram", "counts")):
    """Counts of the digits 0-9 over some stretch of a reciprocal sequence."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if len(self.counts) != 10 or any(c < 0 for c in self.counts):
            raise ValueError(f"need 10 nonnegative counts, got {self.counts}")

    @property
    def total(self) -> int:
        return sum(self.counts)


def digit_prefix(spec: ReciprocalSpec, n: int) -> Iterator[int]:
    """The first n digits of 1/p (continues past the period)."""
    if n < 0:
        raise ValueError(f"digit count must be >= 0, got {n}")
    p, l, r = spec.p, spec.l, 1
    for _ in range(n):
        r = 10 * r % p
        yield l * r % 10


def long_division_digits(p: int, n: int) -> list[int]:
    """First n digits of 1/p by schoolbook long division (independent oracle)."""
    _check_prime(p)
    if n < 0:
        raise ValueError(f"digit count must be >= 0, got {n}")
    digits = []
    r = 1
    for _ in range(n):
        r *= 10
        digits.append(r // p)
        r %= p
    return digits


# N_p(d) counts the units r with floor(10r/p) = d: ceil((d+1)p/10) - ceil(dp/10)
# residues r >= 0 fall in interval d, and r = 0 is the one in interval 0 that is
# not a unit.  With p = 10m + c, ceil(xp/10) = xm + ceil(xc/10) for integer x,
# so N_p(d) = m + N_c(d): p // 10 plus an offset fixed by the last digit.
_FULL_LENGTH_OFFSETS = tuple(
    tuple(-(-(d + 1) * c // 10) + (-d * c) // 10 - (d == 0) for d in range(10))
    for c in range(10)
)


def _full_length_counts(p: int) -> tuple[int, ...]:
    """N_p(d) = #{1 <= r < p : floor(10r/p) = d}, the histogram when T = p - 1."""
    # spelled out: a third of the time of a generator, and the cache load
    # calls this for every full-length and odd half-length record
    m = p // 10
    a, b, c, d, e, f, g, h, i, j = _FULL_LENGTH_OFFSETS[p % 10]
    return (m + a, m + b, m + c, m + d, m + e, m + f, m + g, m + h, m + i, m + j)


def _broken_period(p: int, period: int, f: tuple[int, ...]) -> str | None:
    """Why the counts f cannot be the histogram of a period of 1/p, or None.

    Write T for the period, H = <10> for its T residues mod p, m = p // 10
    and N_p for the counts of all the units.  The counts sum to T, and these
    theorems fix more:

    - Full length (T = p - 1): f = N_p.
    - Even T: f(d) = f(9-d).  Midy: 10^(T/2) = -1 mod p, and r -> p - r
      maps digit d to 9 - d.
    - Odd T = (p-1)/2: f(d) + f(9-d) = N_p(d).  -1 is not a power of 10,
      so H and -H are every unit once.
    - Even T = (p-1)/2 (p = 1 mod 4, and H is the squares): r -> 2r maps
      the residues of digits d and d+5 (d < 5) onto those of 2d and 2d+1,
      so f(d) + f(d+5) = g(2d) + g(2d+1), where g counts 2H.  10 is a
      square, so 2 is one exactly when 5 is, that is when p ends in 1 or 9;
      then g = f, and else 2H is the non-squares and g = N_p - f.  With the
      mirror, the five equalities come to f(1) = f(2) = f(4) when p ends in
      1 or 9.  When it ends in 3 or 7 they come to f(2) + f(4) = m + e and
      2f(0) + f(1) + f(4) = 2m + e, with e = 1 if p ends in 7 else 0, and
      one more that the sum of the counts implies.  r -> 5r maps the
      residues of even digits onto those below p/2, with the same g; given
      the sum and the mirror, that relation always holds.
    - Odd T = (p-1)/2, p > 3 (p = 3 mod 4, and H is the squares): 8f - 4N_p
      on digits 0-4 is (4h-2g, g, 3g, -g, -g) for p = 7 (mod 8) and
      (0, 6h-g, -6h+g, 6h+g, 6h-g) for p = 3 (mod 8), with h = h(-p) and
      g = h(-5p) (Berndt; Girstmair; see the module docstring).  h >= 1,
      and g >= 2: -5p has two prime factors, so genus theory makes g even.
      For p = 3 (mod 8), g >= 4: the imaginary quadratic fields of class
      number 2 are all known, and -15 (p = 3) is the only -5p among them
      with p = 3 (mod 8).  h is odd by genus theory too.  Neither parity
      needs a check, because any counts with the shape have them.  8f - 4N_p
      is a multiple of 4, which makes g even.  For p = 7 (mod 8),
      h = 2f(0) - N_p(0) + g/2 with g/2 even, and the shape gives integer
      counts only when p ends in 1 or 9, where N_p(0) = m is odd.  For
      p = 3 (mod 8), 3h = 2f(1) + 2f(3) - N_p(1) - N_p(3), and f(0) =
      N_p(0)/2 needs p to end in 3 or 7, where N_p(1) + N_p(3) = 2m + 1.
    """
    if sum(f) != period:  # str() may refuse 640 digits or more (4300 by default)
        shown = sum(f) if sum(f) < 10**640 else "10**640 or more"
        return f"counts sum to {shown}, period is {period}"
    if period == p - 1:
        if f != _full_length_counts(p):
            return f"full length, but counts {f} are not N_p = {_full_length_counts(p)}"
    elif period % 2 == 0:
        if f != f[::-1]:
            return f"period {period} is even, but counts {f} are not mirrored"
        if 2 * period == p - 1:
            if p % 10 in (1, 9):
                if not f[1] == f[2] == f[4]:
                    return (f"period {period} = (p-1)/2 is even and p ends in {p % 10}, "
                            f"but f(1), f(2), f(4) = {f[1]}, {f[2]}, {f[4]} are not equal")
            else:
                m, e = p // 10, p % 10 == 7
                if f[2] + f[4] != m + e or 2 * f[0] + f[1] + f[4] != 2 * m + e:
                    return (f"period {period} = (p-1)/2 is even and p ends in {p % 10}, "
                            f"but counts {f} do not have f(2) + f(4) = {m + e} "
                            f"and 2f(0) + f(1) + f(4) = {2 * m + e}")
    elif 2 * period == p - 1:
        n_p = _full_length_counts(p)
        if tuple(map(add, f, f[::-1])) != n_p:
            return (f"period {period} = (p-1)/2 is odd, but counts {f} do not "
                    f"complement to N_p = {n_p}")
        if p > 3:
            return _broken_shape(p, period, f, n_p)
    return None


def _broken_shape(p: int, period: int, f: tuple[int, ...], n_p: tuple[int, ...]) -> str | None:
    """Why 8f - 4N_p on digits 0-4 has not the class-number shape of an odd
    period (p-1)/2, p > 3, or None; see ``_broken_period``."""
    # e = 2f - N_p = (8f - 4N_p)/4, spelled out: a third of the time of a generator
    f0, f1, f2, f3, f4 = f[:5]
    n0, n1, n2, n3, n4 = n_p[:5]
    e0, e1, e2, e3, e4 = 2 * f0 - n0, 2 * f1 - n1, 2 * f2 - n2, 2 * f3 - n3, 2 * f4 - n4
    if p % 8 == 7:  # 4e = (4h-2g, g, 3g, -g, -g), so h = e0 + 2e1 and g = 4e1
        h, g, g_min, form = e0 + 2 * e1, 4 * e1, 2, "(4h-2g, g, 3g, -g, -g)"
        shaped = e2 == 3 * e1 and e3 == e4 == -e1
    else:  # 4e = (0, 6h-g, -6h+g, 6h+g, 6h-g), so 3h = e1 + e3 and g = 2(e3 - e1)
        h, rest = divmod(e1 + e3, 3)
        g, g_min, form = 2 * (e3 - e1), 4, "(0, 6h-g, -6h+g, 6h+g, 6h-g)"
        shaped = rest == 0 and e0 == 0 and e2 == -e1 and e4 == e1
    if not shaped:
        return (f"period {period} = (p-1)/2 is odd, but 8f - 4N_p on digits 0-4 "
                f"is {(4 * e0, 4 * e1, 4 * e2, 4 * e3, 4 * e4)}, not {form}")
    if h < 1 or g < g_min:
        return (f"period {period} = (p-1)/2 is odd, and 8f - 4N_p on digits 0-4 "
                f"is {form} with h = {h} and g = {g}, but not with h >= 1 and g >= {g_min}")
    return None


def _numpy():
    """numpy, imported with one OpenBLAS thread unless the environment names a count.

    dseq calls no BLAS routine, and the thread pool that OpenBLAS starts on
    import costs CPU time in every counting process.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy

    return numpy


# Digit counts by (p, n) that counted_ahead made, for _count_digits to serve.
_ahead: dict[tuple[int, int], list[int]] = {}


def _count_digits(p: int, n: int) -> list[int]:
    """Counts of floor(10 * r_i / p) over r_i = 10**i mod p, i = 0..n-1."""
    return _ahead.get((p, n)) or _count_batch([(p, n)])[0]


def _count_batch(pairs: list[tuple[int, int]]) -> list[list[int]]:
    """_count_digits(p, n) of each pair, in one run of long division on lanes.

    Pair j's first 3*(n // 3) digits are cut into lanes of s steps (its last
    lane is shorter), with s the least that keeps the batch within _LANES
    lanes: a long period gets longer lanes, not more.  A lane holds r, p and
    1/p as float64, and a step ``t = 1000r; q = floor(t * (1/p));
    r = t - q*p`` gives three digits q, counted in bin 1000j + q.  The lanes
    run longest first, so those still running are a prefix.  The bins'
    digits give the counts, and the last n % 3 digits lead one more q.

    The step is exact for p <= PRIME_CAP < 2^31.  r < p, so t < 2^41, and t,
    q*p < 2^41 and t - q*p are integers that float64 holds exactly.  fl(1/p)
    and the product each round with relative error at most 2^-53, so the
    computed t * (1/p) is within (2^-52 + 2^-106) t/p < 2^-42 of t/p, as
    t/p < 1000.  p divides no 1000r, so t/p is at least 1/p > 2^-31 from
    every integer, and the floor is that of t/p.
    """
    np = _numpy()
    primes = np.array([p for p, _ in pairs], dtype=np.uint64)
    steps = np.array([n // 3 for _, n in pairs])
    s = max(1, -(-int(steps.sum()) // (_LANES - len(pairs))))
    full = np.maximum(steps - 1, 0) // s  # lanes of s steps, before the last one
    rest = steps - full * s
    # the full lanes, then the last ones, longest first.  Lane k of pair j starts
    # at a**k mod p, a = 10**(3s): a giant step a**(c*(k // c)) times a baby step
    # a**(k % c), exact in uint64 (p^2 < 2^62)
    last = np.argsort(-rest, kind="stable")
    j = np.concatenate([np.repeat(np.arange(len(pairs)), full), last])
    k = np.concatenate([np.arange(full.sum()) - np.repeat(np.cumsum(full) - full, full),
                        full[last]])
    a = np.array([pow(10, 3 * s, p) for p, _ in pairs], dtype=np.uint64)
    c = math.isqrt(int(full.max())) + 1
    baby = _powers(a, primes, c)
    giant = _powers(baby[c - 1] * a % primes, primes, int(full.max()) // c + 1)
    hi, pj = k // c, primes[j]  # flat indices: faster than indexing rows and columns
    r = giant.ravel()[hi * len(pairs) + j] * baby.ravel()[(k - hi * c) * len(pairs) + j] % pj
    r, pf = r.astype(np.float64), pj.astype(np.float64)
    inv, base = 1.0 / pf, 1000.0 * j
    t, q, index = np.empty_like(r), np.empty_like(r), np.empty(len(r), dtype=np.int64)
    bins = np.zeros(1000 * len(pairs), dtype=np.int64)
    ends = sorted(rest.tolist())
    for step in range(s):
        m = len(r) - bisect_right(ends, step)  # lanes with steps left
        rm, tm, qm, im = r[:m], t[:m], q[:m], index[:m]
        np.multiply(rm, 1000.0, out=tm)
        np.multiply(tm, inv[:m], out=qm)
        np.floor(qm, out=qm)
        np.add(qm, base[:m], out=im, casting="unsafe")
        np.add.at(bins, im, 1)
        np.multiply(qm, pf[:m], out=qm)
        np.subtract(tm, qm, out=rm)
    by_hundreds = bins.reshape(len(pairs), 10, 100)
    by_tens = by_hundreds.sum(axis=1).reshape(len(pairs), 10, 10)
    counts = (by_hundreds.sum(axis=2) + by_tens.sum(axis=2) + by_tens.sum(axis=1)).tolist()
    for counted, (p, n) in zip(counts, pairs):
        for digit in f"{1000 * pow(10, n - n % 3, p) // p:03d}"[:n % 3]:
            counted[int(digit)] += 1
    return counts


def _powers(x, primes, count: int):
    """x**i mod p for i = 0..count-1 (and on to a power of two), one row per i,
    by doubling the rows; x and the primes are uint64 arrays."""
    np = _numpy()
    rows = np.ones((1, len(primes)), dtype=np.uint64)
    while len(rows) < count:
        rows = np.concatenate([rows, rows * (rows[-1] * x % primes) % primes])
    return rows


@contextlib.contextmanager
def counted_ahead(specs: list[ReciprocalSpec]) -> Iterator[None]:
    """Within the block, histogram(spec) of each spec takes its digit counts
    from one kernel call per _BATCH_PRIMES specs, made here.  So a caller
    that asks for one histogram at a time pays the kernel's fixed cost per
    batch, not per prime.  The counts, pure functions of (p, n), are kept
    only until the block ends."""
    # the digits that histogram counts: half of an even period, all of an odd one
    pairs = [(s.p, s.period // 2 if s.period % 2 == 0 else s.period)
             for s in specs if s.period != s.p - 1]
    for i in range(0, len(pairs), _BATCH_PRIMES):
        batch = pairs[i:i + _BATCH_PRIMES]
        _ahead.update(zip(batch, _count_batch(batch)))
    try:
        yield
    finally:
        _ahead.clear()


def histogram(spec: ReciprocalSpec) -> DigitHistogram:
    """Digit counts over one full period of 1/p; total equals the period.

    Full length (T = p - 1): the closed form N_p.  Even T: 10**(T/2) = -1
    (mod p), so the second half-period's residues are p - r for the first
    half's r, and floor(10(p - r)/p) = 9 - floor(10r/p) because 10r/p is
    never an integer; the first half's counts g give f(d) = g(d) + g(9 - d).
    Odd T: all T digits are counted.
    """
    p, period = spec.p, spec.period
    if period == p - 1:
        return DigitHistogram(_full_length_counts(p))
    if period % 2 == 0:
        g = _count_digits(p, period // 2)
        return DigitHistogram(tuple(g[d] + g[9 - d] for d in range(10)))
    return DigitHistogram(tuple(_count_digits(p, period)))

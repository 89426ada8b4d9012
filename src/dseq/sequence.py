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

``counting`` picks one of these for each prime, and only it imports numpy:
commands served from the results cache never count digits, and numpy would
be a large share of their run time.  It runs long division three digits a
step, in float64, on up to 2**13 lanes that hold the residues of up to 128
primes at once, so its memory grows neither with p nor with the number of
primes.  ``histogram`` takes the first, second and last way, and counts
every odd period whole, so it stays the oracle of the third.

The records here and in the other modules are namedtuples with validating
``__init__`` methods: immutable, compared and hashed by their fields, without
a per-instance dict, and unpickled without being checked again.  Importing
``dataclasses`` pulls in ``inspect`` and took a fresh process about 16 ms
(Python 3.11), more than a warm ``profile`` spends on its own work.
"""
from __future__ import annotations

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
# exact (see counting._count_batch), and its lane starts multiply below 2^62 in
# uint64.
PRIME_CAP = 2**31 - 1

# l by last digit of p: the unique digit with l*p = 9 (mod 10).
_L_FOR_LSD = {1: 9, 3: 3, 7: 7, 9: 1}

EVEN = "even"
ODD = "odd"
FULL = "full"
HALF = "half"
OTHER = "other"


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
        p = self.p  # and k computed here: the cofactor property costs a call a record
        k = (p - 1) // self.period
        return _KEYS[p % 10, (p // 10) % 2, FULL if k == 1 else HALF if k == 2 else OTHER]

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


def histogram(spec: ReciprocalSpec) -> DigitHistogram:
    """Digit counts over one full period of 1/p; total equals the period.

    The closed form at full length, and long division on lanes otherwise
    (``counting.lane_counts``), never class numbers: this is their oracle.
    """
    if spec.period == spec.p - 1:
        return DigitHistogram(_full_length_counts(spec.p))
    from . import counting

    return DigitHistogram(counting.lane_counts([spec])[0])

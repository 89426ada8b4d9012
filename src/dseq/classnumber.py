"""Period histograms of odd-period half-length primes from two class numbers.

Take a prime p > 3 with p = 3 (mod 4) whose period is T = (p-1)/2 (odd).
The powers of 10 are then the quadratic residues mod p, so each digit count
f(d) of the period is a character sum, and class numbers give it exactly:
with h = h(-p) and g = h(-5p), f(d) = N_p(d)/2 + c(d), where c is the
table ``_EIGHT_C`` over 8 (the ``sequence`` docstring states the formula
and its sources).  p = 3 is left out: D = -3 has six units.

A class number h(D) is the number of reduced forms (a, b, c) of
discriminant D; each is primitive, because D is fundamental.  For each
a <= sqrt(|D|/3) they are the b in (-a, a] with b*b = D (mod 4a) and
c = (b*b - D)/4a >= a, taking b >= 0 when c = a.  For a <= sqrt(|D|)/2 the
condition on c always holds, so the term is a lookup of how many square roots
D has mod 4a.  Only the few a above that need the roots themselves.  Both
come from tables per a, computed once per process.

numpy comes from ``counting``, the one module that counts with these class
numbers.
"""
from __future__ import annotations

import math

from .counting import np
from .sequence import _full_length_counts

__all__ = ["RootTables", "class_numbers", "odd_half_counts", "table_entries_to_add"]

# 8c(d) for d = 0..4 as (coefficient of h, coefficient of g), by p mod 8; c(9-d) = -c(d)
_EIGHT_C = {
    7: ((4, -2), (0, 1), (0, 3), (0, -1), (0, -1)),
    3: ((0, 0), (6, -1), (-6, 1), (6, 1), (6, -1)),
}

# Cells of the (a, discriminant) grid per numpy pass.  Bounds each int64
# temporary at 512 KiB.
_CELLS = 1 << 16


class RootTables:
    """The square roots b mod 2a of each D = 1 (mod 4) modulo 4a, for a <= top.

    For each a, the a residues 4j + 1 mod 4a are indexed by j, flat and a
    after a, so that a's entries start at a(a-1)/2.  ``count`` holds the
    number of odd b < 2a with b*b = 4j + 1 (mod 4a), ``roots`` those b,
    ordered by j within each a, and ``before`` how many of a's roots belong
    to a smaller j.  The tables grow by appending the entries of new a; the
    old ones are never recomputed.
    """

    def __init__(self) -> None:
        self.top = 0
        self.count = np.zeros(0, dtype=np.uint8)
        self.before = np.zeros(0, dtype=np.uint16)
        self.roots = np.zeros(0, dtype=np.uint16)  # b < 2a <= 2**16 up to a = 2**15

    @staticmethod
    def entries(top: int) -> int:
        """Entries of the tables of a = 1..top."""
        return top * (top + 1) // 2

    def grow(self, top: int) -> None:
        """Hold the tables of every a <= top."""
        count, before, roots = [self.count], [self.before], [self.roots]
        while self.top < top:
            # the next a, as many as keep a block's temporaries within _CELLS entries
            low = self.top + 1
            high = max(low, min(top, math.isqrt(2 * (self.entries(low - 1) + _CELLS))))
            sizes = np.arange(low, high + 1)
            a = sizes.repeat(sizes)  # a once per entry, and once per odd b < 2a
            b = 2 * _ranks(sizes) + 1
            # entries and roots both start a's run at a(a-1)/2, counted from the block's
            start = a * (a - 1) // 2 - self.entries(low - 1)
            entry = start + (b * b % (4 * a) >> 2)  # of b*b mod 4a
            n = np.bincount(entry, minlength=len(entry))
            count.append(n.astype(np.uint8))
            before.append((np.cumsum(n) - n - start).astype(np.uint16))
            roots.append(b[np.argsort(entry, kind="stable")].astype(np.uint16))
            self.top = high
        self.count = np.concatenate(count)
        self.before = np.concatenate(before)
        self.roots = np.concatenate(roots)


def _ranks(sizes: np.ndarray) -> np.ndarray:
    """0..n-1 for each n in sizes, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _batch_class_numbers(ms: list[int], tables: RootTables) -> np.ndarray:
    """h(-m) for each m of the batch (see class_numbers)."""
    m = np.array(ms, dtype=np.int64)
    inner = np.array([math.isqrt(x) // 2 for x in ms])
    outer = np.array([math.isqrt(x // 3) for x in ms])
    # one row per a, one column per m: the entry of -m mod 4a and its root count
    a = np.arange(1, outer.max() + 1, dtype=np.int64)[:, None]
    entry = a * (a - 1) // 2 + (-m % (4 * a) >> 2)
    count = tables.count[entry]
    # a <= inner: each root b in (-a, a] is one form, since c > a
    main = a <= inner
    h = (count * main).sum(axis=0, dtype=np.int64)
    # inner < a <= outer: the roots b with b*b >= 4a*a - m, so that c >= a,
    # and b >= 0 when c = a
    rows, cols = np.nonzero(~main & (a <= outer) & (count > 0))
    k = count[rows, cols].astype(np.int64)
    ab = (rows + 1).repeat(k)
    start = ab * (ab - 1) // 2 + tables.before[entry[rows, cols]].repeat(k) + _ranks(k)
    b = tables.roots[start].astype(np.int64)
    b = np.where(b > ab, b - 2 * ab, b)
    owner = cols.repeat(k)
    excess = b * b - (4 * ab * ab - m[owner])
    forms = (excess > 0) | ((excess == 0) & (b >= 0))
    return h + np.bincount(owner, weights=forms, minlength=len(ms)).astype(np.int64)


def class_numbers(ms: list[int], tables: RootTables) -> list[int]:
    """h(-m) for each m > 4 with -m a fundamental discriminant = 1 (mod 4).

    tables must hold every a <= sqrt(m/3).  The m are taken in batches whose
    grid of a and m has at most _CELLS cells.
    """
    size = max(1, _CELLS // math.isqrt(max(ms) // 3))
    return [h for i in range(0, len(ms), size)
            for h in _batch_class_numbers(ms[i:i + size], tables).tolist()]


# The tables of this process, grown as larger primes arrive.  Their content is a
# function of a alone, so every caller may share them.
_TABLES = RootTables()


def _top(p: int) -> int:
    """The largest a that h(-5p) needs."""
    return math.isqrt(5 * p // 3)


def table_entries_to_add(p: int) -> int:
    """Entries the tables of this process must add before odd_half_counts can take p."""
    return max(0, RootTables.entries(_top(p)) - RootTables.entries(_TABLES.top))


def odd_half_counts(primes: list[int]) -> list[tuple[int, ...]]:
    """The period digit counts of primes p > 3, p = 3 (mod 4), of period (p-1)/2.

    ValueError if h(-p) is even, h(-5p) odd, or the formula gives a count
    that is not a nonnegative integer: none of that can happen when the
    class numbers are right.
    """
    if not primes:
        return []
    _TABLES.grow(_top(max(primes)))
    h = np.array(class_numbers(primes, _TABLES))[:, None]
    g = np.array(class_numbers([5 * p for p in primes], _TABLES))[:, None]
    half = np.array([_EIGHT_C[p % 8] for p in primes])  # (h, g) multiples of 8c(0..4)
    eight_c = np.concatenate([half, -half[:, ::-1]], axis=1)  # and of 8c(5..9)
    eight_f = (4 * np.array([_full_length_counts(p) for p in primes])
               + h * eight_c[:, :, 0] + g * eight_c[:, :, 1])
    wrong = (h[:, 0] % 2 == 0) | (g[:, 0] % 2 == 1) | (eight_f % 8 != 0).any(axis=1) \
        | (eight_f < 0).any(axis=1)
    if wrong.any():
        i = int(wrong.argmax())
        raise ValueError(f"h(-{primes[i]}) = {h[i, 0]} and h(-{5 * primes[i]}) = {g[i, 0]} "
                         f"give 8f = {eight_f[i].tolist()}: h must be odd, g even, "
                         "and 8f nonnegative multiples of 8")
    return list(map(tuple, (eight_f >> 3).tolist()))

"""Digit counts over one period of 1/p, each made the cheapest of the ways that
``sequence`` states: the closed form at full length; two class numbers for an
odd period (p-1)/2 with 3 < p <= _CLASS_NUMBER_BOUND, when that is cheaper;
else long division on lanes (``_count_batch``), over half an even period,
which Midy's theorem folds into the whole.

An odd period T = (p-1)/2, p > 3, makes p = 3 (mod 4) and the powers of 10
the quadratic residues mod p, so each digit count f(d) of the period is a
character sum, and class numbers give it exactly: with h = h(-p) and
g = h(-5p), f(d) = N_p(d)/2 + c(d), where c is the table ``_EIGHT_C`` over 8
(``sequence`` states the formula and its sources).  p = 3 is left out:
D = -3 has six units.

A class number h(D) is the number of reduced forms (a, b, c) of
discriminant D; each is primitive, because D is fundamental.  For each
a <= sqrt(|D|/3) they are the b in (-a, a] with b*b = D (mod 4a) and
c = (b*b - D)/4a >= a, taking b >= 0 when c = a.  For a <= sqrt(|D|)/2 the
condition on c always holds, so the term is a lookup of how many square roots
D has mod 4a.  Only the few a above that need the roots themselves.  Both
come from tables per a (``RootTables``), computed once per process.

Only the counting path imports this module, and numpy with it: census's chunk
task, and ``sequence.histogram`` for a period that is not full length.
"""
from __future__ import annotations

import math
import os
from bisect import bisect_right

from .sequence import ReciprocalSpec, _full_length_counts

# One OpenBLAS thread unless the environment names a count: dseq calls no BLAS
# routine, and the thread pool that OpenBLAS starts on import costs CPU time in
# every counting process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

__all__ = ["RootTables", "class_numbers", "lane_counts", "odd_half_counts", "period_counts"]

# Lanes and primes the counting kernel advances together (_count_batch).  On
# the kernel primes to 1e5, 2**13 lanes measured faster than 2**12 or 2**14,
# and 128 primes faster than 64; the bins then take 1 MB.
_LANES = 1 << 13
_BATCH_PRIMES = 128

# Odd-period half-length primes 3 < p <= this bound can take their counts from
# two class numbers (odd_half_counts), whose tables in each process then hold
# about 25p/6 bytes: 4.4 MB at the bound.  Above it the lane kernel, whose
# memory does not grow with p, counts them.
_CLASS_NUMBER_BOUND = 1 << 20

# A list's odd-half primes take the class numbers when their periods sum to
# more than this many times the table entries the process must add first.
# Measured on 2 CPUs, for batches of 128 odd-half primes: an entry costs 70-100
# ns, and the kernel 2.5-3.7 ns a digit for p near 5e4 and 2.3-2.6 ns near 1e6.
_DIGITS_PER_TABLE_ENTRY = 30


def period_counts(specs: list[ReciprocalSpec]) -> list[tuple[int, ...]]:
    """The digit counts over one period of 1/p of each spec, in order."""
    odd_half = [s for s in specs
                if 3 < s.p <= _CLASS_NUMBER_BOUND and s.cofactor == 2 and s.period % 2]
    counts = {}
    if odd_half:
        primes = [s.p for s in odd_half]
        added = RootTables.entries(_top(max(primes))) - RootTables.entries(_TABLES.top)
        if sum(s.period for s in odd_half) > _DIGITS_PER_TABLE_ENTRY * added:
            counts = dict(zip(primes, odd_half_counts(primes)))
    rest = iter(lane_counts([s for s in specs if s.p not in counts]))
    return [counts[s.p] if s.p in counts else next(rest) for s in specs]


def lane_counts(specs: list[ReciprocalSpec]) -> list[tuple[int, ...]]:
    """period_counts without class numbers: the closed form at full length, and
    one _count_batch call per _BATCH_PRIMES of the other specs.  An even period
    is counted over its first half, whose counts g give f(d) = g(d) + g(9 - d):
    Midy's theorem maps digit d to 9 - d half a period on (see ``sequence``).
    """
    pairs = [(s.p, s.period // 2 if s.period % 2 == 0 else s.period)
             for s in specs if s.period != s.p - 1]
    counted = (g for i in range(0, len(pairs), _BATCH_PRIMES)
               for g in _count_batch(pairs[i:i + _BATCH_PRIMES]))
    out = []
    for s in specs:
        if s.period == s.p - 1:
            out.append(_full_length_counts(s.p))
        elif s.period % 2:
            out.append(tuple(next(counted)))
        else:
            g = next(counted)
            out.append(tuple(g[d] + g[9 - d] for d in range(10)))
    return out


def _count_batch(pairs: list[tuple[int, int]]) -> list[list[int]]:
    """The counts of floor(10 * r_i / p) over r_i = 10**i mod p, i = 0..n-1, for
    each pair (p, n), in one run of long division on lanes.

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
    rows = np.ones((1, len(primes)), dtype=np.uint64)
    while len(rows) < count:
        rows = np.concatenate([rows, rows * (rows[-1] * x % primes) % primes])
    return rows


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

"""Digit counts over one period of 1/p, each made the cheapest of the ways that
``sequence`` states: the closed form at full length; two class numbers
(``classnumber``) for an odd period (p-1)/2 with 3 < p <= _CLASS_NUMBER_BOUND,
when that is cheaper; else long division on lanes (``_count_batch``), over
half an even period, which Midy's theorem folds into the whole.

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

__all__ = ["lane_counts", "period_counts"]

# Lanes and primes the counting kernel advances together (_count_batch).  On
# the kernel primes to 1e5, 2**13 lanes measured faster than 2**12 or 2**14,
# and 128 primes faster than 64; the bins then take 1 MB.
_LANES = 1 << 13
_BATCH_PRIMES = 128

# Odd-period half-length primes 3 < p <= this bound can take their counts from
# two class numbers (classnumber.odd_half_counts), whose tables in each process
# then hold about 25p/6 bytes: 4.4 MB at the bound.  Above it the lane
# kernel, whose memory does not grow with p, counts them.
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
        from . import classnumber

        primes = [s.p for s in odd_half]
        added = classnumber.table_entries_to_add(max(primes))
        if sum(s.period for s in odd_half) > _DIGITS_PER_TABLE_ENTRY * added:
            counts = dict(zip(primes, classnumber.odd_half_counts(primes)))
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

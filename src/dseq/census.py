"""Classification of primes and batch digit-frequency aggregation.

A prime is classified by its last digit, the parity of its tens digit, and
its length class: full (period = p-1), half (period = (p-1)/2) or other.

Every command that counts digits over a range goes through one pipeline,
``batch_records``, and picks the primes it reports by class key.  A cache
hit is the stored record as it is, kept when its key is wanted.  The misses
are sorted ascending and cut into chunks, and one task does all of a
chunk's work: it classifies each miss, drops those of unwanted keys, counts
the digits of the rest (``counting.period_counts``, imported only when some
are left) and returns their cache lines.  The task runs in a worker pool for
jobs > 1 and in process otherwise; the parent checks each chunk's lines as
loading would and appends the chunk as soon as it arrives, in order.
Appends are therefore ascending, the same bytes for any worker count, and
an interrupted run keeps every finished chunk.  Every result comes back in
input order, with or without a cache.
"""
from __future__ import annotations

import contextlib
import functools
import os
from collections import namedtuple
from typing import Collection

from .numtheory import sieve_primes
from .sequence import (
    EVEN,
    FULL,
    HALF,
    ODD,
    OTHER,
    PRIME_CAP,
    ClassKey,
    DigitHistogram,
    ReciprocalSpec,
)
from .store import CacheRecord, ResultCache, _line

__all__ = [
    "EVEN",
    "ODD",
    "FULL",
    "HALF",
    "OTHER",
    "ClassKey",
    "ParityCell",
    "ParityScanReport",
    "classify",
    "class_census",
    "global_digit_census",
    "third_digit_parity_scan",
    "batch_records",
    "census_primes",
]


def classify(p: int, *, cache: ResultCache | None = None) -> ReciprocalSpec:
    """The spec of an odd prime != 5 (multiplier and period from the cache when available)."""
    rec = cache.lookup(p) if cache is not None else None
    if rec is not None:
        # loading the record already checked p and its multiplier
        return ReciprocalSpec(rec.p, rec.l, rec.period)
    return ReciprocalSpec.for_prime(p)


def _count_chunk(primes: list[int], keys: Collection[ClassKey] | None = None) -> list[str]:
    """The cache lines of the primes of a chunk whose class key is in keys (all for None)."""
    specs = [s for s in map(ReciprocalSpec.for_prime, primes) if keys is None or s.key in keys]
    if not specs:
        return []
    from . import counting

    return [_line(s.p, s.l, s.period, s.cofactor, counts)
            for s, counts in zip(specs, counting.period_counts(specs))]


def batch_records(
    primes: list[int],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    keys: Collection[ClassKey] | None = None,
) -> list[CacheRecord]:
    """Records of the primes whose class key is in keys (all for None), in input order.

    The misses are classified, filtered and counted in ascending chunks, in
    the pool for jobs > 1, and each chunk is appended to the cache as soon
    as it is counted.  The returned list depends only on the input primes
    and keys, not on the cache.
    """
    # None for a miss; a batch that the cache serves whole takes this one pass.
    # It goes through lookup, which the benchmark's traced run counts hits by.
    records = [None] * len(primes) if cache is None else list(map(cache.lookup, primes))
    if not all(records):
        found = dict(zip(primes, records))
        todo = sorted(p for p, rec in found.items() if rec is None)
        # more workers than the CPUs this process may use (its affinity mask,
        # where the platform has one) or than primes to compute only cost start-up
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(jobs, cpus, len(todo))
        size = max(1, len(todo) // (workers * 8))
        chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
        task = functools.partial(_count_chunk, keys=keys)
        with contextlib.ExitStack() as stack:
            if workers > 1:
                # multiprocessing here, not at the top: cache-served commands never
                # start a pool.  The counting code, numpy with it, is imported once,
                # before the fork; importing numpy in each worker measured slower in
                # wall and CPU time.
                import multiprocessing

                from . import classnumber, counting  # noqa: F401

                pool = stack.enter_context(multiprocessing.Pool(workers))
                results = pool.imap(task, chunks)
            else:
                results = map(task, chunks)
            for lines in results:
                # checked as loading checks them, and appended as these lines
                computed = (CacheRecord.from_lines(lines) if cache is None
                            else cache._append_lines(lines))
                for rec in computed:
                    found[rec.p] = rec
        records = list(map(found.get, primes))  # None for a miss of another key
    if keys is None:
        return records
    return [rec for rec in records if rec is not None and rec.key in keys]


def class_census(
    primes: list[int],
    key: ClassKey,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[CacheRecord]:
    """Histogram rows for the given primes, all of which must match key."""
    rows = batch_records(primes, jobs=jobs, cache=cache, keys={key})
    kept = {rec.p for rec in rows}
    mismatched = [p for p in primes if p not in kept]
    if mismatched:
        raise ValueError(
            f"primes do not classify to {key}: {', '.join(map(str, mismatched))}"
        )
    return rows


def census_primes(limit: int) -> list[int]:
    if limit > PRIME_CAP:  # no prime above the cap is supported: refuse before sieving
        raise ValueError(f"limit {limit} exceeds PRIME_CAP = {PRIME_CAP}")
    return [p for p in sieve_primes(limit) if p not in (2, 5)]


def global_digit_census(
    limit: int,
    *,
    include_other: bool = True,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> DigitHistogram:
    """Sum of full-period histograms over all primes <= limit (minus 2 and 5).

    include_other=False restricts the aggregate to full- and half-length
    primes for sensitivity analysis; every prime is still computed and cached.
    """
    if limit < 2:
        raise ValueError(f"census limit must be >= 2, got {limit}")
    records = batch_records(census_primes(limit), jobs=jobs, cache=cache)
    counts = [rec.counts for rec in records if include_other or rec.cofactor <= 2]
    return DigitHistogram(tuple(map(sum, zip(*counts))) if counts else (0,) * 10)


class ParityCell(namedtuple("ParityCell", "parities count")):
    """Observed hundreds-digit parities (a tuple of str) for one (lsd, tens digit) cell."""

    __slots__ = ()


class ParityScanReport(namedtuple("ParityScanReport", "limit entries")):
    """Hundreds-digit parity sets of half-length primes, per (lsd, tens digit).

    ``entries`` maps each (lsd, tens digit) cell to its ParityCell.
    """

    __slots__ = ()


def third_digit_parity_scan(
    limit: int,
    *,
    cache: ResultCache | None = None,
) -> ParityScanReport:
    """Scan half-length primes in [100, limit] for hundreds-digit parity patterns."""
    if limit < 100:
        raise ValueError(f"scan limit must be >= 100, got {limit}")
    seen: dict[tuple[int, int], set[str]] = {}
    counts: dict[tuple[int, int], int] = {}
    primes = [p for p in census_primes(limit) if p >= 100]
    # a hit is read as it is, as batch_records reads it: classify would build a spec for each
    hits = [None] * len(primes) if cache is None else map(cache.lookup, primes)
    for p, rec in zip(primes, hits):
        if (rec if rec is not None else ReciprocalSpec.for_prime(p)).cofactor != 2:
            continue
        cell = (p % 10, (p // 10) % 10)
        parity = EVEN if (p // 100) % 2 == 0 else ODD
        seen.setdefault(cell, set()).add(parity)
        counts[cell] = counts.get(cell, 0) + 1
    entries = {
        cell: ParityCell(tuple(sorted(seen[cell])), counts[cell])
        for cell in sorted(seen)
    }
    return ParityScanReport(limit, entries)

"""Classification of primes and batch digit-frequency aggregation.

A prime is classified by its last digit, the parity of its tens digit, and
its length class: full (period = p-1), half (period = (p-1)/2) or other.

Every range command goes through one pipeline.  A cache hit is the stored
record as it is.  The misses are sorted ascending and cut into chunks, and
one task does all of a chunk's work: it classifies each miss (unless the
caller has already classified it here, to drop some with ``keep`` or to
check its class), counts its digits (``counting.period_counts``) and returns
its cache line.  The task runs in a worker pool for jobs > 1 and in process
otherwise; the parent checks each chunk's lines as loading would and appends
the chunk as soon as it arrives, in order.  Appends are therefore ascending,
the same bytes for any worker count, and an interrupted run keeps every
finished chunk.  Every result comes back in input order, with or without a
cache.
"""
from __future__ import annotations

import contextlib
import os
from collections import namedtuple
from typing import Callable

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


def _classified(
    primes: list[int], cache: ResultCache | None
) -> dict[int, ReciprocalSpec]:
    """Each distinct prime's cached record, or on a miss its computed spec."""
    specs: dict[int, ReciprocalSpec] = {}
    for p in primes:
        if p not in specs:
            rec = cache.lookup(p) if cache is not None else None
            specs[p] = rec if rec is not None else classify(p)
    return specs


def _count_chunk(items: list) -> list[str]:
    """The cache lines of a chunk of misses; an item is a spec, or a prime to classify."""
    from . import counting

    specs = [item if isinstance(item, ReciprocalSpec) else ReciprocalSpec.for_prime(item)
             for item in items]
    return [_line(s.p, s.l, s.period, s.cofactor, counts)
            for s, counts in zip(specs, counting.period_counts(specs))]


def _counted(
    primes: list[int],
    specs: dict[int, ReciprocalSpec | int],
    jobs: int,
    cache: ResultCache | None,
) -> list[CacheRecord]:
    """Records of the primes in specs, in input order.

    A value of specs is a cached record, a spec to count, or the prime itself
    to classify and count.  The misses are counted in ascending chunks, and
    each chunk is appended to the cache as soon as it is counted.
    """
    todo = [specs[p] for p in sorted(specs) if not isinstance(specs[p], CacheRecord)]
    if todo:
        # more workers than the CPUs this process may use (its affinity mask,
        # where the platform has one) or than primes to compute only cost start-up
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(jobs, cpus, len(todo))
        size = max(1, len(todo) // (workers * 8))
        chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
        with contextlib.ExitStack() as stack:
            if workers > 1:
                # multiprocessing here, not at the top: cache-served commands never
                # start a pool.  The counting code, numpy with it, is imported once,
                # before the fork; importing numpy in each worker measured slower in
                # wall and CPU time.
                import multiprocessing

                from . import classnumber, counting  # noqa: F401

                pool = stack.enter_context(multiprocessing.Pool(workers))
                results = pool.imap(_count_chunk, chunks)
            else:
                results = map(_count_chunk, chunks)
            for lines in results:
                # checked as loading checks them, and appended as these lines
                computed = (CacheRecord.from_lines(lines) if cache is None
                            else cache._append_lines(lines))
                for rec in computed:
                    specs[rec.p] = rec
    return [specs[p] for p in primes if p in specs]


def batch_records(
    primes: list[int],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    keep: Callable[[ReciprocalSpec], bool] | None = None,
) -> list[CacheRecord]:
    """Records of the primes whose spec keep accepts (all by default), in input order.

    Without keep, each miss is classified where it is counted, in the pool for
    jobs > 1.  With keep, the misses are classified here first, so that those
    it drops start no pool.  The returned list depends only on the input
    primes, not on the cache.
    """
    if keep is not None:
        specs = {p: s for p, s in _classified(primes, cache).items() if keep(s)}
    else:
        specs = {}
        for p in primes:
            rec = cache.lookup(p) if cache is not None else None
            specs[p] = p if rec is None else rec
    return _counted(primes, specs, jobs, cache)


def class_census(
    primes: list[int],
    key: ClassKey,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[CacheRecord]:
    """Histogram rows for the given primes, all of which must match key."""
    specs = _classified(primes, cache)
    mismatched = [p for p in primes if specs[p].key != key]
    if mismatched:
        raise ValueError(
            f"primes do not classify to {key}: {', '.join(map(str, mismatched))}"
        )
    return _counted(primes, specs, jobs, cache)


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
    for p, spec in _classified(primes, cache).items():
        if spec.cofactor != 2:
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

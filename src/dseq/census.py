"""Classification of primes and batch digit-frequency aggregation.

A prime is classified by its last digit, the parity of its tens digit, and
its length class: full (period = p-1), half (period = (p-1)/2) or other.

Every range command goes through one pipeline: a cache hit is the stored
record as it is; a miss is classified once, here; a caller may drop specs
before any digit is counted; the misses left are counted (in a worker pool
for jobs > 1), appended to the cache in ascending order, and every result
comes back in input order.  Output is therefore identical for any worker
count, with or without a cache.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from .numtheory import sieve_primes
from .sequence import (
    EVEN,
    FULL,
    HALF,
    ODD,
    OTHER,
    ClassKey,
    DigitHistogram,
    ReciprocalSpec,
    histogram,
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


def _count(spec: ReciprocalSpec) -> str:
    return _line(spec.p, spec.l, spec.period, spec.cofactor, histogram(spec).counts)


def _counted(
    primes: list[int],
    specs: dict[int, ReciprocalSpec],
    jobs: int,
    cache: ResultCache | None,
) -> list[CacheRecord]:
    """Records of the primes in specs, in input order; specs not yet records are counted."""
    todo = [s for s in specs.values() if not isinstance(s, CacheRecord)]
    if todo:
        # more workers than cores or than primes to compute only cost start-up
        workers = min(jobs, os.cpu_count() or 1, len(todo))
        if workers > 1:
            chunk = max(1, len(todo) // (workers * 8))
            # multiprocessing here, not at the top: cache-served commands never
            # start a pool.  The kernel's numpy is imported once, before the fork;
            # importing it in each worker measured slower in wall and CPU time.
            import multiprocessing

            import numpy  # noqa: F401

            with multiprocessing.Pool(workers) as pool:
                lines = pool.map(_count, todo, chunksize=chunk)
        else:
            lines = [_count(s) for s in todo]
        computed = CacheRecord.from_lines(lines)  # checked as loading checks them
        for rec in computed:
            specs[rec.p] = rec
        if cache is not None:
            cache.append_many(sorted(computed, key=lambda r: r.p))
    return [specs[p] for p in primes if p in specs]


def batch_records(
    primes: list[int],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    keep: Callable[[ReciprocalSpec], bool] | None = None,
) -> list[CacheRecord]:
    """Records of the primes whose spec keep accepts (all by default), in input order.

    The returned list depends only on the input primes, not on the cache.
    """
    specs = _classified(primes, cache)
    if keep is not None:
        specs = {p: s for p, s in specs.items() if keep(s)}
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
    totals = [0] * 10
    for rec in batch_records(census_primes(limit), jobs=jobs, cache=cache):
        if include_other or rec.cofactor <= 2:
            for d, c in enumerate(rec.counts):
                totals[d] += c
    return DigitHistogram(tuple(totals))


@dataclass(frozen=True)
class ParityCell:
    """Observed hundreds-digit parities for one (lsd, tens digit) cell."""

    parities: tuple[str, ...]
    count: int


@dataclass(frozen=True)
class ParityScanReport:
    """Hundreds-digit parity sets of half-length primes, per (lsd, tens digit)."""

    limit: int
    entries: dict[tuple[int, int], ParityCell]


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

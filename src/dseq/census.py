"""Classification of primes and batch digit-frequency aggregation.

A prime is classified by its last digit, the parity of its tens digit, and
its length class: full (period = p-1), half (period = (p-1)/2) or other.
Batch runs are data-parallel per prime and merged in prime order, so output
is identical for any worker count, with or without a cache.
"""
from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from .numtheory import multiplicative_order, sieve_primes
from .sequence import DigitHistogram, ReciprocalSpec, histogram, l_multiplier
from .store import CacheRecord, ResultCache

__all__ = [
    "EVEN",
    "ODD",
    "FULL",
    "HALF",
    "OTHER",
    "ClassKey",
    "PrimeProfile",
    "CensusRow",
    "ParityCell",
    "ParityScanReport",
    "classify",
    "class_census",
    "global_digit_census",
    "third_digit_parity_scan",
    "batch_records",
    "census_primes",
]

EVEN = "even"
ODD = "odd"
FULL = "full"
HALF = "half"
OTHER = "other"


@dataclass(frozen=True)
class ClassKey:
    """(last digit, tens-digit parity, length class) of a prime."""

    lsd: int
    second_parity: str
    length_class: str

    def __post_init__(self) -> None:
        if self.lsd not in (1, 3, 7, 9):
            raise ValueError(f"last digit must be 1, 3, 7 or 9, got {self.lsd}")
        if self.second_parity not in (EVEN, ODD):
            raise ValueError(f"bad parity {self.second_parity!r}")
        if self.length_class not in (FULL, HALF, OTHER):
            raise ValueError(f"bad length class {self.length_class!r}")


@dataclass(frozen=True)
class PrimeProfile:
    """A classified prime: multiplier, period, cofactor k = (p-1)/period, key."""

    p: int
    l: int
    period: int
    cofactor: int
    key: ClassKey


def _length_class(cofactor: int) -> str:
    return FULL if cofactor == 1 else HALF if cofactor == 2 else OTHER


def classify(p: int, *, cache: ResultCache | None = None) -> PrimeProfile:
    """Profile an odd prime != 5 (multiplier and period from the cache when available)."""
    rec = cache.lookup(p) if cache is not None else None
    if rec is not None:
        # loading the record already checked p and its multiplier
        l, period = rec.l, rec.period
    else:
        l, period = l_multiplier(p), multiplicative_order(10, p)
    k = (p - 1) // period
    parity = EVEN if (p // 10) % 2 == 0 else ODD
    return PrimeProfile(p, l, period, k, ClassKey(p % 10, parity, _length_class(k)))


@dataclass(frozen=True)
class CensusRow:
    """One table row: a prime and its full-period digit histogram."""

    p: int
    histogram: DigitHistogram


def _record_for_prime(p: int) -> CacheRecord:
    spec = ReciprocalSpec.for_prime(p)
    h = histogram(spec)
    return CacheRecord(p, spec.l, spec.period, (p - 1) // spec.period, h.counts)


def batch_records(
    primes: list[int],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[CacheRecord]:
    """Period + digit counts for each prime, in input order.

    Cache hits are reused; misses are computed (in a worker pool for
    jobs > 1) and appended to the cache in ascending prime order.  The
    returned list depends only on the input primes.
    """
    found: dict[int, CacheRecord] = {}
    todo: list[int] = []
    seen: set[int] = set()
    for p in primes:
        if p in seen:
            continue
        seen.add(p)
        rec = cache.lookup(p) if cache is not None else None
        if rec is not None:
            found[p] = rec
        else:
            todo.append(p)
    if todo:
        # more workers than cores or than primes to compute only cost start-up
        workers = min(jobs, os.cpu_count() or 1, len(todo))
        if workers > 1:
            chunk = max(1, len(todo) // (workers * 8))
            # import the kernel's numpy once, before the fork; importing it in each
            # worker instead measured slower in both wall and CPU time
            import numpy  # noqa: F401

            with multiprocessing.Pool(workers) as pool:
                computed = pool.map(_record_for_prime, todo, chunksize=chunk)
        else:
            computed = [_record_for_prime(p) for p in todo]
        for rec in computed:
            found[rec.p] = rec
        if cache is not None:
            cache.append_many(found[p] for p in sorted(todo))
    return [found[p] for p in primes]


def class_census(
    primes: list[int],
    key: ClassKey,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[CensusRow]:
    """Histogram rows for the given primes, all of which must match key."""
    mismatched = [p for p in primes if classify(p, cache=cache).key != key]
    if mismatched:
        raise ValueError(
            f"primes do not classify to {key}: {', '.join(map(str, mismatched))}"
        )
    records = batch_records(primes, jobs=jobs, cache=cache)
    return [CensusRow(rec.p, DigitHistogram(rec.counts)) for rec in records]


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
    primes for sensitivity analysis.
    """
    if limit < 2:
        raise ValueError(f"census limit must be >= 2, got {limit}")
    primes = census_primes(limit)
    records = batch_records(primes, jobs=jobs, cache=cache)
    totals = [0] * 10
    for rec in records:
        if not include_other and rec.cofactor > 2:
            continue
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
    for p in census_primes(limit):
        if p < 100:
            continue
        profile = classify(p, cache=cache)
        if profile.key.length_class != HALF:
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

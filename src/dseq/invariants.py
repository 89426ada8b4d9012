"""Structural digit-frequency rules for full- and half-length reciprocals.

Twelve rules, one per (length class, last digit[, tens-digit parity]) cell:
FL1/FL3/FL7/FL9 for full-length primes and HL1E/HL1O/.../HL9O for
half-length ones.  Writing f(d) for the period count of digit d and
m = p // 10, the catalog is:

  FL1   f(d) = (p-1)/10 for every d
  FL3   f(3) = f(6) = (p-3)/10 + 1, every other digit (p-3)/10
  FL7   f(0) = f(3) = f(6) = f(9) = (p+3)/10 - 1, every other digit (p+3)/10
  FL9   f(0) = f(9) = (p+1)/10 - 1, every other digit (p+1)/10
  HL1E  f(0)=f(9), f(3)=f(6), f(1)=f(2)=f(4)=f(5)=f(7)=f(8)
  HL1O  f(d)+f(9-d) = m for all d; f(1)=f(5)=f(6); f(3)=f(4)=f(8);
        max digit in {0,2}, min digit in {7,9}
  HL3E  f(d)+f(9-d) = m except f(3)+f(6) = m+1; f(0)=f(9); f(1)=f(4)=f(7);
        f(2)=f(5)=f(8); 3 uniquely max, 6 uniquely min
  HL3O  f(d) = f(9-d) for all d
  HL7E  f(0)+f(9) = f(3)+f(6) = m, other pairs m+1; f(1)=f(4)=f(7);
        f(2)=f(5)=f(8); 3 uniquely max, 6 uniquely min
  HL7O  f(d) = f(9-d) for all d
  HL9E  f(d) = f(9-d) for all d; f(1)=f(2)=f(4); f(5)=f(7)=f(8)
  HL9O  f(0)+f(9) = m, other pairs m+1; f(1)=f(5)=f(6); f(3)=f(4)=f(8);
        max digit in {0,2}, min digit in {7,9}

All of it is proven, and all of it is one record check,
``sequence._broken_period``, which the cache runs on every record it loads
or writes, so no record here can break it.  It holds each rule's period
total, the FL closed forms (f = N_p), the mirrors of HL3O, HL7O and HL9E
(Midy), the pair sums of HL1O, HL3E, HL7E and HL9O, the x2 relations that
give the equal groups of the even periods, and the class-number shape that
gives the equal groups and the extremes of the odd ones.  ``RULES`` lists
only soft sub-checks, frequency observations of the even half-length types
whose pass rates are reported:

  HL1E, HL9E  max_group: the max digits lie in {0,9} or in {1,2,4,5,7,8};
              min_group: the min digits lie in {3,6} or in {1,2,4,5,7,8}
  HL3O, HL7O  max_pair: the max digits lie in {1,8}, {2,7} or {0,9};
              min_pair: the min digits lie in {3,6}, {4,5} or {1,8}
"""
from __future__ import annotations

from collections import namedtuple
from typing import Callable

from .census import batch_records, census_primes
from .sequence import (
    EVEN,
    FULL,
    HALF,
    ODD,
    ClassKey,
    DigitHistogram,
    ReciprocalSpec,
)
from .store import ResultCache

__all__ = [
    "RULE_IDS",
    "RuleStats",
    "VerificationSummary",
    "applicable_rule",
    "check_histogram",
    "verify_range",
]

Counts = tuple[int, ...]


def _extreme_in(kind: str, allowed: tuple[frozenset, ...]) -> Callable[[Counts], bool]:
    """Whether the digits of f's max (or min) count all lie in one allowed set."""
    def holds(f: Counts) -> bool:
        target = max(f) if kind == "max" else min(f)
        got = {d for d in range(10) if f[d] == target}
        return any(got <= a for a in allowed)

    return holds


_SIX = frozenset({1, 2, 4, 5, 7, 8})
_PAIRS_MAX = _extreme_in("max", (frozenset({1, 8}), frozenset({2, 7}), frozenset({0, 9})))
_PAIRS_MIN = _extreme_in("min", (frozenset({3, 6}), frozenset({4, 5}), frozenset({1, 8})))
_GROUPS_MAX = _extreme_in("max", (frozenset({0, 9}), _SIX))
_GROUPS_MIN = _extreme_in("min", (frozenset({3, 6}), _SIX))

# The soft sub-checks of each rule, by name, in catalog order; the FL rules and
# the odd half-length ones are all in the period check.
RULES: dict[str, dict[str, Callable[[Counts], bool]]] = {
    "FL1": {}, "FL3": {}, "FL7": {}, "FL9": {},
    "HL1E": {"max_group": _GROUPS_MAX, "min_group": _GROUPS_MIN},
    "HL1O": {},
    "HL3E": {},
    "HL3O": {"max_pair": _PAIRS_MAX, "min_pair": _PAIRS_MIN},
    "HL7E": {},
    "HL7O": {"max_pair": _PAIRS_MAX, "min_pair": _PAIRS_MIN},
    "HL9E": {"max_group": _GROUPS_MAX, "min_group": _GROUPS_MIN},
    "HL9O": {},
}
RULE_IDS = tuple(RULES)  # in catalog order, as verify prints them


# The rule id of each full- and half-length class key.
_RULE_BY_KEY = {
    ClassKey(lsd, parity, length):
        f"FL{lsd}" if length == FULL else f"HL{lsd}{'E' if parity == EVEN else 'O'}"
    for lsd in (1, 3, 7, 9)
    for parity in (EVEN, ODD)
    for length in (FULL, HALF)
}


def applicable_rule(spec: ReciprocalSpec) -> str | None:
    """Rule id for a full- or half-length prime, None for the rest."""
    return _RULE_BY_KEY.get(spec.key)


def check_histogram(spec: ReciprocalSpec, hist: DigitHistogram) -> dict[str, bool]:
    """Whether each soft sub-check of spec's rule holds for a full-period histogram
    of spec.p, by name; ValueError for a prime that no rule applies to.

    Only ``hist.counts`` is read, so a ``CacheRecord`` may stand for its own histogram.
    """
    rule = applicable_rule(spec)
    if rule is None:
        raise ValueError(f"no rule applies to {spec.p} (cofactor {spec.cofactor})")
    return {name: holds(hist.counts) for name, holds in RULES[rule].items()}


class RuleStats(namedtuple("RuleStats", "checked soft_passed")):
    """Tallies for one rule over a verified range: the records checked, and
    by soft sub-check name, how many of them it held for (each runs on all)."""

    __slots__ = ()


class VerificationSummary(namedtuple("VerificationSummary", "limit rules")):
    """Range-level outcome: per-rule tallies (RuleStats by rule id)."""

    __slots__ = ()


def verify_range(
    limit: int,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> VerificationSummary:
    """Tally every full- and half-length prime <= limit against its rule.

    Every record here has passed the period check, when it was loaded or
    counted, so only the soft sub-checks are left to run, each over all of
    its rule's records at once.
    """
    records = batch_records(census_primes(limit), jobs=jobs, cache=cache, keys=_RULE_BY_KEY)
    counts: dict[str, list[Counts]] = {rule: [] for rule in RULE_IDS}
    for rec in records:
        counts[applicable_rule(rec)].append(rec.counts)
    stats = {}
    for rule, fs in counts.items():
        checks = RULES[rule] if fs else {}  # a rule with no records has no soft rates
        passed = {name: sum(map(holds, fs)) for name, holds in checks.items()}
        stats[rule] = RuleStats(len(fs), passed)
    return VerificationSummary(limit, stats)

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

The parts of these rules that are theorems are one HARD sub-check,
``period``, shared by all twelve: ``sequence._broken_period``, which the
cache also runs on every record it loads or writes.  It holds each rule's
period total, the FL closed forms (f = N_p, with N_p(d) = m plus an offset
fixed by the last digit), the mirrors of HL3O, HL7O and HL9E (Midy) and the
pair sums of HL1O, HL3E, HL7E and HL9O (f(d) + f(9-d) = N_p(d)).  So the FL
rules have nothing left to check, and ``RULES`` lists only the rest: equal
groups and extremes.  STRONG checks are observed to hold universally over
every range verified so far but carry no proof; a violation is reported as
data, never an abort.  SOFT checks are frequency observations ("usually the
maximum"); only pass rates are reported.  Max/min checks are skipped for
p <= 10, where one-digit periods make ties meaningless.
"""
from __future__ import annotations

from collections import namedtuple

from .census import batch_records, census_primes
from .sequence import (
    EVEN,
    FULL,
    HALF,
    ODD,
    ClassKey,
    DigitHistogram,
    ReciprocalSpec,
    _broken_period,
)
from .store import ResultCache

__all__ = [
    "HARD",
    "STRONG",
    "SOFT",
    "RULE_IDS",
    "RuleReport",
    "RuleStats",
    "VerificationSummary",
    "applicable_rule",
    "check_histogram",
    "verify_range",
]

HARD = "hard"
STRONG = "strong"
SOFT = "soft"

# Below this, max/min sub-checks are skipped (degenerate periods are all ties).
_EXTREMES_MIN_P = 10

Counts = tuple[int, ...]


class SubCheck(namedtuple("SubCheck", "name level run extremal", defaults=(False,))):
    """One named check; ``run(p, f)`` is None when it holds, else the observed detail."""

    __slots__ = ()


def _fmt(f: Counts, digits) -> str:
    return " ".join(f"f({d})={f[d]}" for d in digits)


def _equal_group(name: str, level: str, digits: tuple[int, ...]) -> SubCheck:
    def run(p: int, f: Counts) -> str | None:
        return None if len({f[d] for d in digits}) == 1 else _fmt(f, digits)

    return SubCheck(name, level, run)


def _extreme_set(f: Counts, kind: str) -> set[int]:
    target = max(f) if kind == "max" else min(f)
    return {d for d in range(10) if f[d] == target}


def _extreme_in(name: str, level: str, kind: str, allowed: tuple[frozenset, ...]) -> SubCheck:
    def run(p: int, f: Counts) -> str | None:
        got = _extreme_set(f, kind)
        return None if any(got <= a for a in allowed) else f"{kind} digits {sorted(got)}"

    return SubCheck(name, level, run, extremal=True)


def _extreme_unique(name: str, level: str, kind: str, digit: int) -> SubCheck:
    def run(p: int, f: Counts) -> str | None:
        got = _extreme_set(f, kind)
        if got == {digit}:
            return None
        return f"{kind} digits {sorted(got)}" + (" (tie)" if len(got) > 1 else "")

    return SubCheck(name, level, run, extremal=True)


_SIX = (1, 2, 4, 5, 7, 8)
_PAIRS_SOFT_MAX = (frozenset({1, 8}), frozenset({2, 7}), frozenset({0, 9}))
_PAIRS_SOFT_MIN = (frozenset({3, 6}), frozenset({4, 5}), frozenset({1, 8}))
_GROUPS_09_SIX = (frozenset({0, 9}), frozenset(_SIX))
_GROUPS_36_SIX = (frozenset({3, 6}), frozenset(_SIX))

RULES: dict[str, tuple[SubCheck, ...]] = {
    "FL1": (), "FL3": (), "FL7": (), "FL9": (),  # all in the period check
    "HL1E": (
        _equal_group("f0_f9", STRONG, (0, 9)),
        _equal_group("f124578", STRONG, _SIX),
        _equal_group("f3_f6", STRONG, (3, 6)),
        _extreme_in("max_group", SOFT, "max", _GROUPS_09_SIX),
        _extreme_in("min_group", SOFT, "min", _GROUPS_36_SIX),
    ),
    "HL1O": (
        _equal_group("f1_f5_f6", STRONG, (1, 5, 6)),
        _equal_group("f3_f4_f8", STRONG, (3, 4, 8)),
        _extreme_in("max_in_02", STRONG, "max", (frozenset({0, 2}),)),
        _extreme_in("min_in_79", STRONG, "min", (frozenset({7, 9}),)),
    ),
    "HL3E": (
        _equal_group("f0_f9", STRONG, (0, 9)),
        _equal_group("f1_f4_f7", STRONG, (1, 4, 7)),
        _equal_group("f2_f5_f8", STRONG, (2, 5, 8)),
        _extreme_unique("max_is_3", STRONG, "max", 3),
        _extreme_unique("min_is_6", STRONG, "min", 6),
    ),
    "HL3O": (
        _extreme_in("max_pair", SOFT, "max", _PAIRS_SOFT_MAX),
        _extreme_in("min_pair", SOFT, "min", _PAIRS_SOFT_MIN),
    ),
    "HL7E": (
        _equal_group("f1_f4_f7", STRONG, (1, 4, 7)),
        _equal_group("f2_f5_f8", STRONG, (2, 5, 8)),
        _extreme_unique("max_is_3", STRONG, "max", 3),
        _extreme_unique("min_is_6", STRONG, "min", 6),
    ),
    "HL7O": (
        _extreme_in("max_pair", SOFT, "max", _PAIRS_SOFT_MAX),
        _extreme_in("min_pair", SOFT, "min", _PAIRS_SOFT_MIN),
    ),
    "HL9E": (
        _equal_group("f1_f2_f4", STRONG, (1, 2, 4)),
        _equal_group("f5_f7_f8", STRONG, (5, 7, 8)),
        _extreme_in("max_group", SOFT, "max", _GROUPS_09_SIX),
        _extreme_in("min_group", SOFT, "min", _GROUPS_36_SIX),
    ),
    "HL9O": (
        _equal_group("f1_f5_f6", STRONG, (1, 5, 6)),
        _equal_group("f3_f4_f8", STRONG, (3, 4, 8)),
        _extreme_in("max_in_02", STRONG, "max", (frozenset({0, 2}),)),
        _extreme_in("min_in_79", STRONG, "min", (frozenset({7, 9}),)),
    ),
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


class RuleReport(namedtuple("RuleReport",
                            "p rule hard_passed strong_passed soft_outcomes details")):
    """Outcome of every sub-check of one rule against one prime's histogram.

    ``soft_outcomes`` maps each soft sub-check run to whether it held, and
    ``details`` is a tuple of the failing sub-checks' text.
    """

    __slots__ = ()


def check_histogram(spec: ReciprocalSpec, hist: DigitHistogram) -> RuleReport:
    """Evaluate the applicable rule on a full-period histogram of spec.p.

    Only ``hist.counts`` is read, so a ``CacheRecord`` may stand for its own histogram.
    """
    rule = applicable_rule(spec)
    if rule is None:
        raise ValueError(
            f"no rule applies to {spec.p} (cofactor {spec.cofactor})"
        )
    p, f = spec.p, hist.counts
    broken = _broken_period(p, spec.period, f)
    hard, strong = broken is None, True
    soft: dict[str, bool] = {}
    details = [] if hard else [f"{HARD} period: {broken}"]
    for chk in RULES[rule]:
        if chk.extremal and p <= _EXTREMES_MIN_P:
            continue
        failure = chk.run(p, f)
        if chk.level == SOFT:
            soft[chk.name] = failure is None
        elif failure is not None:
            strong = False
            details.append(f"{chk.level} {chk.name}: {failure}")
    return RuleReport(p, rule, hard, strong, soft, tuple(details))


class RuleStats(namedtuple("RuleStats",
                           "checked hard_failures strong_failures soft_passed soft_checked")):
    """Aggregate tallies for one rule over a verified range.

    ``soft_passed`` and ``soft_checked`` count by soft sub-check name; each
    defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, checked: int = 0, hard_failures: int = 0, strong_failures: int = 0,
                soft_passed: dict[str, int] | None = None,
                soft_checked: dict[str, int] | None = None) -> "RuleStats":
        return super().__new__(cls, checked, hard_failures, strong_failures,
                               {} if soft_passed is None else soft_passed,
                               {} if soft_checked is None else soft_checked)


class VerificationSummary(namedtuple("VerificationSummary", "limit rules violations")):
    """Range-level outcome: per-rule tallies (RuleStats by rule id) plus every
    failing report (a list of RuleReport)."""

    __slots__ = ()

    @property
    def hard_failures(self) -> int:
        return sum(s.hard_failures for s in self.rules.values())

    @property
    def strong_failures(self) -> int:
        return sum(s.strong_failures for s in self.rules.values())


def verify_range(
    limit: int,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> VerificationSummary:
    """Check every full- and half-length prime <= limit against its rule.

    Each rule's sub-checks, the period check among them, run over all of
    that rule's records at once, with the functions ``check_histogram``
    runs; only a record that fails one goes through ``check_histogram``, for
    its report.
    """
    records = batch_records(census_primes(limit), jobs=jobs, cache=cache,
                            keep=lambda spec: spec.cofactor in (1, 2))
    members: dict[str, list[int]] = {rule: [] for rule in RULE_IDS}  # indices into records
    for i, rec in enumerate(records):
        members[applicable_rule(rec)].append(i)
    stats, failed = {}, set()
    for rule, rows in members.items():
        ps = [records[i].p for i in rows]
        fs = [records[i].counts for i in rows]
        periods = [records[i].period for i in rows]
        hard = [i for i, broken in zip(rows, map(_broken_period, ps, periods, fs))
                if broken is not None]
        # the rows that extremal sub-checks run on, as columns
        ranked = tuple(zip(*((i, p, f) for i, p, f in zip(rows, ps, fs)
                             if p > _EXTREMES_MIN_P))) or ((), (), ())
        strong: set[int] = set()
        soft_passed, soft_checked = {}, {}
        for chk in RULES[rule]:
            rows_c, ps_c, fs_c = ranked if chk.extremal else (rows, ps, fs)
            if not rows_c:
                continue
            bad = [i for i, failure in zip(rows_c, map(chk.run, ps_c, fs_c))
                   if failure is not None]
            if chk.level == SOFT:
                soft_checked[chk.name] = len(rows_c)
                soft_passed[chk.name] = len(rows_c) - len(bad)
            else:
                strong.update(bad)
        stats[rule] = RuleStats(len(rows), len(hard), len(strong), soft_passed, soft_checked)
        failed.update(hard, strong)
    # a record carries its own counts
    violations = [check_histogram(records[i], records[i]) for i in sorted(failed)]
    return VerificationSummary(limit, stats, violations)

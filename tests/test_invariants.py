from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dseq.census import batch_records, census_primes, classify
from dseq.invariants import (
    RULE_IDS,
    RuleStats,
    applicable_rule,
    check_histogram,
    verify_range,
)
from dseq.numtheory import sieve_primes
from dseq.sequence import (
    DigitHistogram,
    ReciprocalSpec,
    histogram,
    long_division_digits,
)
from dseq.store import CACHE_HEADER, CacheRecord, ResultCache

from conftest import golden_rows


def _oracle_hist(p: int) -> DigitHistogram:
    spec = ReciprocalSpec.for_prime(p)
    c = Counter(long_division_digits(p, spec.period))
    return DigitHistogram(tuple(c.get(d, 0) for d in range(10)))


def test_rule_ids():
    assert len(RULE_IDS) == 12
    assert set(RULE_IDS) == {
        "FL1", "FL3", "FL7", "FL9",
        "HL1E", "HL1O", "HL3E", "HL3O", "HL7E", "HL7O", "HL9E", "HL9O",
    }


def test_applicable_rule_examples():
    assert applicable_rule(classify(601)) == "HL1E"
    assert applicable_rule(classify(7)) == "FL7"
    assert applicable_rule(classify(2203)) == "HL3E"
    assert applicable_rule(classify(919)) == "HL9O"
    assert applicable_rule(classify(11)) is None


def test_check_601_golden_row():
    prof = classify(601)
    hist = DigitHistogram(dict(golden_rows(1))[601])
    report = check_histogram(prof, hist)
    assert report.rule == "HL1E"
    assert report.hard_passed and report.strong_passed
    assert report.details == ()
    assert set(report.soft_outcomes) == {"max_group", "min_group"}


def test_check_2203_pair36_is_m_plus_1():
    # m = 220 and the (3,6) pair sums to 221: the off-by-one pair
    prof = classify(2203)
    counts = dict(golden_rows(3))[2203]
    assert counts[3] + counts[6] == 221 == 2203 // 10 + 1
    report = check_histogram(prof, DigitHistogram(counts))
    assert report.hard_passed and report.strong_passed


def test_check_perturbed_601_fails_hard():
    prof = classify(601)
    counts = list(dict(golden_rows(1))[601])
    counts[0] += 1
    report = check_histogram(prof, DigitHistogram(tuple(counts)))
    assert not report.hard_passed
    assert not report.strong_passed
    assert any("period" in d for d in report.details)
    assert any("f0_f9" in d for d in report.details)


def test_check_rejects_other_class():
    with pytest.raises(ValueError):
        check_histogram(classify(11), histogram(ReciprocalSpec.for_prime(11)))


def test_full_length_closed_forms_small():
    # expected counts re-derived from the closed forms, data from the oracle
    cases = {
        7: (0, 1, 1, 0, 1, 1, 0, 1, 1, 0),
        19: (1, 2, 2, 2, 2, 2, 2, 2, 2, 1),
        23: (2, 2, 2, 3, 2, 2, 3, 2, 2, 2),
        61: (6, 6, 6, 6, 6, 6, 6, 6, 6, 6),
    }
    for p, expected in cases.items():
        assert _oracle_hist(p).counts == expected
        report = check_histogram(classify(p), _oracle_hist(p))
        assert report.rule == f"FL{p % 10}"
        assert report.hard_passed


def test_extremal_checks_skipped_for_tiny_primes():
    # p = 3 is HL3E with a one-digit period; unique-max/min would be vacuous
    report = check_histogram(classify(3), histogram(ReciprocalSpec.for_prime(3)))
    assert report.hard_passed and report.strong_passed
    report = check_histogram(classify(13), histogram(ReciprocalSpec.for_prime(13)))
    assert report.rule == "HL3O"
    assert report.hard_passed and report.strong_passed


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([p for p in sieve_primes(20_000) if p not in (2, 5)]))
def test_rules_hold_on_real_histograms(p):
    prof = classify(p)
    rule = applicable_rule(prof)
    if rule is None:
        return
    report = check_histogram(prof, histogram(ReciprocalSpec.for_prime(p)))
    assert report.hard_passed, report.details
    assert report.strong_passed, report.details


FULL_OR_HALF = [p for p in sieve_primes(20_000)
                if p not in (2, 5) and ReciprocalSpec.for_prime(p).cofactor in (1, 2)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FULL_OR_HALF), st.data())
def test_hard_verdict_is_the_cache_verdict(p, data):
    spec = ReciprocalSpec.for_prime(p)
    counts = list(histogram(spec).counts)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
        # a lone move from a to b, or with the mirrored move that keeps the
        # counts mirrored, or with the one that keeps their pair sums
        moves = data.draw(st.sampled_from([[(a, b)], [(a, b), (9 - a, 9 - b)],
                                           [(a, b), (9 - b, 9 - a)]]))
        # two moves from one digit can leave it negative; assume() drops that below
        k = data.draw(st.integers(0, max(0, min(counts[src] for src, _ in moves))))
        for src, dst in moves:
            counts[src] -= k
            counts[dst] += k
    assume(min(counts) >= 0)
    report = check_histogram(spec, DigitHistogram(tuple(counts)))
    try:
        CacheRecord(p, spec.l, spec.period, tuple(counts))
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert report.hard_passed == accepted, report.details


def test_verify_range_small(session_cache):
    summary = verify_range(1000, cache=session_cache)
    assert summary.limit == 1000
    assert summary.hard_failures == 0
    assert summary.strong_failures == 0
    assert summary.violations == []
    assert set(summary.rules) == set(RULE_IDS)
    # primes <= 1000 excluding 2, 5: 166, of which 52 are neither full nor half
    assert sum(st.checked for st in summary.rules.values()) == 114
    assert summary.rules["FL7"].checked == 16
    assert summary.rules["HL1E"].checked == 4  # 401, 601, 761, 881


def test_verify_range_ten():
    summary = verify_range(10)
    assert summary.hard_failures == 0
    assert sum(st.checked for st in summary.rules.values()) == 2  # 3 and 7
    assert summary.rules["FL7"].checked == 1
    assert summary.rules["HL3E"].checked == 1


def test_verify_range_two():
    summary = verify_range(2)
    assert all(st.checked == 0 for st in summary.rules.values())
    assert summary.violations == []


def test_verify_range_soft_rates(session_cache):
    summary = verify_range(5000, cache=session_cache)
    st_ = summary.rules["HL1E"]
    assert st_.soft_checked["max_group"] == st_.checked
    assert 0 <= st_.soft_passed["max_group"] <= st_.soft_checked["max_group"]
    # soft outcomes never appear in violations
    assert summary.hard_failures == 0 and summary.strong_failures == 0


def test_verify_range_tallies_equal_per_record_reports(tmp_path):
    # the HL1E and HL9E records with p = 1 (mod 3) moved off their equal groups:
    # f(1) and f(8) down one, f(2) and f(7) up one keeps the sum and the mirror,
    # so the cache loads them
    path = tmp_path / "c.csv"
    lines = []
    for rec in batch_records(census_primes(3000)):
        counts = list(rec.counts)
        if applicable_rule(rec) in ("HL1E", "HL9E") and counts[1] and rec.p % 3 == 1:
            counts[1] -= 1
            counts[8] -= 1
            counts[2] += 1
            counts[7] += 1
        lines.append(CacheRecord(rec.p, rec.l, rec.period, tuple(counts)).to_line())
    path.write_text("".join(f"{line}\n" for line in [CACHE_HEADER, *lines]))
    with ResultCache(path) as cache:
        summary = verify_range(3000, cache=cache)
        records = [cache.lookup(p) for p in census_primes(3000)]
    reports = [check_histogram(rec, rec) for rec in records if rec.cofactor in (1, 2)]
    tallies = {rule: [0, 0, 0, {}, {}] for rule in RULE_IDS}
    for report in reports:
        t = tallies[report.rule]
        t[0] += 1
        t[1] += not report.hard_passed
        t[2] += not report.strong_passed
        for name, ok in report.soft_outcomes.items():
            t[3][name] = t[3].get(name, 0) + ok
            t[4][name] = t[4].get(name, 0) + 1
    failing = [r for r in reports if not (r.hard_passed and r.strong_passed)]
    assert {r.rule for r in failing} == {"HL1E", "HL9E"}
    assert summary.rules == {rule: RuleStats(*t) for rule, t in tallies.items()}
    assert summary.violations == failing


# One perturbed real histogram per sub-check kind; the failure details are the
# text `verify json` prints for a violation, so they are pinned byte for byte.
PERTURBED = [
    pytest.param(
        601, {0: +1}, "HL1E", False, False,
        ("hard period: counts sum to 301, period is 300",
         "strong f0_f9: f(0)=36 f(9)=35"),
        {"max_group": True, "min_group": True},
        id="period_total-equal_group",
    ),
    pytest.param(
        17, {1: +1, 2: -1}, "FL7", False, True,
        ("hard period: full length, but counts (1, 3, 1, 1, 2, 2, 1, 2, 2, 1) "
         "are not N_p = (1, 2, 2, 1, 2, 2, 1, 2, 2, 1)",),
        {},
        id="closed_form",
    ),
    pytest.param(
        911, {0: -12, 5: +12}, "HL1O", False, False,
        ("hard period: period 455 = (p-1)/2 is odd, but counts "
         "(46, 47, 50, 44, 44, 59, 47, 41, 44, 33) do not complement to "
         "N_p = (91, 91, 91, 91, 91, 91, 91, 91, 91, 91)",
         "strong f1_f5_f6: f(1)=47 f(5)=59 f(6)=47",
         "strong max_in_02: max digits [5]"),
        {},
        id="comp_sums-extreme_in",
    ),
    pytest.param(
        5413, {4: +30, 1: -30}, "HL3O", False, True,
        ("hard period: period 2706 is even, but counts "
         "(278, 237, 282, 267, 289, 259, 267, 282, 267, 278) are not mirrored",),
        {"max_pair": False, "min_pair": True},
        id="mirror-soft_extreme_in",
    ),
    pytest.param(
        2203, {4: +26, 1: -26}, "HL3E", False, False,
        ("hard period: period 1101 = (p-1)/2 is odd, but counts "
         "(110, 75, 119, 127, 127, 119, 94, 101, 119, 110) do not complement to "
         "N_p = (220, 220, 220, 221, 220, 220, 221, 220, 220, 220)",
         "strong f1_f4_f7: f(1)=75 f(4)=127 f(7)=101",
         "strong max_is_3: max digits [3, 4] (tie)",
         "strong min_is_6: min digits [1]"),
        {},
        id="extreme_unique",
    ),
]


@pytest.mark.parametrize("p, delta, rule, hard, strong, details, soft", PERTURBED)
def test_failure_details_are_pinned(p, delta, rule, hard, strong, details, soft):
    counts = list(histogram(ReciprocalSpec.for_prime(p)).counts)
    for d, change in delta.items():
        counts[d] += change
    report = check_histogram(classify(p), DigitHistogram(tuple(counts)))
    assert (report.rule, report.hard_passed, report.strong_passed) == (rule, hard, strong)
    assert report.details == details
    assert report.soft_outcomes == soft

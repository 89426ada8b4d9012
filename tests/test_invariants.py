from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dseq.census import batch_records, census_primes, classify
from dseq.invariants import (
    _RULE_BY_KEY,
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
    _broken_period,
    histogram,
    long_division_digits,
)
from dseq.store import CACHE_HEADER, CacheCorruptionError, CacheRecord, ResultCache

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
    assert applicable_rule(prof) == "HL1E"
    assert _broken_period(601, prof.period, hist.counts) is None
    assert set(check_histogram(prof, hist)) == {"max_group", "min_group"}


def test_check_2203_pair36_is_m_plus_1():
    # m = 220 and the (3,6) pair sums to 221: the off-by-one pair
    prof = classify(2203)
    counts = dict(golden_rows(3))[2203]
    assert counts[3] + counts[6] == 221 == 2203 // 10 + 1
    assert _broken_period(2203, prof.period, counts) is None


def test_check_perturbed_601_fails_hard():
    prof = classify(601)
    counts = list(dict(golden_rows(1))[601])
    counts[0] += 1
    broken = _broken_period(601, prof.period, tuple(counts))
    assert broken == "counts sum to 301, period is 300"


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
        prof = classify(p)
        assert applicable_rule(prof) == f"FL{p % 10}"
        assert _broken_period(p, prof.period, expected) is None


def test_extremal_checks_skipped_for_tiny_primes():
    # p = 3 is HL3E with a one-digit period: no soft check runs on it, and the
    # class-number shape, which fixes the extremes of HL3E, holds only for p > 3
    hist = histogram(ReciprocalSpec.for_prime(3))
    assert _broken_period(3, 1, hist.counts) is None
    assert check_histogram(classify(3), hist) == {}
    assert applicable_rule(classify(13)) == "HL3O"
    assert _broken_period(13, 6, histogram(ReciprocalSpec.for_prime(13)).counts) is None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([p for p in sieve_primes(20_000) if p not in (2, 5)]))
def test_rules_hold_on_real_histograms(p):
    prof = classify(p)
    rule = applicable_rule(prof)
    if rule is None:
        return
    broken = _broken_period(p, prof.period, histogram(ReciprocalSpec.for_prime(p)).counts)
    assert broken is None, broken


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
    broken = _broken_period(p, spec.period, tuple(counts))
    try:
        CacheRecord(p, spec.l, spec.period, tuple(counts))
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert (broken is None) == accepted, broken


def test_verify_range_small(session_cache):
    summary = verify_range(1000, cache=session_cache)
    assert summary.limit == 1000
    assert set(summary.rules) == set(RULE_IDS)
    # primes <= 1000 excluding 2, 5: 166, of which 52 are neither full nor half
    assert sum(st.checked for st in summary.rules.values()) == 114
    assert summary.rules["FL7"].checked == 16
    assert summary.rules["HL1E"].checked == 4  # 401, 601, 761, 881


def test_verify_range_ten():
    summary = verify_range(10)
    assert sum(st.checked for st in summary.rules.values()) == 2  # 3 and 7
    assert summary.rules["FL7"].checked == 1
    assert summary.rules["HL3E"].checked == 1


def test_verify_range_two():
    summary = verify_range(2)
    assert all(st == RuleStats(0, {}) for st in summary.rules.values())


def test_verify_range_soft_rates(session_cache):
    summary = verify_range(5000, cache=session_cache)
    st_ = summary.rules["HL1E"]
    assert st_.checked > 0
    assert 0 <= st_.soft_passed["max_group"] <= st_.checked


def test_verify_range_tallies_equal_per_record_reports(tmp_path, session_cache):
    # the HL1E and HL9E records with p = 1 (mod 3) moved off their equal groups:
    # f(1) and f(8) down one, f(2) and f(7) up one keeps the sum and the mirror,
    # but breaks f(1) = f(2) = f(4), so the cache refuses the first of them
    path = tmp_path / "c.csv"
    lines, first = [], None
    for rec in batch_records(census_primes(3000)):
        counts = list(rec.counts)
        if applicable_rule(rec) in ("HL1E", "HL9E") and counts[1] and rec.p % 3 == 1:
            counts[1] -= 1
            counts[8] -= 1
            counts[2] += 1
            counts[7] += 1
            first = first or (len(lines) + 2, rec.p)  # its line, after the header
        lines.append(",".join(map(str, (rec.p, rec.l, rec.period, rec.cofactor, *counts))))
    path.write_text("".join(f"{line}\n" for line in [CACHE_HEADER, *lines]))
    with pytest.raises(CacheCorruptionError,
                       match=rf"c.csv:{first[0]}: record for {first[1]}: .*not equal"):
        ResultCache(path)
    # on real records, verify tallies what check_histogram reports record by record
    summary = verify_range(3000, cache=session_cache)
    records = batch_records(census_primes(3000), cache=session_cache, keys=_RULE_BY_KEY)
    tallies = {rule: [0, {}] for rule in RULE_IDS}
    for rec in records:
        assert _broken_period(rec.p, rec.period, rec.counts) is None
        t = tallies[applicable_rule(rec)]
        t[0] += 1
        for name, ok in check_histogram(rec, rec).items():
            t[1][name] = t[1].get(name, 0) + ok
    assert summary.rules == {rule: RuleStats(*t) for rule, t in tallies.items()}


# One perturbed real histogram per kind of failure; the details are the record
# check's text, which the cache also gives when it refuses such a record, so
# they are pinned byte for byte, with the soft outcomes of the same counts.
PERTURBED = [
    pytest.param(
        601, {0: +1}, "HL1E",
        "counts sum to 301, period is 300",
        {"max_group": True, "min_group": True},
        id="period_total-equal_group",
    ),
    pytest.param(
        17, {1: +1, 2: -1}, "FL7",
        ("full length, but counts (1, 3, 1, 1, 2, 2, 1, 2, 2, 1) "
         "are not N_p = (1, 2, 2, 1, 2, 2, 1, 2, 2, 1)"),
        {},
        id="closed_form",
    ),
    pytest.param(
        911, {0: -12, 5: +12}, "HL1O",
        ("period 455 = (p-1)/2 is odd, but counts "
         "(46, 47, 50, 44, 44, 59, 47, 41, 44, 33) do not complement to "
         "N_p = (91, 91, 91, 91, 91, 91, 91, 91, 91, 91)"),
        {},
        id="comp_sums-extreme_in",
    ),
    pytest.param(
        5413, {4: +30, 1: -30}, "HL3O",
        ("period 2706 is even, but counts "
         "(278, 237, 282, 267, 289, 259, 267, 282, 267, 278) are not mirrored"),
        {"max_pair": False, "min_pair": True},
        id="mirror-soft_extreme_in",
    ),
    pytest.param(
        2203, {4: +26, 1: -26}, "HL3E",
        ("period 1101 = (p-1)/2 is odd, but counts "
         "(110, 75, 119, 127, 127, 119, 94, 101, 119, 110) do not complement to "
         "N_p = (220, 220, 220, 221, 220, 220, 221, 220, 220, 220)"),
        {},
        id="extreme_unique",
    ),
    pytest.param(
        601, {1: -1, 8: -1, 2: +1, 7: +1}, "HL1E",
        ("period 300 = (p-1)/2 is even and p ends in 1, "
         "but f(1), f(2), f(4) = 27, 29, 28 are not equal"),
        {"max_group": True, "min_group": True},
        id="times_two_square",
    ),
    pytest.param(
        13, {0: -1, 9: -1, 1: +1, 8: +1}, "HL3O",
        ("period 6 = (p-1)/2 is even and p ends in 3, "
         "but counts (0, 1, 1, 1, 0, 0, 1, 1, 1, 0) do not have "
         "f(2) + f(4) = 1 and 2f(0) + f(1) + f(4) = 2"),
        {"max_pair": False, "min_pair": False},
        id="times_two_non_square",
    ),
    pytest.param(
        67, {3: -1, 1: +1, 6: +1, 8: -1}, "HL7E",
        ("period 33 = (p-1)/2 is odd, but 8f - 4N_p on digits 0-4 "
         "is (0, -4, 12, 16, -12), not (0, 6h-g, -6h+g, 6h+g, 6h-g)"),
        {},
        id="class_number_shape",
    ),
    pytest.param(
        31, {0: -2, 9: +2}, "HL1O",
        ("period 15 = (p-1)/2 is odd, and 8f - 4N_p on digits 0-4 "
         "is (4h-2g, g, 3g, -g, -g) with h = -1 and g = 4, "
         "but not with h >= 1 and g >= 2"),
        {},
        id="class_number_bounds",
    ),
]


@pytest.mark.parametrize("p, delta, rule, details, soft", PERTURBED)
def test_failure_details_are_pinned(p, delta, rule, details, soft):
    counts = list(histogram(ReciprocalSpec.for_prime(p)).counts)
    for d, change in delta.items():
        counts[d] += change
    prof = classify(p)
    assert applicable_rule(prof) == rule
    assert _broken_period(p, prof.period, tuple(counts)) == details
    assert check_histogram(prof, DigitHistogram(tuple(counts))) == soft

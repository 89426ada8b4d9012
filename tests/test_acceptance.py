"""End-to-end acceptance checks for the whole package.

Each test prints one [acceptance] verdict line that stays visible under
pytest's output capture, then asserts.  The session cache is shared so
later criteria reuse records computed by earlier ones, which is part of
the intended workflow (compute once, analyze many times).
"""
import time
from collections import Counter

from dseq.census import (
    EVEN,
    batch_records,
    census_primes,
    classify,
    global_digit_census,
    third_digit_parity_scan,
)
from dseq.cli import main
from dseq.invariants import _RULE_BY_KEY, check_histogram, verify_range
from dseq.sequence import (
    DigitHistogram,
    ReciprocalSpec,
    digit_prefix,
    long_division_digits,
)
from dseq.tables import table_rows

from conftest import golden_rows


def _verdict(capsys, num, name, ok, elapsed=None, note=""):
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    extra = f" -- {note}" if note and not ok else ""
    with capsys.disabled():
        print(f"[acceptance] {num}. {name}: {'PASS' if ok else 'FAIL'}{stamp}{extra}")


def test_criterion_1_table_reproduction(session_cache, capsys):
    t0 = time.perf_counter()
    mismatched = []
    for n in range(1, 9):
        rows = table_rows(n, cache=session_cache)
        if [(r.p, r.counts) for r in rows] != golden_rows(n):
            mismatched.append(n)
    elapsed = time.perf_counter() - t0
    ok = not mismatched and elapsed < 60
    _verdict(capsys, 1, "table reproduction (200 rows, bit-exact)", ok, elapsed,
             f"mismatched tables: {mismatched}")
    assert not mismatched
    assert elapsed < 60


def test_criterion_2_digit_zero_dominance(session_cache, capsys):
    t0 = time.perf_counter()
    hist = global_digit_census(100_000, cache=session_cache)
    elapsed = time.perf_counter() - t0
    dominant = all(hist.counts[0] > hist.counts[d] for d in range(1, 10))
    ok = dominant and elapsed < 120
    _verdict(capsys, 2, "digit-0 dominance in census to 1e5", ok, elapsed,
             f"counts: {hist.counts}")
    assert dominant, hist.counts
    assert elapsed < 120


def test_criterion_3_invariants_clean_to_1e5(session_cache, capsys):
    t0 = time.perf_counter()
    summary = verify_range(100_000, jobs=4, cache=session_cache)
    records = batch_records(census_primes(100_000), cache=session_cache, keys=_RULE_BY_KEY)
    broken = [(r.p, r.rule) for r in (check_histogram(rec, rec) for rec in records)
              if not r.hard_passed]
    elapsed = time.perf_counter() - t0
    checked = sum(st.checked for st in summary.rules.values())
    ok = not broken and checked == len(records) and elapsed < 300
    _verdict(capsys, 3, "verify 1e5: every record obeys its rule", ok, elapsed,
             f"broken: {broken}")
    assert not broken
    assert checked == len(records) == 6301
    assert elapsed < 300


def test_criterion_4_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    bad = []
    for p in census_primes(10_000):
        spec = ReciprocalSpec.for_prime(p)
        n = min(spec.period, 10_000)
        if list(digit_prefix(spec, n)) != long_division_digits(p, n):
            bad.append(p)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30
    _verdict(capsys, 4, "formula = long division for all p <= 1e4", ok, elapsed,
             f"disagreeing primes: {bad[:5]}")
    assert not bad
    assert elapsed < 30


def _expected_full_counts(p: int) -> tuple[int, ...]:
    lsd = p % 10
    base, bumped, delta = {
        1: ((p - 1) // 10, (), 0),
        3: ((p - 3) // 10, (3, 6), 1),
        7: ((p + 3) // 10, (0, 3, 6, 9), -1),
        9: ((p + 1) // 10, (0, 9), -1),
    }[lsd]
    counts = [base] * 10
    for d in bumped:
        counts[d] += delta
    return tuple(counts)


def test_criterion_5_full_length_closed_forms(session_cache, capsys):
    t0 = time.perf_counter()
    # anchors, straight from the long-division oracle
    anchors_ok = True
    for p, expected in ((7, (0, 1, 1, 0, 1, 1, 0, 1, 1, 0)),
                        (19, (1, 2, 2, 2, 2, 2, 2, 2, 2, 1))):
        spec = ReciprocalSpec.for_prime(p)
        c = Counter(long_division_digits(p, spec.period))
        observed = tuple(c.get(d, 0) for d in range(10))
        anchors_ok &= observed == expected == _expected_full_counts(p)
    # every full-length prime up to 1e5
    full = [p for p in census_primes(100_000) if classify(p).cofactor == 1]
    records = batch_records(full, cache=session_cache)
    bad = [r.p for r in records if r.counts != _expected_full_counts(r.p)]
    elapsed = time.perf_counter() - t0
    ok = anchors_ok and not bad
    _verdict(capsys, 5, f"closed forms for {len(full)} full-length primes", ok,
             elapsed, f"anchors_ok={anchors_ok}, bad: {bad[:5]}")
    assert anchors_ok
    assert not bad


def test_criterion_6_parity_scan(session_cache, capsys):
    t0 = time.perf_counter()
    report = third_digit_parity_scan(100_000, cache=session_cache)
    elapsed = time.perf_counter() - t0
    non_singleton = [k for k, cell in report.entries.items()
                     if len(cell.parities) != 1]
    broken_alternation = []
    for (lsd, b), cell in report.entries.items():
        nxt = report.entries.get((lsd, b + 2))
        if nxt is not None and nxt.parities == cell.parities:
            broken_alternation.append((lsd, b))
    ok = not non_singleton and not broken_alternation and elapsed < 60
    _verdict(capsys, 6, "third-digit parity: singletons, alternating", ok, elapsed,
             f"non-singleton: {non_singleton}, broken: {broken_alternation}")
    assert not non_singleton
    assert not broken_alternation
    assert elapsed < 60


def test_criterion_7_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "c.csv"
    runs = {
        "jobs1": ["verify", "10000", "json", "--no-cache", "--jobs", "1"],
        "jobs8": ["verify", "10000", "json", "--no-cache", "--jobs", "8"],
        "cache-cold": ["verify", "10000", "json", "--cache", str(cache)],
        "cache-warm": ["verify", "10000", "json", "--cache", str(cache)],
    }
    outs = {}
    for name, argv in runs.items():
        code = main(argv)
        outs[name] = (code, capsys.readouterr().out)
    distinct = len(set(outs.values()))
    ok = distinct == 1 and outs["jobs1"][0] == 0
    _verdict(capsys, 7, "verify output independent of jobs and cache", ok,
             note=f"{distinct} distinct outputs")
    assert distinct == 1, {k: v[0] for k, v in outs.items()}
    assert outs["jobs1"][0] == 0

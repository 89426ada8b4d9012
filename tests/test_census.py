import os
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseq.census import (
    EVEN,
    FULL,
    HALF,
    ODD,
    OTHER,
    ClassKey,
    batch_records,
    census_primes,
    class_census,
    classify,
    global_digit_census,
    third_digit_parity_scan,
)
from dseq.cli import main
from dseq.invariants import _RULE_BY_KEY, verify_range
from dseq.numtheory import multiplicative_order
from dseq.sequence import _K_PARITY, DigitHistogram, ReciprocalSpec, histogram
from dseq.tables import table_rows

from conftest import golden_rows


def test_class_key_validates():
    ClassKey(1, EVEN, HALF)
    with pytest.raises(ValueError):
        ClassKey(2, EVEN, HALF)
    with pytest.raises(ValueError):
        ClassKey(1, "sideways", HALF)
    with pytest.raises(ValueError):
        ClassKey(1, EVEN, "short")


def test_classify_examples():
    prof = classify(601)
    assert (prof.l, prof.period, prof.cofactor) == (9, 300, 2)
    assert prof.key == ClassKey(1, EVEN, HALF)

    prof = classify(7)  # m = 0, an even tens digit
    assert prof.key == ClassKey(7, EVEN, FULL)
    assert prof.cofactor == 1

    prof = classify(919)
    assert prof.key == ClassKey(9, ODD, HALF)

    with pytest.raises(ValueError):
        classify(4)
    with pytest.raises(ValueError):
        classify(5)


def test_classify_from_cache_matches_computed(tmp_path):
    from dseq.store import ResultCache

    primes = census_primes(2000)
    with ResultCache(tmp_path / "c.csv") as cache:
        batch_records(primes, cache=cache)
        assert [classify(p, cache=cache) for p in primes] == [classify(p) for p in primes]


def test_classify_length_classes():
    assert classify(3).key.length_class == HALF  # period 1 = (3-1)/2
    assert classify(7).key.length_class == FULL
    assert classify(13).key.length_class == HALF  # period 6
    assert classify(11).key.length_class == OTHER  # period 2, cofactor 5
    assert classify(31).key.length_class == HALF  # period 15
    assert classify(37).key.length_class == OTHER  # period 3, cofactor 12


def test_census_primes():
    assert census_primes(10) == [3, 7]
    assert census_primes(2) == []
    assert 2 not in census_primes(100) and 5 not in census_primes(100)


def test_batch_records_orders_and_caches(tmp_path):
    from dseq.store import ResultCache

    primes = [13, 3, 7]
    with ResultCache(tmp_path / "c.csv") as cache:
        recs = batch_records(primes, cache=cache)
        assert [r.p for r in recs] == primes  # input order, not sorted
        assert len(cache) == 3
        again = batch_records(primes, jobs=2, cache=cache)
        assert again == recs
    assert batch_records(primes) == recs  # no cache, same values


@pytest.mark.parametrize("jobs, cpus, primes, size", [
    (64, 4, [7, 11, 13, 17, 19, 23], 4),  # clamped to the CPUs it may use
    (64, 4, [7, 11, 13], 3),  # clamped to the primes to compute
    (3, 8, [7, 11, 13, 17], 3),  # the asked-for size when it fits
    (64, None, [7, 11, 13], None),  # no affinity mask, unknown core count: one, so no pool
    (64, 4, [7], None),  # one prime: no pool
])
def test_batch_records_bounds_the_pool(monkeypatch, jobs, cpus, primes, size):
    import multiprocessing  # census imports it only to start a pool
    import os

    asked = []

    class RecordingPool:
        """Records the size it was asked for and maps in-process."""

        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def imap(self, fn, items):
            return map(fn, items)

    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    recs = batch_records(primes, jobs=jobs)
    assert asked == ([] if size is None else [size])
    assert recs == batch_records(primes)


@pytest.mark.parametrize("keys", [
    None, set(), {ClassKey(3, EVEN, HALF)}, {ClassKey(7, ODD, OTHER)}, _RULE_BY_KEY,
], ids=["none", "empty", "half", "other", "rules"])
def test_keys_only_filter_the_records(monkeypatch, tmp_path, keys):
    from dseq.store import CACHE_HEADER, ResultCache

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    primes = census_primes(3000)
    everything = batch_records(primes)
    expected = [r for r in everything if keys is None or r.key in keys]
    full = tmp_path / "full.csv"
    with ResultCache(full) as cache:
        batch_records(primes, cache=cache)
    cold_bytes = []
    for jobs in (1, 2):
        assert batch_records(primes, jobs=jobs, keys=keys) == expected
        cold = tmp_path / f"cold{jobs}.csv"
        with ResultCache(cold) as cache:
            assert batch_records(primes, jobs=jobs, cache=cache, keys=keys) == expected
        # the cache holds exactly the kept misses, ascending
        cold_bytes.append(cold.read_bytes() if cold.exists() else b"")
        lines = [CACHE_HEADER, *(r.to_line() for r in expected)] if expected else []
        assert cold_bytes[-1] == "".join(f"{line}\n" for line in lines).encode()
        # warm: on the cache just built, and on one that holds every prime
        warm = tmp_path / f"warm{jobs}.csv"
        warm.write_bytes(full.read_bytes())
        for path, content in ((cold, cold_bytes[-1]), (warm, full.read_bytes())):
            with ResultCache(path) as cache:
                assert batch_records(primes, jobs=jobs, cache=cache, keys=keys) == expected
            assert (path.read_bytes() if path.exists() else b"") == content
    assert cold_bytes[0] == cold_bytes[1]


def test_no_pool_when_pinned_to_one_cpu(monkeypatch):
    # the affinity mask bounds the pool, not the machine's core count
    import multiprocessing
    import os

    def no_pool(processes):
        raise AssertionError(f"started a pool of {processes}")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    primes = census_primes(3000)
    assert batch_records(primes, jobs=2) == batch_records(primes)


def test_no_miller_rabin_below_a_sieved_limit(monkeypatch):
    # census_primes grows the process sieve; classifying and counting its
    # primes then reads primality from it, for p and the factors of p - 1
    from dseq import numtheory

    def unexpected(n):
        raise AssertionError(f"Miller-Rabin on {n}")

    monkeypatch.setattr(numtheory, "_sieve", bytearray())
    primes = census_primes(20_000)[-40:]
    monkeypatch.setattr(numtheory, "_miller_rabin", unexpected)
    assert [rec.p for rec in batch_records(primes)] == primes
    assert [classify(p).p for p in primes] == primes


@pytest.mark.parametrize("run", [
    lambda jobs: verify_range(3000, jobs=jobs),  # primes and the class keys to keep
    lambda jobs: main(["figure", "3000", "csv", "--no-cache", "--jobs", str(jobs)]),  # primes
], ids=["verify_range", "figure"])
def test_pool_works_under_spawn(monkeypatch, capsys, run):
    # a spawned worker imports dseq afresh and unpickles the task and its chunk
    import multiprocessing
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    pooled = run(2), capsys.readouterr().out
    assert pooled == (run(1), capsys.readouterr().out)


@pytest.mark.parametrize("run", [
    lambda: verify_range(2000),
    lambda: main(["census", "2000", "--lsd", "7", "--parity", "odd", "--length", "half",
                  "--no-cache"]),
    lambda: table_rows(1),
], ids=["verify_range", "census", "table_rows"])
def test_each_order_computed_once(monkeypatch, capsys, run):
    # a miss is classified once; the counting stage reuses its period
    orders = Counter()

    def counted(a, m):
        orders[m] += 1
        return multiplicative_order(a, m)

    for name, module in list(sys.modules.items()):
        if name.startswith("dseq") and getattr(module, "multiplicative_order", None) \
                is multiplicative_order:
            monkeypatch.setattr(module, "multiplicative_order", counted)
    run()
    assert orders and max(orders.values()) == 1


def test_class_census_matches_golden_rows(session_cache):
    rows = class_census([601, 3001], ClassKey(1, EVEN, HALF), cache=session_cache)
    expected = golden_rows(1)[:2]
    assert [(r.p, r.counts) for r in rows] == expected


def test_class_census_rejects_mismatch():
    with pytest.raises(ValueError) as exc:
        class_census([601, 7], ClassKey(1, EVEN, HALF))
    assert "7" in str(exc.value)


def test_class_census_empty():
    assert class_census([], ClassKey(1, EVEN, HALF)) == []


def test_global_census_examples():
    hist = global_digit_census(10)
    assert hist.counts == (0, 1, 1, 1, 1, 1, 0, 1, 1, 0)
    assert global_digit_census(2).counts == (0,) * 10
    with pytest.raises(ValueError):
        global_digit_census(1)


def test_global_census_excluding_other():
    # primes <= 12: 3 (half), 7 (full), 11 (other: period 2)
    full_half = global_digit_census(12, include_other=False)
    assert full_half.counts == (0, 1, 1, 1, 1, 1, 0, 1, 1, 0)
    with_other = global_digit_census(12)
    assert with_other.counts == (1, 1, 1, 1, 1, 1, 0, 1, 1, 1)  # adds 0 and 9


def test_global_census_is_sum_of_histograms(session_cache):
    limit = 1000
    expected = (0,) * 10
    for p in census_primes(limit):
        counts = histogram(ReciprocalSpec.for_prime(p)).counts
        expected = tuple(a + b for a, b in zip(expected, counts))
    assert global_digit_census(limit, cache=session_cache) == DigitHistogram(expected)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 1500))
def test_census_total_is_period_sum(limit):
    hist = global_digit_census(limit)
    assert hist.total == sum(
        ReciprocalSpec.for_prime(p).period for p in census_primes(limit))


def test_partition_by_class(session_cache):
    # every census prime lands in exactly one class census
    limit = 500
    primes = census_primes(limit)
    seen: list[int] = []
    for lsd in (1, 3, 7, 9):
        for parity in (EVEN, ODD):
            for length in (FULL, HALF, OTHER):
                key = ClassKey(lsd, parity, length)
                members = [p for p in primes
                           if classify(p, cache=session_cache).key == key]
                rows = class_census(members, key, cache=session_cache)
                assert [r.p for r in rows] == members
                seen.extend(members)
    assert sorted(seen) == primes


def test_parity_scan_examples(session_cache):
    report = third_digit_parity_scan(1000, cache=session_cache)
    assert report.limit == 1000
    cell = report.entries[(1, 0)]  # witnesses 401 and 601; 101 is not half-length
    assert cell.parities == (EVEN,)
    assert cell.count == 2
    with pytest.raises(ValueError):
        third_digit_parity_scan(99)


@pytest.mark.parametrize("limit, cells", [(1000, 30), (100_000, 40)])
def test_parity_scan_cells_follow_p_mod_40(session_cache, limit, cells):
    # k = 2 is even, so 10 is a square mod p; p mod 40 decides that, and the
    # hundreds digit h adds 20h to p mod 40 (see third_digit_parity_scan)
    squares = {r for r in range(40) if _K_PARITY[r] == 0}
    # the table by Euler's criterion
    assert squares == {p % 40 for p in census_primes(1000) if pow(10, (p - 1) // 2, p) == 1}
    report = third_digit_parity_scan(limit, cache=session_cache)
    assert len(report.entries) == cells
    for (lsd, tens), cell in report.entries.items():
        assert cell.parities == ((EVEN,) if (10 * tens + lsd) % 40 in squares else (ODD,))
    # the scan reads each cell's parity from the table: every half-length prime bears it out
    for p in census_primes(limit):
        if p >= 100 and classify(p, cache=session_cache).cofactor == 2:
            assert report.entries[(p % 10, p // 10 % 10)].parities == ((EVEN, ODD)[p // 100 % 2],)


def test_parity_scan_counts_only_half_length(session_cache):
    report = third_digit_parity_scan(200, cache=session_cache)
    total = sum(cell.count for cell in report.entries.values())
    half = [p for p in census_primes(200)
            if p >= 100 and classify(p).key.length_class == HALF]
    assert total == len(half)

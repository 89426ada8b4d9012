import functools
import logging
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dseq import counting, numtheory
from dseq.census import batch_records, census_primes
from dseq.numtheory import prime_mask, sieve_primes
from dseq.sequence import (
    EVEN,
    HALF,
    ClassKey,
    DigitHistogram,
    ReciprocalSpec,
    _full_length_counts,
    histogram,
    long_division_digits,
)
from dseq.store import CACHE_HEADER, CacheCorruptionError, CacheRecord, ResultCache


def _record(p: int) -> CacheRecord:
    spec = ReciprocalSpec.for_prime(p)
    return CacheRecord(p, spec.l, spec.period, histogram(spec).counts)


REC_601 = _record(601)
REC_7 = _record(7)


def test_record_validates():
    assert REC_601.counts == (35, 28, 28, 31, 28, 28, 31, 28, 28, 35)
    assert (REC_601.cofactor, REC_601.key) == (2, ClassKey(1, EVEN, HALF))
    with pytest.raises(ValueError):  # counts sum != period
        CacheRecord(601, 9, 300, (34, 28, 28, 31, 28, 28, 31, 28, 28, 35))
    with pytest.raises(ValueError):  # period does not divide p - 1
        CacheRecord(601, 9, 7, (1, 1, 1, 1, 1, 1, 1, 0, 0, 0))
    with pytest.raises(ValueError):  # the stored cofactor disagrees: 3 * 300 != 600
        CacheRecord.from_line("601,9,300,3,35,28,28,31,28,28,31,28,28,35")
    with pytest.raises(ValueError):  # wrong multiplier for a prime ending in 1
        CacheRecord(601, 3, 300, REC_601.counts)
    with pytest.raises(ValueError):  # not prime
        CacheRecord(91, 9, 6, (2, 1, 0, 1, 0, 1, 0, 1, 0, 0))
    big = 2147483659  # the least prime above PRIME_CAP, as a consistent full-length record
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        CacheRecord(big, 1, big - 1, _full_length_counts(big))


def test_line_round_trip():
    line = REC_601.to_line()
    assert line == "601,9,300,2,35,28,28,31,28,28,31,28,28,35"
    assert CacheRecord.from_line(line) == REC_601
    with pytest.raises(ValueError):
        CacheRecord.from_line("601,9,300")
    with pytest.raises(ValueError):
        CacheRecord.from_line(line + ",1")


@pytest.mark.parametrize("make, field", [
    (lambda: ReciprocalSpec(601, 9, 300), "p"),
    (lambda: CacheRecord(601, 9, 300, (35, 28, 28, 31, 28, 28, 31, 28, 28, 35)), "counts"),
    (lambda: ClassKey(1, EVEN, HALF), "lsd"),
    (lambda: DigitHistogram((35, 28, 28, 31, 28, 28, 31, 28, 28, 35)), "counts"),
], ids=["ReciprocalSpec", "CacheRecord", "ClassKey", "DigitHistogram"])
def test_records_are_frozen_hashable_and_pickle(make, field):
    import pickle

    record, twin = make(), make()
    assert record is not twin and record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_cache_record_refuses_what_loading_refuses(tmp_path):
    swapped = (28, 35, 28, 31, 28, 28, 31, 28, 28, 35)  # breaks the mirror lemma
    with pytest.raises(ValueError) as made:
        CacheRecord(601, 9, 300, swapped)
    with pytest.raises(ValueError) as made_by_name:
        CacheRecord(p=601, l=9, period=300, counts=swapped)
    path = tmp_path / "c.csv"
    path.write_text(f"{CACHE_HEADER}\n601,9,300,2,{','.join(map(str, swapped))}\n")
    with pytest.raises(CacheCorruptionError) as loaded:
        ResultCache(path)
    assert str(loaded.value) == f"{path}:2: {made.value}" == f"{path}:2: {made_by_name.value}"


def test_fields_moved_between_lines_are_refused(tmp_path):
    # 13 fields on one line and 15 on the next: 28 fields, as two good lines have
    path = tmp_path / "c.csv"
    first, second = REC_7.to_line(), REC_601.to_line()
    moved = first.rsplit(",", 1)
    path.write_text(f"{CACHE_HEADER}\n{moved[0]}\n{moved[1]},{second}\n")
    with pytest.raises(CacheCorruptionError, match="c.csv:2: not 14 plain decimal integers"):
        ResultCache(path)


def test_cache_round_trip(tmp_path):
    path = tmp_path / "c.csv"
    with ResultCache(path) as cache:
        assert len(cache) == 0
        assert cache.lookup(601) is None
        cache.append(REC_601)
        assert cache.lookup(601) == REC_601
        assert len(cache) == 1
    # reopen: state persists
    with ResultCache(path) as cache:
        assert cache.lookup(601) == REC_601
        assert cache.lookup(7) is None
        cache.append_many([REC_7])
    text = path.read_text()
    assert text.startswith(CACHE_HEADER + "\n")
    assert text.endswith("\n")


def test_append_is_idempotent(tmp_path):
    path = tmp_path / "c.csv"
    with ResultCache(path) as cache:
        cache.append(REC_601)
        cache.append(REC_601)  # identical re-append is a no-op
        assert len(cache) == 1
    assert path.read_text().count("601,") == 1


def test_conflicting_append_rejected(tmp_path):
    # obeys every record rule, so the record type accepts it, but not 601's counts
    other = CacheRecord(601, 9, 300, (36, 28, 28, 30, 28, 28, 30, 28, 28, 36))
    with ResultCache(tmp_path / "c.csv") as cache:
        cache.append(REC_601)
        with pytest.raises(CacheCorruptionError):
            cache.append(other)


def test_batch_with_a_conflict_writes_nothing(tmp_path):
    other = CacheRecord(601, 9, 300, (36, 28, 28, 30, 28, 28, 30, 28, 28, 36))
    path = tmp_path / "c.csv"
    with ResultCache(path) as cache:
        cache.append(REC_601)
        before = path.read_bytes()
        with pytest.raises(CacheCorruptionError, match="new record for prime 601 disagrees"):
            cache.append_many([REC_7, other])  # against the index
        with pytest.raises(CacheCorruptionError, match="two different records for prime 601"):
            cache.append_many([REC_7, other, REC_601])  # within the batch
        assert cache.lookup(7) is None and len(cache) == 1
    assert path.read_bytes() == before
    empty = tmp_path / "empty.csv"
    with ResultCache(empty) as cache:
        with pytest.raises(CacheCorruptionError, match="two different records for prime 601 in"):
            cache.append_many([REC_7, REC_601, other])  # neither record for 601 is cached
        assert len(cache) == 0
    assert not empty.exists()


def test_identical_re_append_takes_no_lock(tmp_path, monkeypatch):
    with ResultCache(tmp_path / "c.csv") as cache:
        cache.append_many([REC_7, REC_601])
        monkeypatch.setattr(cache, "_write", None)  # a write would call it
        cache.append_many([REC_601, REC_7, REC_601])


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("not-a-cache\n601,9,300,2,35,28,28,31,28,28,31,28,28,35\n")
    with pytest.raises(CacheCorruptionError):
        ResultCache(path)


def test_malformed_mid_file_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        f"{CACHE_HEADER}\ngarbage\n{REC_601.to_line()}\n")
    with pytest.raises(CacheCorruptionError):
        ResultCache(path)


def test_conflicting_duplicate_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        f"{CACHE_HEADER}\n{REC_601.to_line()}\n"
        "601,9,300,2,36,27,28,31,28,28,31,28,28,35\n")
    with pytest.raises(CacheCorruptionError):
        ResultCache(path)


def test_truncated_final_line_skipped(tmp_path, caplog):
    # an interrupted writer may leave a partial last line; it is dropped
    path = tmp_path / "c.csv"
    path.write_text(f"{CACHE_HEADER}\n{REC_601.to_line()}\n7,7,6")
    with caplog.at_level(logging.WARNING):
        with ResultCache(path) as cache:
            assert cache.lookup(601) == REC_601
            assert cache.lookup(7) is None
            assert len(cache) == 1
            cache.append(REC_7)
            assert cache.lookup(7) == REC_7
    assert any("truncated" in r.message for r in caplog.records)
    # the rewritten file is clean and loads without warnings
    with ResultCache(path) as cache:
        assert len(cache) == 2


def test_torn_tail_after_crlf_lines_clipped_by_bytes(tmp_path):
    # with CRLF line ends, a character offset into the newline-translated
    # text lands inside an earlier record; the clip must count bytes
    path = tmp_path / "c.csv"
    kept = "".join(line + "\r\n" for line in
                   [CACHE_HEADER] + [_record(p).to_line() for p in (3, 7, 11, 13, 19)])
    path.write_bytes(kept.encode() + b"23,7,2")
    with ResultCache(path) as cache:
        assert len(cache) == 5
        cache.append(_record(23))
    assert path.read_bytes() == kept.encode() + (_record(23).to_line() + "\n").encode()
    with ResultCache(path) as cache:
        assert len(cache) == 6
        assert cache.lookup(19) == _record(19)
        assert cache.lookup(23) == _record(23)


def test_torn_tail_kept_when_another_writer_appended_since_load(tmp_path):
    # two caches load the same torn file; the first to write clips the tail and
    # appends, so the second must not clip again at the offset it loaded
    path = tmp_path / "c.csv"
    path.write_text(f"{CACHE_HEADER}\n{REC_601.to_line()}\n7,7,6")
    first, second = ResultCache(path), ResultCache(path)
    with first:
        first.append_many([_record(p) for p in (3, 7, 11, 13, 17, 19)])
    with second:
        # 7 is the first's by now, so only 23 is written
        second.append_many([REC_7, _record(23)])
    text = path.read_text()
    assert text.endswith(f"{_record(19).to_line()}\n{_record(23).to_line()}\n")
    assert text.count(f"\n{REC_7.to_line()}\n") == 1
    with ResultCache(path) as cache:
        assert len(cache) == 8
        assert cache.lookup(19) == _record(19)


def test_torn_tail_written_after_load_is_clipped(tmp_path):
    # another writer, killed mid-write, leaves a partial line after this cache
    # loaded a clean file; the next append must not join its line onto it
    path = tmp_path / "c.csv"
    path.write_text(f"{CACHE_HEADER}\n{REC_601.to_line()}\n")
    with ResultCache(path) as cache:
        with path.open("a") as other:
            other.write(_record(3).to_line()[:5])
        cache.append(REC_7)
    assert path.read_text() == f"{CACHE_HEADER}\n{REC_601.to_line()}\n{REC_7.to_line()}\n"
    with ResultCache(path) as cache:
        assert len(cache) == 2


def test_two_caches_on_one_file_write_each_prime_once(tmp_path):
    path = tmp_path / "c.csv"
    first, second = ResultCache(path), ResultCache(path)
    with first, second:
        first.append_many([_record(p) for p in (3, 7, 11)])
        second.append_many([_record(p) for p in (7, 11, 13)])  # 7 and 11 are the first's
        first.append_many([_record(p) for p in (13, 17)])  # 13 is the second's
        second.append(_record(19))
        assert second.lookup(3) == _record(3)  # read when the second wrote
        assert first.lookup(19) is None  # not yet read by the first
    assert path.read_text().splitlines() == [
        CACHE_HEADER, *(_record(p).to_line() for p in (3, 7, 11, 13, 17, 19))]


# 601's counts with f(0) and f(3) swapped, and f(9) and f(6): mirrored and summing
# to the period, so the line loads, but they are not 601's
_WRONG_601 = "601,9,300,2,31,28,28,35,28,28,35,28,28,31"


def test_other_writers_lines_are_checked_before_writing(tmp_path):
    path = tmp_path / "c.csv"
    with ResultCache(path) as cache:
        cache.append(REC_7)
        with path.open("a") as other:
            other.write(_WRONG_601 + "\n")
        with pytest.raises(CacheCorruptionError, match="new record for prime 601 disagrees"):
            cache.append(REC_601)
    assert path.read_text() == f"{CACHE_HEADER}\n{REC_7.to_line()}\n{_WRONG_601}\n"
    with ResultCache(path) as cache:
        with path.open("a") as other:
            other.write("13,3,6,2\n")
        with pytest.raises(CacheCorruptionError, match=r"c\.csv:4: not 14 plain decimal"):
            cache.append(_record(11))


def test_file_cut_below_what_was_read_is_corruption(tmp_path):
    path = tmp_path / "c.csv"
    with ResultCache(path) as cache:
        cache.append_many([REC_7, REC_601])
        path.write_text(f"{CACHE_HEADER}\n")
        with pytest.raises(CacheCorruptionError, match="shrank"):
            cache.append(_record(11))
    assert path.read_text() == f"{CACHE_HEADER}\n"


def test_checked_lines_written_as_they_are(tmp_path, monkeypatch):
    # the cache appends the lines it has just checked as they are, unformatted
    lines = [_record(p).to_line() for p in (3, 7, 601)]
    path = tmp_path / "c.csv"
    with ResultCache(path) as cache:
        cache.append(REC_7)
        monkeypatch.setattr(CacheRecord, "to_line", None)
        records = cache._append_lines(lines)  # 7 is an identical re-append
    assert records == [_record(p) for p in (3, 7, 601)]
    assert path.read_text() == "".join(
        line + "\n" for line in [CACHE_HEADER, lines[1], lines[0], lines[2]])


def test_empty_file_is_fresh(tmp_path):
    path = tmp_path / "c.csv"
    path.touch()
    with ResultCache(path) as cache:
        assert len(cache) == 0
        cache.append(REC_7)
    assert path.read_text() == f"{CACHE_HEADER}\n{REC_7.to_line()}\n"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([p for p in sieve_primes(500) if p not in (2, 5)]),
                min_size=1, max_size=12, unique=True))
def test_many_records_round_trip(tmp_path_factory, primes):
    path = tmp_path_factory.mktemp("h") / "c.csv"
    records = [_record(p) for p in primes]
    with ResultCache(path) as cache:
        cache.append_many(records)
    with ResultCache(path) as cache:
        assert len(cache) == len(primes)
        for rec in records:
            assert cache.lookup(rec.p) == rec


# ------------------------------------------------------------- bulk load

@pytest.fixture(scope="module")
def lines_to_2e4(tmp_path_factory):
    """The record lines of a cache built to 2e4, as dseq writes it."""
    path = tmp_path_factory.mktemp("bulk") / "c.csv"
    with ResultCache(path) as cache:
        batch_records(census_primes(20_000), cache=cache)
    lines = path.read_text().splitlines()
    assert lines[0] == CACHE_HEADER and len(lines) == 2261
    return lines[1:]


def _write_cache(path, lines, newline="\n"):
    path.write_bytes("".join(f"{x}{newline}" for x in [CACHE_HEADER, *lines]).encode())


@pytest.fixture
def fresh_sieve(monkeypatch):
    """An empty process sieve for one test, so that one grown earlier proves nothing."""
    monkeypatch.setattr(numtheory, "_sieve", bytearray())


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_bulk_load_equals_from_line(tmp_path, monkeypatch, fresh_sieve, lines_to_2e4, newline):
    path = tmp_path / "c.csv"
    _write_cache(path, lines_to_2e4, newline)

    def unexpected(*args):
        raise AssertionError("a valid cache took Miller-Rabin")

    # primality comes from the sieve, which the load grows
    with monkeypatch.context() as patched:
        patched.setattr(numtheory, "is_prime", unexpected)
        cache = ResultCache(path)
    assert len(cache) == len(lines_to_2e4)
    for line in lines_to_2e4:
        expected = CacheRecord.from_line(line)
        loaded = cache.lookup(expected.p)
        assert loaded == expected and type(loaded) is CacheRecord
        assert loaded.to_line() == line and loaded.key == expected.key


def _corruptions(value: int):
    """Texts for one field holding value that the loader must refuse."""
    return st.one_of(
        st.integers(-10**6, 10**7).filter(lambda v: v != value).map(str),
        st.sampled_from([f"+{value}", f"0{value}", f"{value}.0", f"{value} {value}",
                         "", "x", "[1]", f'"{value}"',
                         # 20 digits, and more than int() reads from text by default
                         "1" * 20, "1" * 4301,
                         # as many as int() reads, whose sum with the others has one more
                         "9" * 4300]),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_corrupted_field_is_refused_at_its_line(tmp_path_factory, lines_to_2e4, data):
    i = data.draw(st.integers(0, len(lines_to_2e4) - 1), label="record")
    fields = lines_to_2e4[i].split(",")
    j = data.draw(st.integers(0, 13), label="field")
    fields[j] = data.draw(_corruptions(int(fields[j])), label="text")
    lines = list(lines_to_2e4)
    lines[i] = ",".join(fields)
    path = tmp_path_factory.mktemp("bad") / "c.csv"
    _write_cache(path, lines)
    with pytest.raises(CacheCorruptionError, match=f"c.csv:{i + 2}: "):
        ResultCache(path)


def test_prime_near_cap_loads_without_a_sieve_of_its_size(tmp_path, monkeypatch, fresh_sieve):
    p = 2147483629  # the largest full-length prime not above PRIME_CAP
    rec = CacheRecord(p, 1, p - 1, _full_length_counts(p))
    path = tmp_path / "c.csv"
    _write_cache(path, [REC_7.to_line(), rec.to_line()])
    sieved = []

    def recorded(limit):
        sieved.append(limit)
        return prime_mask(limit)

    monkeypatch.setattr(numtheory, "prime_mask", recorded)
    with ResultCache(path) as cache:
        assert cache.lookup(p) == rec and cache.lookup(7) == REC_7
    assert sieved and max(sieved) <= numtheory._SIEVE_BOUND


def test_few_large_primes_get_no_sieve_of_their_size(tmp_path, monkeypatch, fresh_sieve):
    sieved = []

    def recorded(limit):
        sieved.append(limit)
        return prime_mask(limit)

    monkeypatch.setattr(numtheory, "prime_mask", recorded)  # before any record is made
    big = CacheRecord(999983, 3, 999982, _full_length_counts(999983))
    small = [_record(p) for p in (7, 13, 17, 19, 23, 29, 31)]
    path = tmp_path / "c.csv"
    _write_cache(path, [rec.to_line() for rec in small] + [big.to_line()])
    with ResultCache(path) as cache:
        assert cache.lookup(999983) == big and cache.lookup(31) == small[-1]
    assert CacheRecord.from_lines([big.to_line()]) == [big]
    assert max(sieved, default=0) < 1000  # Miller-Rabin proves 999983 instead


def test_loaded_cache_holds_few_bytes_a_record(tmp_path, lines_to_2e4):
    import tracemalloc

    path = tmp_path / "c.csv"
    _write_cache(path, lines_to_2e4)
    ResultCache(path)  # the sieve, the sharing table and the like are set up outside the trace
    tracemalloc.start()
    try:
        cache = ResultCache(path)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # about 180 B a record with one int per distinct count, 350 B with an int for every count
    assert len(cache) == 2260 and live / len(cache) < 260


def test_loaded_records_share_one_int_per_count(tmp_path, lines_to_2e4):
    path = tmp_path / "c.csv"
    _write_cache(path, lines_to_2e4)
    records = [*ResultCache(path)._records.values(), *CacheRecord.from_lines(lines_to_2e4[-99:]),
               *map(CacheRecord.from_line, lines_to_2e4[-99:])]
    counts = [c for rec in records for c in rec.counts if c > 256]  # Python caches the ints below
    first: dict[int, int] = {}
    assert len(counts) > 10_000 and all(first.setdefault(c, c) is c for c in counts)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_collector_state_is_restored(tmp_path, lines_to_2e4, enabled):
    import gc

    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _write_cache(good, lines_to_2e4[:100])
    _write_cache(bad, lines_to_2e4[:50] + ["601,9,300,3,35,28,28,31,28,28,31,28,28,35"])
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        ResultCache(good)
        assert gc.isenabled() is enabled
        CacheRecord.from_lines(lines_to_2e4[:100])
        assert gc.isenabled() is enabled
        with pytest.raises(CacheCorruptionError, match="bad.csv:52: "):
            ResultCache(bad)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            CacheRecord.from_lines(["601,9,300,3,35,28,28,31,28,28,31,28,28,35"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_prime_near_cap_does_not_grow_the_sharing_table(tmp_path, monkeypatch):
    from dseq import store

    p = 2147483629  # the largest full-length prime not above PRIME_CAP
    rec = CacheRecord(p, 1, p - 1, _full_length_counts(p))
    path = tmp_path / "c.csv"
    _write_cache(path, [REC_7.to_line(), rec.to_line()])
    monkeypatch.setattr(store, "_shared", [])  # an empty table for this test
    monkeypatch.setattr(store, "_BLOCK_CHARS", 1)  # a block a line
    with ResultCache(path) as cache:
        assert cache.lookup(p) == rec and cache.lookup(7) == REC_7
    # 7's counts are 0 and 1; p's, 214748362 and 214748363, are left as parsed
    assert store._shared == [0, 1]


@pytest.mark.parametrize("count", ["1" * 20, "1" * 4301], ids=["20_digits", "4301_digits"])
def test_long_field_message_does_not_depend_on_the_line_below(tmp_path, count):
    line = REC_601.to_line().replace(",35,", f",{count},", 1)
    messages = []
    for below in (_record(13).to_line(), "garbage"):
        path = tmp_path / "c.csv"
        _write_cache(path, [REC_7.to_line(), line, below])
        with pytest.raises(CacheCorruptionError, match="c.csv:3: ") as refused:
            ResultCache(path)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("field", ["+35", "035", "3_5"])
def test_fields_only_int_reads_are_refused(tmp_path, field):
    line = REC_601.to_line().replace(",35,", f",{field},", 1)
    with pytest.raises(ValueError, match="plain decimal integer"):  # although int() reads it
        CacheRecord.from_line(line)
    path = tmp_path / "c.csv"
    _write_cache(path, [REC_7.to_line(), line])
    with pytest.raises(CacheCorruptionError, match="c.csv:3: .*plain decimal integer"):
        ResultCache(path)


@pytest.mark.parametrize("line, lemma", [
    # 601 (period 300, even) with the counts of 0 and 1 swapped
    ("601,9,300,2,28,35,28,31,28,28,31,28,28,35", "not mirrored"),
    # 7 (full length): mirrored and summing to 6, but not N_7
    ("7,7,6,1,1,0,1,0,1,1,0,1,0,1", "not N_p"),
    # 31 (period 15 = 30/2, odd): one count moved from digit 2 to 3
    ("31,9,15,2,2,2,2,2,1,2,2,0,1,1", "do not complement"),
    # 601 (period 300 = 600/2, even; p ends in 1): mirrored, but f(1) != f(2)
    ("601,9,300,2,35,27,29,31,28,28,31,29,27,35", "are not equal"),
    # 157 (period 78 = 156/2, even; p ends in 7): mirrored, but not 2x the non-residues
    ("157,7,78,2,8,8,10,7,6,6,7,10,8,8", "do not have f"),
    # 31 (p = 7 mod 8) and 67 (p = 3 mod 8): complemented, but off the shape
    ("31,9,15,2,2,1,3,2,1,2,1,0,2,1", r"not \(4h-2g"),
    ("67,7,33,2,3,3,5,5,2,5,1,2,4,3", r"not \(0, 6h-g"),
    # 31 with h = -1 and 43 (p = 3 mod 8) with g = 2: on the shape, out of bounds
    ("31,9,15,2,0,2,3,1,1,2,2,0,1,3", "h = -1 and g = 4"),
    ("43,3,21,2,2,4,0,5,4,0,0,4,0,2", "h = 3 and g = 2"),
    # 601 (half length) as full length with N_p, and 17 (full length) as half length:
    # every other rule holds, but k is even exactly when 10 is a square mod p
    ("601,9,600,1,60,60,60,60,60,60,60,60,60,60", "cofactor 1 is odd, but 10 is a square"),
    ("17,7,8,2,1,1,2,0,0,0,0,2,1,1", "cofactor 2 is even, but 10 is not a square"),
], ids=["mirror", "full_length", "complement", "times_two_square", "times_two_non_square",
        "shape_7_mod_8", "shape_3_mod_8", "h_below_1", "g_below_4", "full_for_half",
        "half_for_full"])
def test_record_contradicting_a_lemma_is_refused_at_load(tmp_path, line, lemma):
    p = int(line.split(",")[0])
    with pytest.raises(ValueError, match=f"record for {p}: .*{lemma}"):
        CacheRecord.from_line(line)  # the record type refuses it too
    path = tmp_path / "c.csv"
    _write_cache(path, [REC_7.to_line(), _record(13).to_line(), line])
    with pytest.raises(CacheCorruptionError, match=f"c.csv:4: record for {p}: .*{lemma}"):
        ResultCache(path)


def test_writer_refuses_what_the_reader_refuses(tmp_path, monkeypatch):
    # 601's counts with those of digits 0 and 1 swapped: not mirrored (Midy)
    swapped = (28, 35) + REC_601.counts[2:]
    with pytest.raises(ValueError, match="not mirrored"):
        CacheRecord(601, 9, 300, swapped)
    path = tmp_path / "c.csv"
    with ResultCache(path) as cache:
        cache.append(REC_7)
    before = path.read_bytes()
    monkeypatch.setattr(counting, "period_counts", lambda specs: [swapped for _ in specs])
    with ResultCache(path) as cache:
        with pytest.raises(ValueError, match="record for 601: .*not mirrored"):
            batch_records([601], cache=cache)
    assert path.read_bytes() == before


# The record rules restated here from the number theory, without the code that
# checks records: every true record must load, and a record moved off the
# truth must load exactly when it still obeys what these relations say.

@functools.lru_cache(maxsize=None)
def _true_record(p: int) -> tuple[int, int, tuple[int, ...]]:
    """(l, T, counts) of 1/p, the counts by long division."""
    spec = ReciprocalSpec.for_prime(p)
    c = Counter(long_division_digits(p, spec.period))
    return spec.l, spec.period, tuple(c[d] for d in range(10))


@functools.lru_cache(maxsize=None)
def _unit_counts(p: int) -> tuple[int, ...]:
    """How many units r of Z/p have floor(10r/p) = d, for each digit d."""
    return tuple(Counter(10 * r // p for r in range(1, p))[d] for d in range(10))


def _obeys_half_length_relations(p: int, f: tuple[int, ...]) -> bool:
    """Whether f obeys the x2/x5 relations (even (p-1)/2) or the class-number
    shape (odd (p-1)/2), given that it sums to (p-1)/2 and is mirrored or
    complemented.  H = <10> is then the squares mod p."""
    n, t = _unit_counts(p), (p - 1) // 2

    def image(a: int) -> tuple[int, ...]:  # the counts of aH
        return f if pow(a, t, p) == 1 else tuple(x - y for x, y in zip(n, f))

    if t % 2 == 0:
        # r -> 2r maps the residues of digits d and d+5 onto those of 2d and
        # 2d+1; r -> 5r maps those of the even digits onto the ones below p/2
        two, five = image(2), image(5)
        return ([f[d] + f[d + 5] for d in range(5)] == [two[2 * d] + two[2 * d + 1]
                                                         for d in range(5)]
                and sum(f[0::2]) == sum(five[:5]))
    if p == 3:
        return True
    c = [8 * f[d] - 4 * n[d] for d in range(5)]
    if p % 8 == 7:
        g = Fraction(c[1])
        h = (c[0] + 2 * g) / 4
        shape, g_min = [4 * h - 2 * g, g, 3 * g, -g, -g], 2
    else:
        h, g = Fraction(c[1] + c[3], 12), Fraction(c[3] - c[1], 2)
        shape, g_min = [0, 6 * h - g, -6 * h + g, 6 * h + g, 6 * h - g], 4
    # h = h(-p) is odd and g = h(-5p) even, and -15 is the only -5p with
    # p = 3 (mod 8) whose class number is 2
    return c == shape and h % 2 == 1 and h >= 1 and g % 2 == 0 and g >= g_min


TO_2E4 = [p for p in sieve_primes(20_000) if p not in (2, 5)]


def test_every_true_record_to_2e4_loads():
    for p in TO_2E4:
        l, period, counts = _true_record(p)
        CacheRecord(p, l, period, counts)
    assert _obeys_half_length_relations(601, _true_record(601)[2])
    assert _obeys_half_length_relations(31, _true_record(31)[2])


HALF_TO_2E4 = [p for p in TO_2E4 if ReciprocalSpec.for_prime(p).cofactor == 2]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HALF_TO_2E4), st.data())
def test_moved_half_length_record_loads_exactly_when_it_obeys_the_relations(p, data):
    l, period, counts = _true_record(p)
    f = list(counts)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b, k = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9)), data.draw(
            st.integers(1, 3))
        # with the paired move that keeps the mirror (even T) or the complement
        for src, dst in ((a, b), (9 - a, 9 - b) if period % 2 == 0 else (9 - b, 9 - a)):
            f[src] -= k
            f[dst] += k
    assume(min(f) >= 0)
    f = tuple(f)
    assert sum(f) == period
    assert f == f[::-1] if period % 2 == 0 else all(
        f[d] + f[9 - d] == _unit_counts(p)[d] for d in range(10))
    try:
        CacheRecord(p, l, period, f)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == _obeys_half_length_relations(p, f), f

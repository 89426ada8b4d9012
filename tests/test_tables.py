import pytest

from dseq.census import EVEN, HALF, ODD, ClassKey, classify
from dseq.tables import TABLE_KEYS, TABLE_PRIMES, table_rows

from conftest import golden_rows


def test_fixture_shape():
    assert set(TABLE_KEYS) == set(range(1, 9)) == set(TABLE_PRIMES)
    assert all(len(TABLE_PRIMES[n]) == 25 for n in TABLE_PRIMES)
    assert TABLE_KEYS[1] == ClassKey(1, EVEN, HALF)
    assert TABLE_KEYS[8] == ClassKey(9, ODD, HALF)
    # no prime appears in two panels
    all_primes = [p for n in range(1, 9) for p in TABLE_PRIMES[n]]
    assert len(set(all_primes)) == 200


def test_fixture_primes_match_their_panel_key():
    for n in range(1, 9):
        for p in TABLE_PRIMES[n]:
            assert classify(p).key == TABLE_KEYS[n], (n, p)


def test_table_rows_validates_number():
    for bad in (0, 9, -1):
        with pytest.raises(ValueError):
            table_rows(bad)


def test_table_1_matches_golden(session_cache):
    rows = table_rows(1, cache=session_cache)
    assert [(r.p, r.counts) for r in rows] == golden_rows(1)


def test_golden_files_cover_fixture_primes():
    for n in range(1, 9):
        assert [p for p, _ in golden_rows(n)] == list(TABLE_PRIMES[n])

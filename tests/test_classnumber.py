"""Odd-period half-length histograms from class numbers, against the lane kernel."""
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseq import counting
from dseq.census import _count_chunk
from dseq.cli import main
from dseq.counting import _CLASS_NUMBER_BOUND, _count_batch
from dseq.numtheory import is_prime, multiplicative_order, sieve_primes
from dseq.sequence import ReciprocalSpec, histogram
from dseq.store import _line


def _odd_half(p: int) -> bool:
    return p % 4 == 3 and multiplicative_order(10, p) == (p - 1) // 2


def _kernel(p: int) -> tuple[int, ...]:
    return tuple(_count_batch([(p, (p - 1) // 2)])[0])


def _reduced_forms(m: int) -> int:
    """h(-m) by brute force: every reduced form (a, b, c) of discriminant -m."""
    forms = 0
    for a in range(1, math.isqrt(m // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, rest = divmod(b * b + m, 4 * a)
            if rest == 0 and (c > a or (c == a and b >= 0)):
                forms += 1
    return forms


def test_class_numbers_equal_reduced_form_count():
    primes = [p for p in sieve_primes(3000) if p % 4 == 3]
    ms = [p for p in primes if p > 3] + [5 * p for p in primes]
    tables = counting.RootTables()
    tables.grow(math.isqrt(max(ms) // 3))
    assert counting.class_numbers(ms, tables) == [_reduced_forms(m) for m in ms]
    # in any order, and one discriminant at a time
    assert counting.class_numbers(ms[::-1], tables) == [_reduced_forms(m) for m in ms[::-1]]
    assert counting.class_numbers([7], tables) == [1]


def test_tables_grow_by_appending():
    grown, once = counting.RootTables(), counting.RootTables()
    for top in (1, 2, 40, 41, 300, 600):
        grown.grow(top)
    once.grow(600)
    for name in ("count", "before", "roots"):
        assert getattr(grown, name).tolist() == getattr(once, name).tolist()
    assert len(once.count) == counting.RootTables.entries(600)
    assert {once.count.dtype.itemsize, once.before.dtype.itemsize} == {1, 2}


def test_odd_half_counts_equal_kernel_to_1e5():
    primes = [p for p in sieve_primes(100_000) if p > 3 and _odd_half(p)]
    assert len(primes) == 1797
    for i in range(0, len(primes), 200):
        batch = primes[i:i + 200]
        assert counting.odd_half_counts(batch) == [_kernel(p) for p in batch]


@settings(max_examples=40, deadline=None)
@given(st.integers(100_000, 999_000))
def test_odd_half_counts_equal_kernel_below_1e6(n):
    p = next(q for q in range(n | 3, 1_000_000, 4) if is_prime(q) and _odd_half(q))
    assert counting.odd_half_counts([p]) == [_kernel(p)]


def test_chunk_sends_only_odd_half_primes_up_to_the_bound(monkeypatch):
    above = next(q for q in range(_CLASS_NUMBER_BOUND | 3, _CLASS_NUMBER_BOUND + 10**4, 4)
                 if is_prime(q) and _odd_half(q))
    small = [p for p in sieve_primes(60_000) if p > 50_000]
    items = [3, *small, above]
    sent = []
    counts = counting.odd_half_counts

    def recorded(primes):
        sent.extend(primes)
        return counts(primes)

    monkeypatch.setattr(counting, "odd_half_counts", recorded)
    lines = _count_chunk(items)
    assert sent == [p for p in small if _odd_half(p)]
    specs = [ReciprocalSpec.for_prime(p) for p in items]
    assert lines == [_line(s.p, s.l, s.period, s.cofactor, histogram(s).counts)
                     for s in specs]


@pytest.mark.parametrize("which", [0, 1])  # h(-p), then h(-5p)
def test_wrong_class_number_raises(monkeypatch, capsys, tmp_path, which):
    class_numbers, calls = counting.class_numbers, []

    def off_by_one(ms, tables):
        calls.append(ms)
        out = class_numbers(ms, tables)
        if len(calls) % 2 == 1 - which:
            out[0] += 1
        return out

    p = next(q for q in range(50_003, 60_000, 4) if is_prime(q) and _odd_half(q))
    monkeypatch.setattr(counting, "class_numbers", off_by_one)
    with pytest.raises(ValueError, match="h must be odd, g even"):
        counting.odd_half_counts([p])
    calls.clear()
    code = main(["figure", "60000", "csv", "--jobs", "1", "--cache", str(tmp_path / "c.csv")])
    assert code == 1
    assert "h must be odd, g even" in capsys.readouterr().err


# Runs one command in a fresh interpreter; prints whether numpy and the class
# numbers got imported.
_IMPORTS = """
import contextlib, io, json, sys
from dseq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules, "dseq.counting" in sys.modules]))
"""


def test_warm_verify_imports_neither_numpy_nor_class_numbers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["verify", "20000", "json", "--jobs", "1", "--cache", str(tmp_path / "c.csv")]

    def imports():
        child = subprocess.run([sys.executable, "-c", _IMPORTS, *argv], check=True,
                               env=env, capture_output=True, text=True)
        return json.loads(child.stdout)

    assert imports() == [0, True, True]  # cold: the class numbers counted
    assert imports() == [0, False, False]  # warm

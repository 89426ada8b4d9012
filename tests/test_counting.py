"""How counting picks the way it counts a period, and which modules import numpy."""
import ast
import pathlib

import dseq
from dseq import counting
from dseq.numtheory import is_prime, multiplicative_order
from dseq.sequence import ReciprocalSpec


def test_odd_half_primes_take_class_numbers_only_once_the_tables_pay(monkeypatch):
    monkeypatch.setattr(counting, "_TABLES", counting.RootTables())
    sent, odd_half_counts = [], counting.odd_half_counts

    def recorded(primes):
        sent.append(primes)
        return odd_half_counts(primes)

    monkeypatch.setattr(counting, "odd_half_counts", recorded)
    primes = [p for p in range(999_003, 1_000_000, 4)
              if is_prime(p) and multiplicative_order(10, p) == (p - 1) // 2][:3]
    assert len(primes) == 3
    specs = [ReciprocalSpec.for_prime(p) for p in primes]
    lanes = counting.lane_counts(specs)
    # three periods of about 5e5 digits do not pay for the 832,695 table entries
    # that h(-5p) needs: the lanes count them, and no table is built
    assert counting.period_counts(specs) == lanes
    assert sent == [] and counting._TABLES.top == 0
    # with the tables already held, the class numbers count them
    counting._TABLES.grow(counting._top(max(primes)))
    assert counting.period_counts(specs) == lanes
    assert sent == [primes]


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[0] == "numpy"
                or any(alias.name in ("numpy", "np") for alias in node.names))
    return False


def test_counting_is_the_only_module_that_imports_numpy():
    sources = sorted(pathlib.Path(dseq.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    importers = [path.stem for path in sources
                 if any(map(_imports_numpy, ast.walk(ast.parse(path.read_bytes()))))]
    assert importers == ["counting"]

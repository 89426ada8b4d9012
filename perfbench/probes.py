"""Per-layer probes: seeded calls into each dseq layer's public functions.

Each probe times one layer on inputs drawn from the workload: its primes,
and the cache the workload's last pass left behind.  Probes run in the
benchmark's own process with tracing off; only the import probe starts a
fresh interpreter.
"""
from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time

import oracle
from stats import pool_efficiency

KERNEL_DIGITS = 20_000_000  # digits timed per length class
LARGE_PRIMES = 8  # panel primes above LARGE_FROM timed for the large-array kernel
LARGE_FROM = 500_000
POOL_DIGITS = 40_000_000  # serial work handed to the pool probe
SAMPLE = 2_000


def _clock() -> int:
    return time.perf_counter_ns()


def _until_digits(primes: list[int], periods: dict[int, int], budget: int) -> list[int]:
    picked, total = [], 0
    for p in primes:
        if total >= budget:
            break
        picked.append(p)
        total += periods[p]
    return picked


def kernel_ns_per_digit(sequence, periods: dict[int, int]) -> float:
    specs = [sequence.ReciprocalSpec(p, oracle.L_FOR_LSD[p % 10], t) for p, t in periods.items()]
    start = _clock()
    for spec in specs:
        sequence.histogram(spec)
    return (_clock() - start) / sum(periods.values())


def per_call_us(fn, args: list) -> float:
    start = _clock()
    for a in args:
        fn(*a)
    return (_clock() - start) / 1e3 / len(args)


def probe_layers(dseq: dict, facts, rng, jobs: int, root, cache_path, work,
                 child_env: dict) -> dict[str, float]:
    numtheory, sequence, store = dseq["numtheory"], dseq["sequence"], dseq["store"]
    census, invariants, tables = dseq["census"], dseq["invariants"], dseq["tables"]
    m: dict[str, float] = {}
    periods = facts.periods
    shuffled = rng.sample(facts.primes, len(facts.primes))

    # sequence: histogram kernel per length class, and on arrays beyond L2
    for cls in ("full", "half", "other"):
        members = [p for p in shuffled if oracle.length_class(p, periods[p]) == cls]
        picked = _until_digits(members, periods, KERNEL_DIGITS)
        m[f"sequence.kernel_ns_per_digit.{cls}"] = kernel_ns_per_digit(
            sequence, {p: periods[p] for p in picked})
    large = [p for p in oracle.table_primes(root) if p > LARGE_FROM]
    large = rng.sample(large, min(LARGE_PRIMES, len(large)))
    m["sequence.kernel_ns_per_digit.large"] = kernel_ns_per_digit(
        sequence, {p: oracle.period(p) for p in large})

    # numtheory
    sample = rng.choices(facts.primes, k=SAMPLE)
    m["numtheory.order_us"] = per_call_us(numtheory.multiplicative_order,
                                          [(10, p) for p in sample])
    m["numtheory.is_prime_us"] = per_call_us(numtheory.is_prime, [(p,) for p in sample])
    sieves = []
    for _ in range(5):
        start = _clock()
        numtheory.sieve_primes(facts.limit)
        sieves.append((_clock() - start) / 1e6)
    m["numtheory.sieve_ms"] = statistics.median(sieves)

    # store
    loads = []
    for _ in range(3):
        start = _clock()
        with store.ResultCache(cache_path) as cache:
            loads.append((_clock() - start) / 1e9)
    m["store.load_s"] = statistics.median(loads)
    with store.ResultCache(cache_path) as cache:
        m["store.load_records_per_s"] = len(cache) / m["store.load_s"]
        m["store.bytes_per_record"] = os.path.getsize(cache_path) / len(cache)
        keys = rng.choices(facts.primes, k=100_000)
        start = _clock()
        for p in keys:
            cache.lookup(p)
        m["store.lookup_ns"] = (_clock() - start) / len(keys)
        records = [r for r in map(cache.lookup, facts.primes) if r is not None]
    append_path = work / "append-probe.csv"
    append_path.unlink(missing_ok=True)
    with store.ResultCache(append_path) as out:
        start = _clock()
        for i in range(0, len(records), 10):
            out.append_many(records[i : i + 10])
        m["store.append_records_per_s"] = len(records) / ((_clock() - start) / 1e9)

    # census and invariants, against the workload's cache
    with store.ResultCache(cache_path) as cache:
        m["census.classify_us"] = per_call_us(
            lambda p: census.classify(p, cache=cache), [(p,) for p in shuffled[:SAMPLE]])
        start = _clock()
        census.third_digit_parity_scan(facts.limit, cache=cache)
        m["census.scan_s"] = (_clock() - start) / 1e9
        ruled = [census.classify(p, cache=cache) for p in shuffled[:SAMPLE]]
        ruled = [(prof, sequence.DigitHistogram(cache.lookup(prof.p).counts))
                 for prof in ruled if prof.cofactor in (1, 2)]
        m["invariants.check_us"] = per_call_us(invariants.check_histogram, ruled)
        start = _clock()
        invariants.verify_range(facts.limit, jobs=jobs, cache=cache)
        m["invariants.verify_s"] = (_clock() - start) / 1e9

    # census worker pool: serial compute time against jobs x pool wall
    batch = sorted(_until_digits([p for p in shuffled if periods[p] > 512], periods,
                                 POOL_DIGITS))
    singles = []
    for p in batch:
        start = _clock()
        sequence.histogram(sequence.ReciprocalSpec.for_prime(p))
        singles.append((_clock() - start) / 1e9)
    start = _clock()
    census.batch_records(batch, jobs=jobs)
    m["census.pool_efficiency"] = pool_efficiency(singles, jobs, (_clock() - start) / 1e9)

    # tables, on a copy so that panel primes appended here do not leak
    tables_path = work / "tables-probe.csv"
    shutil.copyfile(cache_path, tables_path)
    walls = []
    with store.ResultCache(tables_path) as cache:
        for number in rng.sample(range(1, 9), 8):
            start = _clock()
            tables.table_rows(number, jobs=jobs, cache=cache)
            walls.append((_clock() - start) / 1e6)
    m["tables.table_rows_ms"] = statistics.median(walls)

    # cli: importing the command line module in a fresh interpreter
    script = ("import time; t = time.perf_counter(); import dseq.cli; "
              "print(time.perf_counter() - t)")
    imports = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", script], env=child_env, cwd=work,
                              capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(done.stdout) * 1e3)
    m["cli.import_ms"] = statistics.median(imports)
    return m

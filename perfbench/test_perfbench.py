"""Self-tests for the benchmark's own code.

Run from the root of the repository:
    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

import pytest

import oracle
import run
import spans
import workloads
from stats import percentile, pool_efficiency, quartiles, relative_spread

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


# -------------------------------------------------------------- arithmetic

def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values) == 4.0
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile([7], 90) == 7


def test_pool_efficiency():
    # four 1 s tasks on two workers in 2 s: no time lost
    assert pool_efficiency([1.0] * 4, 2, 2.0) == 1.0
    # the same work took twice as long as two workers needed
    assert pool_efficiency([1.0] * 4, 2, 4.0) == 0.5
    assert pool_efficiency([0.3, 0.2], 1, 0.5) == pytest.approx(1.0)


def test_self_time_subtracts_children():
    tracer = spans.Tracer({})
    tracer.spans = [
        ("cli.verify", 0, 100, -1, "r"),
        ("store.load", 10, 40, 0, "r"),
        ("numtheory.is_prime", 20, 30, 1, "r"),
        ("invariants.verify_range", 50, 90, 0, "r"),
        ("cli.tables", 200, 210, -1, "other"),
    ]
    by_run = tracer.self_ns()
    assert dict(by_run["r"]) == {"cli.verify": 30, "store.load": 20,
                                 "numtheory.is_prime": 10, "invariants.verify_range": 40}
    layers = spans.layer_self_ns(by_run, {"r"})
    assert layers["cli"] == 30 and layers["store"] == 20 and layers["tables"] == 0
    assert spans.layer_self_ns(by_run, {"r", "other"})["cli"] == 40


def test_command_records_one_cli_span():
    tracer = spans.Tracer({})
    assert tracer.command("r", "tables", lambda x: x + 1, 1) == 2
    [(name, start, end, parent, run_id)] = tracer.spans
    assert (name, parent, run_id) == ("cli.tables", -1, "r") and end >= start


# ------------------------------------------------------------------- oracle

def test_sieve_and_divisors():
    assert len(oracle.primes_upto(100)) == 25
    assert oracle.primes_upto(1) == []
    assert oracle.census_primes(20) == [3, 7, 11, 13, 17, 19]
    assert oracle.divisors(1) == [1]
    assert oracle.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert oracle.divisors(600) == sorted(d for d in range(1, 601) if 600 % d == 0)


@pytest.mark.parametrize("p,t", [(3, 1), (7, 6), (11, 2), (13, 6), (37, 3), (601, 300),
                                 (999983, 999982)])
def test_period(p, t):
    assert oracle.period(p) == t


def test_long_division():
    assert oracle.long_division(7, 12) == [1, 4, 2, 8, 5, 7] * 2
    assert oracle.digits_text(7, 6) == "142857\n"
    assert oracle.digits_text(7, 0) == ""
    assert oracle.digits_text(3, 81) == "3" * 80 + "\n3\n"


@pytest.mark.parametrize("number", range(1, 9))
def test_histograms_match_golden_rows(number):
    lines = oracle.golden_table(ROOT, number).splitlines()
    assert lines[0] == oracle.TABLE_HEADER
    for line in lines[1:4]:
        p, *counts = (int(x) for x in line.split(","))
        assert oracle.digit_histogram(p) == tuple(counts)


def test_profile_rendering():
    assert oracle.profile_csv(601) == (
        "p,l,period,k,lsd,second_parity,length_class\n601,9,300,2,1,even,half\n")


def test_checks_catch_wrong_output():
    facts = oracle.RangeFacts(1000)
    assert oracle.check_exact(0, "a\n", "a\n") is None
    assert oracle.check_exact(0, "b\n", "a\n")
    assert oracle.check_exact(1, "a\n", "a\n")
    total = facts.total_digits()
    good = "digit,count\n" + "".join(f"{d},{total if d == 0 else 0}\n" for d in range(10))
    assert oracle.check_figure_csv(0, good, facts) is None
    assert oracle.check_figure_csv(0, good.replace(f"0,{total}", f"0,{total + 1}"), facts)
    verify = {"limit": 1000, "rules": [{"checked": facts.rule_checked(),
                                       "hard_failures": 0, "strong_failures": 0}]}
    assert oracle.check_verify_json(0, json.dumps(verify), facts) is None
    verify["rules"][0]["hard_failures"] = 1
    assert oracle.check_verify_json(0, json.dumps(verify), facts)
    primes = facts.of_class(1, "even", "half")
    rows = [oracle.TABLE_HEADER] + [
        ",".join(map(str, (p, *oracle.digit_histogram(p)))) for p in primes]
    assert oracle.check_census_csv(0, "\n".join(rows) + "\n", primes, primes) is None
    p = primes[0]
    h = list(oracle.digit_histogram(p))
    h[0], h[1] = h[1], h[0]
    rows[1] = ",".join(map(str, (p, *h)))
    assert oracle.check_census_csv(0, "\n".join(rows) + "\n", primes, [p])


def test_malformed_output_counts_as_a_failure():
    facts = oracle.RangeFacts(1000)
    verify = workloads.Command(("verify", "1000", "json"),
                               functools.partial(oracle.check_verify_json, facts=facts))
    figure = workloads.Command(("figure", "1000", "csv"),
                               functools.partial(oracle.check_figure_csv, facts=facts))
    tally = run.Tally()
    for out in ("not json", "{}", "[]", '{"limit": 1000, "rules": [{"checked": 1}]}'):
        tally.record(verify, run.Outcome(0.1, 0, out))
    tally.record(figure, run.Outcome(0.1, 0, "digit,count\n" + "".join(
        f"{d},x\n" for d in range(10))))
    assert (tally.attempted, tally.failed, len(tally.errors)) == (5, 5, 5)
    assert all("malformed output" in e for e in tally.errors)


# -------------------------------------------------------------- whole runs

def _names(section: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    done = subprocess.run([*RUN, "--workload", "all", "--smoke", "--seconds", "0.5",
                           "--seed", "7", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert set(result["metrics"]) == {f"{w}/{m}" for w in workloads for m in _names(section)}
    if trace:
        assert result["metrics"]["warm-range/store.misses"]["value"] == 0
        assert result["metrics"]["warm-range/sequence.digits"]["value"] == 0


def test_refuses_more_jobs_than_cpus():
    jobs = len(os.sched_getaffinity(0)) + 1
    done = subprocess.run([*RUN, "--workload", "cold-range", "--jobs", str(jobs)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "warm-range",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""

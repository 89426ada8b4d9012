#!/usr/bin/env python3
"""dseq benchmark: drive the dseq command line on one workload, check every
output, and print the workload's metrics.

Usage (from the root of the repository):
    python3 perfbench/run.py --workload cold-range --seed 1 --seconds 15 --trace 0

--trace 0 runs each command as a child process and reports the end-to-end
metrics.  --trace 1 runs the same passes in this process, alternately plain
and with spans around every call into a dseq layer, then probes each layer;
it reports the per-layer metrics and writes the spans to
perfbench/traces/<workload>-seed<seed>.jsonl.  --workload all runs every
workload in turn.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means every output
was correct; 1 means some output was wrong; 2 means the benchmark could not
run (no dseq sources, or --jobs above the CPU count).
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import oracle
import probes
import spans
import workloads
from stats import percentile, quartiles

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "sequence.kernel_ns_per_digit.full": "ns",
    "sequence.kernel_ns_per_digit.half": "ns",
    "sequence.kernel_ns_per_digit.other": "ns",
    "sequence.kernel_ns_per_digit.large": "ns",
    "sequence.digits": "count",
    "sequence.alloc_bytes": "B",
    "numtheory.order_us": "us",
    "numtheory.is_prime_us": "us",
    "numtheory.sieve_ms": "ms",
    "store.load_records_per_s": "1/s",
    "store.load_s": "s",
    "store.lookup_ns": "ns",
    "store.append_records_per_s": "1/s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_per_record": "B",
    "census.classify_us": "us",
    "census.scan_s": "s",
    "census.pool_efficiency": "ratio",
    "invariants.check_us": "us",
    "invariants.verify_s": "s",
    "tables.table_rows_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.self_ms.{c}": "ms"
       for c in ("digits", "profile", "tables", "figure", "verify", "scan-parity")},
    **{f"{layer}.self_ms": "ms" for layer in spans.LAYERS},
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit code 2, no result line."""


@dataclass
class Env:
    root: pathlib.Path
    jobs: int
    work: pathlib.Path
    child_env: dict


@dataclass
class Outcome:
    wall: float
    code: int
    out: str
    cpu: float = 0.0
    rss_mb: float = 0.0
    err: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, cmd: workloads.Command, outcome: Outcome) -> None:
        self.attempted += 1
        try:
            problem = cmd.check(outcome.code, outcome.out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"malformed output ({type(exc).__name__}: {exc})"
        if problem:
            self.failed += 1
            stderr = outcome.err.strip().splitlines()[-1:]
            self.errors.append(f"dseq {' '.join(cmd.argv)}: {problem} {stderr}")


# ------------------------------------------------------------------ running

def run_child(argv, env: Env) -> Outcome:
    """One dseq command as a child process, with its wall, CPU and peak RSS."""
    out_path, err_path = env.work / "stdout", env.work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dseq.cli", *argv], stdout=out,
                                stderr=err, env=env.child_env, cwd=env.work)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, proc.returncode, out_path.read_text(encoding="utf-8"),
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   err_path.read_text(encoding="utf-8", errors="replace"))


def run_inproc(argv, cli_main) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return Outcome(time.perf_counter() - start, code, out.getvalue(), err=err.getvalue())


def set_up(plan: workloads.Plan, env: Env, tally: Tally, path: pathlib.Path) -> float:
    """Build the workload's starting cache at path from nothing; its wall time."""
    path.unlink(missing_ok=True)
    cmd = plan.setup(str(path))
    outcome = run_child(cmd.argv, env)
    tally.record(cmd, outcome)
    return outcome.wall


def run_passes(seconds: float, run_pass) -> list:
    """Call run_pass(index) until `seconds` have passed, at least once."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(len(passes)))
    return passes


# ------------------------------------------------------------------ metrics

def end_to_end(plan, env, tally, seconds) -> tuple[dict, list]:
    cache = env.work / "cache.csv"

    def one_pass(_index):
        setup_wall = set_up(plan, env, tally, cache)
        outcomes = []
        for cmd in plan.commands:
            outcome = run_child(cmd.argv, env)
            tally.record(cmd, outcome)
            outcomes.append(outcome)
        return setup_wall, outcomes

    setup_walls, passes = zip(*run_passes(seconds, one_pass))
    walls = [sum(o.wall for o in p) for p in passes]
    commands = [o.wall * 1e3 for p in passes for o in p]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median([sum(o.cpu for o in p) for p in passes]),
        "peak_rss_mb": statistics.median([max(o.rss_mb for o in p) for p in passes]),
        "setup_s": statistics.median(setup_walls),
    }
    q1, _, q3 = quartiles(walls)
    notes = [
        f"wall_s per pass: {len(passes)} passes, q1 {q1:.4f} s, q3 {q3:.4f} s: "
        + " ".join(f"{w:.3f}" for w in walls),
        f"command latency: n={len(commands)}, p50 {percentile(commands, 50):.1f} ms, "
        f"p90 {percentile(commands, 90):.1f} ms, max {max(commands):.1f} ms",
        f"setup_s: median of {len(setup_walls)} set-ups, one before each pass",
    ]
    if plan.pass_digits:
        notes.append(f"digits_per_s: {plan.pass_digits / metrics['wall_s']:.4g} 1/s "
                     f"({plan.pass_digits} digits per pass)")
    return metrics, notes


def import_dseq(root: pathlib.Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    return {name: importlib.import_module(f"dseq.{name}") for name in spans.LAYERS}


def per_layer(plan, env, tally, seconds, start_cache, facts, rng, trace_path) -> tuple[dict, list]:
    dseq = import_dseq(env.root)
    tracer = spans.Tracer(dseq)
    cli_main = dseq["cli"].main
    cache = env.work / "cache.csv"
    plain_walls, traced_walls, pass_counts, pass_layers = [], [], [], []

    def one_pass(index):
        shutil.copyfile(start_cache, cache)
        wall = 0.0
        for cmd in plan.commands:
            outcome = run_inproc(cmd.argv, cli_main)
            tally.record(cmd, outcome)
            wall += outcome.wall
        plain_walls.append(wall)
        shutil.copyfile(start_cache, cache)
        tracer.reset()  # spans of one pass at a time stay in memory
        wall = 0.0
        with tracer.installed():
            for i, cmd in enumerate(plan.commands):
                outcome = tracer.command(f"pass{index}.{i}", cmd.name,
                                         run_inproc, cmd.argv, cli_main)
                tally.record(cmd, outcome)
                wall += outcome.wall
        traced_walls.append(wall)
        pass_counts.append(dict(tracer.counts))
        by_run = tracer.self_ns()
        pass_layers.append(spans.layer_self_ns(by_run, by_run.keys()))

    run_passes(seconds, one_pass)

    # every command kind once, on the cache the last pass left, for CLI self time
    with tracer.installed():
        for i, cmd in enumerate(plan.probes):
            outcome = tracer.command(f"probe.{i}", cmd.name, run_inproc, cmd.argv, cli_main)
            tally.record(cmd, outcome)
    shutil.copyfile(cache, env.work / "end.csv")
    metrics = probes.probe_layers(dseq, facts, rng, env.jobs, env.root,
                                  env.work / "end.csv", env.work, env.child_env)

    by_run = tracer.self_ns()
    probe_runs = [f"probe.{i}" for i in range(len(plan.probes))]
    probe_layers = spans.layer_self_ns(by_run, probe_runs)
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms"] = statistics.median(
            [(ns[layer] + probe_layers[layer]) / 1e6 for ns in pass_layers])
    for run, cmd in zip(probe_runs, plan.probes):
        metrics[f"cli.self_ms.{cmd.name}"] = by_run[run][f"cli.{cmd.name}"] / 1e6
    for key in ("digits", "alloc_bytes"):
        metrics[f"sequence.{key}"] = statistics.median([c[key] for c in pass_counts])
    hits = statistics.median([c["hits"] for c in pass_counts])
    misses = statistics.median([c["misses"] for c in pass_counts])
    metrics.update({"store.hits": hits, "store.misses": misses,
                    "store.hit_ratio": hits / (hits + misses)})
    metrics["trace.overhead_s"] = statistics.median(
        [t - p for t, p in zip(traced_walls, plain_walls)])

    tracer.write(trace_path)
    notes = [f"{len(traced_walls)} plain and traced in-process passes; "
             f"plain wall {statistics.median(plain_walls):.4f} s, "
             f"traced {statistics.median(traced_walls):.4f} s",
             f"{len(tracer.spans)} spans of the last pass and the probes written to "
             f"{trace_path.relative_to(env.root)}",
             "self time by layer, median pass plus probe commands: " + ", ".join(
                 f"{layer} {metrics[f'{layer}.self_ms']:.1f} ms" for layer in spans.LAYERS)]
    return metrics, notes


# --------------------------------------------------------------------- host

def host_facts(root: pathlib.Path) -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy_version, "commit": commit}


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs."""
    with contextlib.suppress(OSError, IndexError, ValueError):
        fields = pathlib.Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return None


def loadavg() -> str | None:
    with contextlib.suppress(OSError):
        return " ".join(pathlib.Path("/proc/loadavg").read_text().split()[:3])
    return None


# --------------------------------------------------------------------- main

def run_workload(name: str, args, env: Env, facts) -> tuple[Tally, dict]:
    rng = random.Random(f"{name}:{args.seed}")
    tally = Tally()
    plan = workloads.make_plan(name, facts, rng, env.jobs, env.root, str(env.work / "cache.csv"))
    if args.trace:
        HERE.joinpath("traces").mkdir(exist_ok=True)
        trace_path = HERE / "traces" / f"{name}-seed{args.seed}.jsonl"
        start_cache = env.work / "start.csv"
        set_up(plan, env, tally, start_cache)
        metrics, notes = per_layer(plan, env, tally, args.seconds, start_cache, facts, rng,
                                   trace_path)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(plan, env, tally, args.seconds)
        units = END_TO_END
    for cmd in plan.gate:
        tally.record(cmd, run_child(cmd.argv, env))

    print(f"== {name} (seed {args.seed}, jobs {env.jobs}, limit {facts.limit}, "
          f"trace {args.trace}): {tally.attempted} commands, {tally.failed} failed, "
          f"error_rate {tally.failed / tally.attempted:.4g}")
    for key, unit in units.items():
        print(f"  {key:<36} {metrics[key]:>14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for error in tally.errors[:10]:
        print(f"  ! {error}", file=sys.stderr)
    return tally, {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="dseq worker processes (default: min(2, CPUs available))")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny limit ({workloads.SMOKE_LIMIT}) for a quick self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    jobs = min(2, nproc) if args.jobs is None else args.jobs
    if not 1 <= jobs <= nproc:
        raise BenchError(f"--jobs {jobs} is outside 1..{nproc} (the CPUs available)")
    if not (ROOT / "src" / "dseq" / "cli.py").is_file():
        raise BenchError(f"no dseq sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "data" / "table1.csv").is_file():
        raise BenchError(f"no golden class tables under {ROOT / 'tests' / 'data'}")

    default_cache = ROOT / "dseq-cache.csv"
    before = default_cache.stat() if default_cache.exists() else None
    load_start, steal_start = loadavg(), steal_s()
    HERE.joinpath(".work").mkdir(exist_ok=True)
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir()
    child_env = {k: v for k, v in os.environ.items() if k != "DSEQ_CACHE"}
    child_env["PYTHONPATH"] = str(ROOT / "src")
    env = Env(ROOT, jobs, work, child_env)

    facts = oracle.RangeFacts(workloads.SMOKE_LIMIT if args.smoke else workloads.LIMIT)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total, results = Tally(), {}
    try:
        for name in names:
            tally, metrics = run_workload(name, args, env, facts)
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.errors += tally.errors
            results[name] = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = default_cache.stat() if default_cache.exists() else None
    if (before and (before.st_size, before.st_mtime_ns)) != \
            (after and (after.st_size, after.st_mtime_ns)):
        total.errors.append(f"{default_cache} changed during the run")

    host = host_facts(ROOT)
    steal_end = steal_s()
    if steal_start is not None and steal_end is not None:
        host["steal_s"] = round(steal_end - steal_start, 2)
    print("host " + json.dumps({"seed": args.seed, **host, "jobs": jobs,
                                "loadavg_start": load_start, "loadavg_end": loadavg()}))
    metrics = results[names[0]] if len(names) == 1 else {
        f"{name}/{key}": value for name, m in results.items() for key, value in m.items()}
    correct = not total.errors
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

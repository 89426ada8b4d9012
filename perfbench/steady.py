#!/usr/bin/env python3
"""Check that the benchmark is steady: run it on several seeds and report,
for each end-to-end metric, the spread between the first and third quartile
of the runs as a share of their median, next to the metric's bound.  A
metric is steady when its spread is below a third of its bound.

With --save FILE the values are written as JSON; with --against FILE the
medians are also compared with an earlier saved set, and a median that is
worse than the earlier one by more than the bound fails the check.

Usage (from the root of the repository):
    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--first-seed 1]
                                [--save FILE] [--against FILE]
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from stats import quartiles, relative_spread

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--save", type=pathlib.Path)
    parser.add_argument("--against", type=pathlib.Path)
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}

    steady, saved = True, {}
    for workload in args.workload:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}, {result}")
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={v[-1]:.4g}" for name, v in values.items()), flush=True)
        saved[workload] = values
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            q1, q2, q3 = quartiles(vals)
            spread = relative_spread(vals)
            ok = spread < bound / 3
            line = (f"  {workload:<12} {name:<14} median {q2:<10.4g} q1 {q1:<10.4g} "
                    f"q3 {q3:<10.4g} spread {spread:6.1%}  bound {bound:.0%}")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (q2 - before) / before
                if metric["better"] == "higher":
                    change = -change
                ok &= change <= bound
                line += f"  vs earlier {before:.4g} ({change:+.1%} worse)"
            steady &= ok
            print(f"{line}  {'ok' if ok else 'WIDE'}")
    if args.save:
        args.save.write_text(json.dumps(saved))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

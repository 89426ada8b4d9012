#!/usr/bin/env python3
"""Full-range experiment: verify all twelve rules and build the digit census
for every prime up to 999983, writing the artifacts into an output directory.

Usage:
    python scripts/run_full_range.py [--outdir OUT] [--jobs N] [--cache PATH]

Without --cache, dseq's own default applies: $DSEQ_CACHE, then ./dseq-cache.csv.

With a warm cache this takes 0.9-1.2 s on 2 CPUs, 0.16-0.42 s a command as
printed; each command reads the cache's snapshot instead of re-checking every
line.  Cold, the census of 78496 primes dominates: 5.5-7.0 s with --jobs 2.
"""
import argparse
import contextlib
import pathlib
import sys
import time

from dseq.cli import main as dseq


def run_to_file(argv: list[str], path: pathlib.Path) -> int:
    print(f"  dseq {' '.join(argv)} > {path}")
    t0 = time.perf_counter()
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = dseq(argv)
    print(f"    exit {code} in {(time.perf_counter() - t0) * 1000:.0f} ms")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="artifact directory")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--cache", help="cache file (default: dseq's own)")
    args = parser.parse_args()

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    common = (["--cache", args.cache] if args.cache else []) + ["--jobs", str(args.jobs)]

    codes = [
        run_to_file(["verify", "--full-range", "json"] + common,
                    out / "verify-full.json"),
        run_to_file(["figure", "--full-range", "csv"] + common,
                    out / "figure-full.csv"),
        run_to_file(["figure", "--full-range", "svg"] + common,
                    out / "figure-full.svg"),
        run_to_file(["scan-parity", "999983", "csv"] + common,
                    out / "scan-parity-full.csv"),
    ]
    worst = max(codes)
    print("done" if worst == 0 else f"FAILED (worst exit code {worst})")
    return worst


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Full-range experiment: verify all twelve rules and build the digit census
for every prime up to 999983, writing the artifacts into an output directory.

Usage:
    python scripts/run_full_range.py [--outdir OUT] [--jobs N] [--cache PATH]

Without --cache, dseq's own default applies: $DSEQ_CACHE, then ./dseq-cache.csv.

Next to the artifacts, manifest.txt says what they stand on, with no times
in it, so that a cold and a warm run write the same manifest:

    dseq <version>
    cache <byte length of the cache csv> <its blake2b>
    rules <the rules digest that the cache's snapshot binds>
    <artifact> <its blake2b> exit <code> dseq <the command, less --cache and --jobs>

With a warm cache this takes 0.9-1.2 s on 2 CPUs, 0.16-0.42 s a command as
printed; each command reads the cache's snapshot instead of re-checking every
line.  Cold, the census of 78496 primes dominates: 5.5-7.0 s with --jobs 2.
"""
import argparse
import contextlib
import hashlib
import os
import pathlib
import sys
import time

from dseq import __version__, store
from dseq.cli import CACHE_ENV, DEFAULT_CACHE
from dseq.cli import main as dseq


def run_to_file(argv: list[str], path: pathlib.Path) -> int:
    print(f"  dseq {' '.join(argv)} > {path}")
    t0 = time.perf_counter()
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = dseq(argv)
    print(f"    exit {code} in {(time.perf_counter() - t0) * 1000:.0f} ms")
    return code


def blake2b_of(path) -> str:
    return hashlib.blake2b(pathlib.Path(path).read_bytes()).hexdigest()


def write_manifest(out: pathlib.Path, cache, runs: list[tuple[list[str], int, str]]) -> None:
    """Write out/manifest.txt (see the module docstring) for the cache csv and the
    runs, each its command's words, exit code and artifact name in out."""
    lines = [f"dseq {__version__}",
             f"cache {os.path.getsize(cache)} {blake2b_of(cache)}",
             f"rules {store._rules_digest()}"]
    lines += [f"{name} {blake2b_of(out / name)} exit {code} dseq {' '.join(words)}"
              for words, code, name in runs]
    (out / "manifest.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="artifact directory")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--cache", help="cache file (default: dseq's own)")
    args = parser.parse_args()

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    common = (["--cache", args.cache] if args.cache else []) + ["--jobs", str(args.jobs)]

    commands = [  # each without --cache and --jobs, and the artifact it prints to
        (["verify", "--full-range", "json"], "verify-full.json"),
        (["figure", "--full-range", "csv"], "figure-full.csv"),
        (["figure", "--full-range", "svg"], "figure-full.svg"),
        (["scan-parity", "999983", "csv"], "scan-parity-full.csv"),
    ]
    runs = [(words, run_to_file(words + common, out / name), name) for words, name in commands]
    write_manifest(out, args.cache or os.environ.get(CACHE_ENV) or DEFAULT_CACHE, runs)
    worst = max(code for _, code, _ in runs)
    print("done" if worst == 0 else f"FAILED (worst exit code {worst})")
    return worst


if __name__ == "__main__":
    sys.exit(main())

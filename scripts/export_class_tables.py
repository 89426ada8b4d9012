#!/usr/bin/env python3
"""Recompute the eight class tables and write them to table1.csv..table8.csv.

Usage:
    python scripts/export_class_tables.py [--outdir OUT] [--cache PATH]

Without --cache, dseq's own default applies: $DSEQ_CACHE, then ./dseq-cache.csv.
"""
import argparse
import contextlib
import pathlib
import sys

from dseq.cli import main as dseq


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="artifact directory")
    parser.add_argument("--cache", help="cache file (default: dseq's own)")
    args = parser.parse_args()

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    cache = ["--cache", args.cache] if args.cache else []
    worst = 0
    for n in range(1, 9):
        path = out / f"table{n}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                code = dseq(["tables", str(n), *cache])
        print(f"wrote {path} (exit {code})")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())

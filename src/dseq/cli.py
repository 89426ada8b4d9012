"""Command line surface: digits, class tables, census figure, rule verification.

Every command writes deterministic bytes for a given invocation: worker
count and cache state never change output.  Exit codes: 0 success, 1 usage
or input error (a limit above PRIME_CAP among them), 3 cache corruption.
Each command's handler renders its output (tables and census share the
rows csv): every csv through `_csv`, every json through `_json`.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import os
import sys
from itertools import islice

from .census import (
    ClassKey,
    batch_records,
    census_primes,
    classify,
    global_digit_census,
    third_digit_parity_scan,
)
from .sequence import PRIME_CAP, DigitHistogram, ReciprocalSpec, digit_prefix
from .store import CacheCorruptionError, CacheRecord, ResultCache

__all__ = ["main", "run"]

DEFAULT_CACHE = "dseq-cache.csv"
CACHE_ENV = "DSEQ_CACHE"
FULL_RANGE_LIMIT = 999983
DEFAULT_LIMIT = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _decimal(text: str) -> str:
    """The text of --limit: plain decimal digits, as a positional limit is recognized."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return text


_ABOVE_CAP = f"exceeds PRIME_CAP = {PRIME_CAP}"


def _limit(text: str, name: str = "limit", bound: str = _ABOVE_CAP) -> int:
    """The limit (or the p or n) these decimal digits spell; an OverflowError that
    names their count and the bound they break, for more than int() converts."""
    digits = text.lstrip("0") or "0"  # int() refuses as many leading zeros as digits
    try:
        return int(digits)
    except ValueError:  # more digits than Python converts: far above any bound
        raise OverflowError(f"{name} of {len(digits)} digits {bound}") from None


def _int(text: str, name: str, bound: str) -> int:
    """text as int() reads it; argparse passes on _limit's OverflowError: one error line."""
    if text.isdecimal():
        return _limit(text, name, bound)
    try:
        return int(text)
    except ValueError:  # argparse's own words for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _p(text: str) -> int:
    return _int(text, "p", _ABOVE_CAP)


def _n(text: str) -> int:
    return _int(text, "n", "is more than any run can print")


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _add_run_options(p: argparse.ArgumentParser, *, full_range: bool = False) -> None:
    p.add_argument("--cache", metavar="PATH",
                   help=f"cache file (default ${CACHE_ENV} or {DEFAULT_CACHE})")
    p.add_argument("--no-cache", action="store_true", help="disable the cache")
    p.add_argument("--jobs", type=_positive, default=1, metavar="N",
                   help="worker processes (default 1)")
    if full_range:
        p.add_argument("--full-range", action="store_true",
                       help=f"run the full range, limit {FULL_RANGE_LIMIT}")


def _add_limit_format(p: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
    # one optional-positional pool: an integer is the limit, a word the format
    p.add_argument("positional", nargs="*", metavar="[limit] [format]")
    p.add_argument("--limit", dest="limit_opt", type=_decimal, default=None)
    p.add_argument("--format", dest="format_opt", choices=choices, default=None)
    p.set_defaults(format_choices=choices)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dseq",
                     description="Base-10 prime reciprocal sequence toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("digits", help="print the first n digits of 1/p")
    p.add_argument("p", type=_p)
    p.add_argument("n", type=_n)
    p.set_defaults(handler=_cmd_digits)

    p = sub.add_parser("tables", help="recompute one of the eight class tables")
    p.add_argument("number", type=int, metavar="N")
    _add_run_options(p)
    p.set_defaults(handler=_cmd_tables)

    p = sub.add_parser("figure", help="aggregate digit census over primes <= limit")
    _add_limit_format(p, ("csv", "json", "svg"))
    p.add_argument("--full-half-only", action="store_true",
                   help="drop primes whose period is neither p-1 nor (p-1)/2")
    _add_run_options(p, full_range=True)
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("verify", help="check structural rules over primes <= limit")
    _add_limit_format(p, ("csv", "json"))
    _add_run_options(p, full_range=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("profile", help="classify one prime")
    p.add_argument("p", type=_p)
    p.add_argument("format", nargs="?", choices=("csv", "json"), default=None)
    p.add_argument("--format", dest="format_opt", choices=("csv", "json"),
                   default=None)
    _add_run_options(p)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("census", help="histogram rows for one class of primes")
    _add_limit_format(p, ("csv", "json"))
    p.add_argument("--lsd", type=int, choices=(1, 3, 7, 9), required=True)
    p.add_argument("--parity", choices=("even", "odd"), required=True)
    p.add_argument("--length", choices=("full", "half", "other"), required=True)
    _add_run_options(p)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("scan-parity",
                       help="hundreds-digit parity pattern of half-length primes")
    _add_limit_format(p, ("csv", "json"))
    _add_run_options(p)
    p.set_defaults(handler=_cmd_scan_parity)

    return parser


def _either(positional, option, name: str):
    """The value given positionally or via --name: giving both is a usage error."""
    if positional is not None and option is not None:
        raise _UsageError(f"dseq: give the {name} either positionally or via --{name}")
    return positional if option is None else option


def _resolve_limit_format(args) -> tuple[int, str]:
    limit = fmt = None
    for tok in args.positional:
        if tok.isdecimal():
            if limit is not None:
                raise _UsageError(f"dseq: two limits given: {limit} and {tok}")
            limit = _limit(tok)
        elif tok in args.format_choices:
            if fmt is not None:
                raise _UsageError(f"dseq: two formats given: {fmt} and {tok}")
            fmt = tok
        else:
            raise _UsageError(f"dseq: unrecognized argument {tok!r}")
    limit = _either(limit, args.limit_opt and _limit(args.limit_opt), "limit")
    fmt = _either(fmt, args.format_opt, "format")
    if getattr(args, "full_range", False):
        if limit is not None:
            raise _UsageError("dseq: --full-range replaces the limit; drop one")
        limit = FULL_RANGE_LIMIT
    elif limit is None:
        limit = DEFAULT_LIMIT
    return limit, "csv" if fmt is None else fmt


@contextlib.contextmanager
def _open_cache(args):
    if args.no_cache:
        yield None
        return
    path = args.cache or os.environ.get(CACHE_ENV) or DEFAULT_CACHE
    with ResultCache(path) as cache:
        yield cache


def _csv(header: str, rows) -> None:
    """Print the header line, then one line of comma-joined fields per row."""
    sys.stdout.write("\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n")


def _json(obj) -> None:
    import json  # here: a command that prints csv or svg imports no json

    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _rows_csv(rows: list[CacheRecord]) -> None:
    _csv("prime,c0,c1,c2,c3,c4,c5,c6,c7,c8,c9", ((row.p, *row.counts) for row in rows))


def _figure_svg(limit: int, hist: DigitHistogram) -> str:
    width, height = 640, 400
    left, right, top, bottom = 70, 20, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    peak = max(hist.counts) or 1
    slot = plot_w / 10
    bar_w = slot * 0.7
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">Digit frequencies, primes &#8804; {limit}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<text x="{left - 8}" y="{height - bottom + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">0</text>',
        f'<text x="{left - 8}" y="{top + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{peak}</text>',
    ]
    for d, count in enumerate(hist.counts):
        h = plot_h * count / peak
        x = left + slot * d + (slot - bar_w) / 2
        y = height - bottom - h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
            f'fill="#4477aa"/>'
        )
        parts.append(
            f'<text x="{left + slot * (d + 0.5):.1f}" y="{height - bottom + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{d}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">digit</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"



# ----------------------------------------------------------------- handlers

def _cmd_digits(args) -> int:
    if args.n < 0:
        raise ValueError(f"digit count must be >= 0, got {args.n}")
    digits = map(str, digit_prefix(ReciprocalSpec.for_prime(args.p), args.n))
    while line := "".join(islice(digits, 80)):  # written one 80-digit line at a time
        sys.stdout.write(line + "\n")
    return 0


def _cmd_tables(args) -> int:
    from .tables import table_rows  # here: only this command imports the panels

    with _open_cache(args) as cache:
        rows = table_rows(args.number, jobs=args.jobs, cache=cache)
    _rows_csv(rows)
    return 0


def _cmd_figure(args) -> int:
    limit, fmt = _resolve_limit_format(args)
    include_other = not args.full_half_only
    with _open_cache(args) as cache:
        hist = global_digit_census(limit, include_other=include_other,
                                   jobs=args.jobs, cache=cache)
    if fmt == "csv":
        _csv("digit,count", enumerate(hist.counts))
    elif fmt == "json":
        _json({"limit": limit, "include_other": include_other,
               "counts": list(hist.counts), "total": hist.total})
    else:
        sys.stdout.write(_figure_svg(limit, hist))
    return 0


def _cmd_verify(args) -> int:
    from .invariants import verify_range  # here: only this command checks rules

    limit, fmt = _resolve_limit_format(args)
    with _open_cache(args) as cache:
        summary = verify_range(limit, jobs=args.jobs, cache=cache)
    # The failure columns read 0 and the violations list is empty: the one hard
    # check, `period`, is the record check that loading (else exit 3) and
    # counting (else exit 1) already apply, so no rule checked here can fail.
    if fmt == "csv":
        _csv("rule,checked,hard_failures,strong_failures,soft_passed,soft_checked",
             ((rule, st.checked, 0, 0, sum(st.soft_passed.values()),
               len(st.soft_passed) * st.checked) for rule, st in summary.rules.items()))
    else:
        rules = [{
            "rule": rule,
            "checked": st.checked,
            "hard_failures": 0,
            "strong_failures": 0,
            "soft_rates": {name: {"passed": st.soft_passed[name], "checked": st.checked,
                                  "rate": round(st.soft_passed[name] / st.checked, 6)}
                           for name in sorted(st.soft_passed)},
        } for rule, st in summary.rules.items()]
        _json({"limit": summary.limit, "rules": rules, "violations": []})
    return 0


def _cmd_profile(args) -> int:
    fmt = _either(args.format, args.format_opt, "format")
    with _open_cache(args) as cache:
        spec = classify(args.p, cache=cache)
    prof = {"p": spec.p, "l": spec.l, "period": spec.period, "cofactor": spec.cofactor,
            **spec.key._asdict()}
    if fmt == "json":
        _json(prof)
    else:
        _csv("p,l,period,k,lsd,second_parity,length_class", [prof.values()])
    return 0


def _cmd_census(args) -> int:
    limit, fmt = _resolve_limit_format(args)
    key = ClassKey(args.lsd, args.parity, args.length)
    with _open_cache(args) as cache:
        rows = batch_records(census_primes(limit), jobs=args.jobs, cache=cache, keys={key})
    if fmt == "csv":
        _rows_csv(rows)
    else:
        _json({"limit": limit, "key": key._asdict(),
               "rows": [{"prime": r.p, "counts": list(r.counts)} for r in rows]})
    return 0


def _cmd_scan_parity(args) -> int:
    limit, fmt = _resolve_limit_format(args)
    with _open_cache(args) as cache:
        report = third_digit_parity_scan(limit, cache=cache)
    cells = report.entries.items()
    if fmt == "csv":
        _csv("lsd,second_digit,parities,count",
             ((lsd, b, "|".join(cell.parities), cell.count) for (lsd, b), cell in cells))
    else:
        _json({"limit": report.limit, "cells": [
            {"lsd": lsd, "second_digit": b, "parities": list(cell.parities),
             "count": cell.count}
            for (lsd, b), cell in cells]})
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:  # OSError: an unusable cache path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CacheCorruptionError as exc:
        print(f"cache corruption: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """The `dseq` console script and `python -m dseq.cli`: main(), then the exit.

    The atexit handlers run and stdout and stderr are flushed, as the
    interpreter's own shutdown does first; then os._exit skips the rest of it,
    collecting and freeing every object and module.  Every file main() opened is
    closed by then, and a worker pool joined.  A flush that raises (a closed
    pipe), a tracer or a profiler (coverage, cProfile: they write what they
    recorded after the program returns) keep the interpreter's shutdown.
    """
    code = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        atexit._run_exitfuncs()  # logging, multiprocessing; cleared once they have run
        # a closed pipe or stream: the interpreter's shutdown reports it as it always has
        with contextlib.suppress(OSError, ValueError):
            for stream in filter(None, (sys.stdout, sys.stderr)):  # None: fd closed at start
                stream.flush()
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()

"""Reference values for dseq output, computed without importing dseq.

Primes come from a bytearray sieve, each period is the smallest divisor d
of p - 1 with ``pow(10, d, p) == 1``, and digits come from schoolbook long
division.  The ``check_*`` functions compare one command's exit code and
stdout with these values and return a description of the first mismatch,
or None when the output is right.
"""
from __future__ import annotations

import json
import math
import pathlib

L_FOR_LSD = {1: 9, 3: 3, 7: 7, 9: 1}
TABLE_HEADER = "prime,c0,c1,c2,c3,c4,c5,c6,c7,c8,c9"


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, v in enumerate(sieve) if v]


def census_primes(n: int) -> list[int]:
    """Primes <= n other than 2 and 5, whose reciprocals are purely periodic."""
    return [p for p in primes_upto(n) if p not in (2, 5)]


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, ascending, by trial division."""
    divs = [1]
    rest, q = n, 2
    while q * q <= rest:
        e = 0
        while rest % q == 0:
            rest //= q
            e += 1
        if e:
            divs = [d * q**i for d in divs for i in range(e + 1)]
        q += 1
    if rest > 1:
        divs += [d * rest for d in divs]
    return sorted(divs)


def period(p: int) -> int:
    """Length of the period of 1/p: the smallest d | p-1 with 10^d = 1 mod p."""
    return next(d for d in divisors(p - 1) if pow(10, d, p) == 1)


def long_division(p: int, n: int) -> list[int]:
    """The first n decimal digits of 1/p."""
    digits, r = [], 1
    for _ in range(n):
        r *= 10
        digits.append(r // p)
        r %= p
    return digits


def digit_histogram(p: int, t: int | None = None) -> tuple[int, ...]:
    """Digit counts over one period of 1/p."""
    counts = [0] * 10
    for d in long_division(p, period(p) if t is None else t):
        counts[d] += 1
    return tuple(counts)


def length_class(p: int, t: int) -> str:
    k = (p - 1) // t
    return "full" if k == 1 else "half" if k == 2 else "other"


def tens_parity(p: int) -> str:
    return "even" if (p // 10) % 2 == 0 else "odd"


class RangeFacts:
    """Periods of every census prime up to a limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.periods = {p: period(p) for p in census_primes(limit)}
        self.primes = list(self.periods)

    def total_digits(self) -> int:
        return sum(self.periods.values())

    def of_class(self, lsd: int, parity: str, cls: str) -> list[int]:
        return [
            p for p, t in self.periods.items()
            if p % 10 == lsd and tens_parity(p) == parity and length_class(p, t) == cls
        ]

    def rule_checked(self) -> int:
        """Number of primes `verify` checks: the full- and half-length ones."""
        return sum(length_class(p, t) != "other" for p, t in self.periods.items())


# ---------------------------------------------------------------- renderings

def profile_csv(p: int) -> str:
    t = period(p)
    return (
        "p,l,period,k,lsd,second_parity,length_class\n"
        f"{p},{L_FOR_LSD[p % 10]},{t},{(p - 1) // t},"
        f"{p % 10},{tens_parity(p)},{length_class(p, t)}\n"
    )


def digits_text(p: int, n: int) -> str:
    digits = "".join(map(str, long_division(p, n)))
    lines = [digits[i : i + 80] for i in range(0, len(digits), 80)]
    return "\n".join(lines) + "\n" if lines else ""


def scan_parity_csv(facts: RangeFacts) -> str:
    cells: dict[tuple[int, int], tuple[set[str], list[int]]] = {}
    for p, t in facts.periods.items():
        if p < 100 or length_class(p, t) != "half":
            continue
        seen, count = cells.setdefault((p % 10, (p // 10) % 10), (set(), [0]))
        seen.add("even" if (p // 100) % 2 == 0 else "odd")
        count[0] += 1
    lines = ["lsd,second_digit,parities,count"]
    for (lsd, b), (seen, count) in sorted(cells.items()):
        lines.append(f"{lsd},{b},{'|'.join(sorted(seen))},{count[0]}")
    return "\n".join(lines) + "\n"


def golden_table(root: pathlib.Path, number: int) -> str:
    return (root / "tests" / "data" / f"table{number}.csv").read_text(encoding="utf-8")


def table_primes(root: pathlib.Path) -> list[int]:
    """Every prime of the eight golden class tables."""
    primes = []
    for number in range(1, 9):
        primes += [int(line.split(",")[0])
                   for line in golden_table(root, number).splitlines()[1:]]
    return primes


# -------------------------------------------------------------------- checks

def check_exact(code: int, out: str, expected: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if out != expected:
        return f"stdout differs from the expected {len(expected)} bytes"
    return None


def parse_figure_csv(out: str) -> list[int] | None:
    lines = out.splitlines()
    if lines[:1] != ["digit,count"] or len(lines) != 11:
        return None
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(d) for d in range(10)]:
        return None
    return [int(r[1]) for r in rows]


def check_figure_csv(code: int, out: str, facts: RangeFacts) -> str | None:
    if code != 0:
        return f"exit code {code}"
    counts = parse_figure_csv(out)
    if counts is None:
        return "figure csv is malformed"
    if sum(counts) != facts.total_digits():
        return f"figure total {sum(counts)} != sum of periods {facts.total_digits()}"
    return None


def check_figure_svg(code: int, out: str, limit: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if not (out.startswith("<svg") and out.endswith("</svg>\n")):
        return "svg is not a single <svg> element"
    if out.count("<rect ") != 11:
        return f"svg has {out.count('<rect ')} rects, expected a background and 10 bars"
    if f"primes &#8804; {limit}<" not in out:
        return "svg title does not name the limit"
    return None


def check_verify_json(code: int, out: str, facts: RangeFacts) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    rules = doc["rules"]
    hard = sum(r["hard_failures"] for r in rules)
    strong = sum(r["strong_failures"] for r in rules)
    checked = sum(r["checked"] for r in rules)
    if doc["limit"] != facts.limit:
        return f"verify reports limit {doc['limit']}"
    if hard or strong:
        return f"verify found {hard} hard and {strong} strong failures"
    if checked != facts.rule_checked():
        return f"verify checked {checked} primes, expected {facts.rule_checked()}"
    return None


def check_census_csv(code: int, out: str, expected_primes: list[int],
                     sample: list[int]) -> str | None:
    """Rows must list exactly the class's primes; sampled rows match long division."""
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if lines[:1] != [TABLE_HEADER]:
        return "census csv is malformed"
    rows = {}
    for line in lines[1:]:
        parts = [int(x) for x in line.split(",")]
        rows[parts[0]] = tuple(parts[1:])
    if list(rows) != expected_primes:
        return f"census lists {len(rows)} primes, expected {len(expected_primes)}"
    for p in sample:
        if rows[p] != digit_histogram(p):
            return f"histogram of {p} differs from long division"
    return None

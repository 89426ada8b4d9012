"""The workloads: the dseq commands one run makes, and how each output is checked.

Every workload works on primes up to LIMIT.  A run repeats a pass of
commands.  Each pass starts with the set-up command, which builds the
pass's starting cache from nothing; the median of its times is `setup_s`.
The run finally runs its gate commands on the cache the last pass left
behind.
"""
from __future__ import annotations

import functools
import pathlib
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle

LIMIT = 100_000
SMOKE_LIMIT = 3_000

# Why each workload is there is recorded next to its name in BENCHMARK.json.
WORKLOADS = ("cold-range", "warm-range")


@dataclass(frozen=True)
class Command:
    """One dseq invocation and the check its exit code and stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[int, str], str | None] = field(compare=False)

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    name: str
    setup: Callable[[str], Command]  # setup cache path -> command that builds it
    commands: list[Command]  # one pass
    gate: list[Command]  # extra checks on the cache the last pass left
    probes: list[Command]  # one command of each kind, for per-command CLI self time
    pass_digits: int = 0  # digits the kernel computes in one pass, where that is fixed


def _figure_csv(facts, cache, jobs) -> Command:
    return Command(("figure", str(facts.limit), "csv", "--cache", cache, "--jobs", str(jobs)),
                   functools.partial(oracle.check_figure_csv, facts=facts))


def _verify_json(facts, cache, jobs) -> Command:
    return Command(("verify", str(facts.limit), "json", "--cache", cache, "--jobs", str(jobs)),
                   functools.partial(oracle.check_verify_json, facts=facts))


def _figure_svg(facts, cache, jobs) -> Command:
    return Command(("figure", str(facts.limit), "svg", "--cache", cache, "--jobs", str(jobs)),
                   functools.partial(oracle.check_figure_svg, limit=facts.limit))


def _scan_parity(facts, cache, jobs) -> Command:
    return Command(("scan-parity", str(facts.limit), "csv", "--cache", cache, "--jobs", str(jobs)),
                   functools.partial(oracle.check_exact, expected=oracle.scan_parity_csv(facts)))


def _tables(root, number, cache, jobs) -> Command:
    return Command(("tables", str(number), "--cache", cache, "--jobs", str(jobs)),
                   functools.partial(oracle.check_exact,
                                     expected=oracle.golden_table(root, number)))


def _profile(p, cache) -> Command:
    return Command(("profile", str(p), "--cache", cache),
                   functools.partial(oracle.check_exact, expected=oracle.profile_csv(p)))


def _digits(p, n) -> Command:
    return Command(("digits", str(p), str(n)),
                   functools.partial(oracle.check_exact, expected=oracle.digits_text(p, n)))


def _census(facts, rng, cache, jobs) -> Command:
    """A seeded class whose rows must list exactly its primes, spot-checked by long division."""
    lsd, parity, cls = rng.choice((1, 3, 7, 9)), rng.choice(("even", "odd")), \
        rng.choice(("full", "half", "other"))
    primes = facts.of_class(lsd, parity, cls)
    sample = rng.sample(primes, min(3, len(primes)))
    return Command(("census", str(facts.limit), "csv", "--lsd", str(lsd), "--parity", parity,
                    "--length", cls, "--cache", cache, "--jobs", str(jobs)),
                   functools.partial(oracle.check_census_csv,
                                     expected_primes=primes, sample=sample))


def make_plan(name: str, facts: oracle.RangeFacts, rng: random.Random, jobs: int,
              root: pathlib.Path, cache: str) -> Plan:
    """The commands of one run."""
    p, n = rng.choice(facts.primes), rng.randrange(500, 3001)
    probes = [_digits(p, n), _profile(p, cache), _tables(root, rng.randrange(1, 9), cache, jobs),
              _figure_csv(facts, cache, jobs), _verify_json(facts, cache, jobs),
              _scan_parity(facts, cache, jobs)]
    gate = [_census(facts, rng, cache, jobs)]
    if name == "cold-range":
        # set-up computes the lower half of the range; each pass computes the upper half
        half = oracle.RangeFacts(facts.limit // 2)
        return Plan(name, functools.partial(_figure_csv, half, jobs=jobs),
                    [_figure_csv(facts, cache, jobs), _verify_json(facts, cache, jobs)],
                    gate, probes, facts.total_digits() - half.total_digits())
    if name == "warm-range":
        return Plan(name, functools.partial(_figure_csv, facts, jobs=jobs),
                    [_verify_json(facts, cache, jobs), _figure_csv(facts, cache, jobs),
                     _figure_svg(facts, cache, jobs), _scan_parity(facts, cache, jobs)],
                    gate, probes)
    raise ValueError(f"unknown workload {name!r}")

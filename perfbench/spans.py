"""In-memory spans around the calls into each dseq layer.

The benchmark records them, not dseq: while a Tracer is installed, every
function named in LAYER_CALLS is replaced, in each dseq module that refers
to it, by a wrapper that records a span (name, start, end, parent, run id).
Store lookups are counted instead of spanned, because a span would cost
more than the lookup itself.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

LAYERS = ("numtheory", "sequence", "store", "census", "invariants", "tables", "cli")

LAYER_CALLS = {
    "numtheory": ("sieve_primes", "is_prime", "factorize", "multiplicative_order"),
    "sequence": ("l_multiplier", "histogram", "digit_prefix"),
    "census": ("classify", "batch_records", "class_census", "census_primes",
               "global_digit_census", "third_digit_parity_scan"),
    "invariants": ("verify_range", "check_histogram"),
    "tables": ("table_rows",),
}

# Generators return at once; the wrapper drains them so that the span covers the work.
DRAINED = {"digit_prefix"}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> imported dseq module, plus "cli"
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.run = ""
        self.counts = {"hits": 0, "misses": 0, "digits": 0, "alloc_bytes": 0}
        self._stack = [-1]
        self._first_lookup: dict[int, bool] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        """Drop every span and zero the counts; the wrappers keep the same list."""
        del self.spans[:]
        self.counts = dict.fromkeys(self.counts, 0)

    def _wrap(self, name: str, fn):
        """fn, recording a span around each call; the one place spans are made."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        drain = fn.__name__ in DRAINED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return list(result) if drain else result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)

        return traced

    def command(self, run: str, name: str, fn, *args):
        """fn(*args) as one CLI command: a `cli.<name>` span, with store hits and misses counted."""
        self.run = run
        self._first_lookup = {}
        try:
            return self._wrap(f"cli.{name}", fn)(*args)
        finally:
            hits = sum(self._first_lookup.values())
            self.counts["hits"] += hits
            self.counts["misses"] += len(self._first_lookup) - hits

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install_store(self, cache_cls) -> None:
        lookup, append_many = cache_cls.lookup, cache_cls.append_many

        def counted_lookup(cache, p):
            rec = lookup(cache, p)
            self._first_lookup.setdefault(p, rec is not None)
            return rec

        def counted_append(cache, records):
            records = list(records)
            new = {r.p: r.period for r in records if lookup(cache, r.p) is None}
            counts = self.counts
            counts["digits"] += sum(new.values())
            counts["alloc_bytes"] = max([counts["alloc_bytes"]]
                                        + [8 * t for t in new.values()])
            return append_many(cache, records)

        self._patch(cache_cls, "__init__", self._wrap("store.load", cache_cls.__init__))
        self._patch(cache_cls, "lookup", counted_lookup)
        self._patch(cache_cls, "append_many", self._wrap("store.append", counted_append))

    @contextlib.contextmanager
    def installed(self):
        """Route every call listed in LAYER_CALLS, and the store, through spans."""
        try:
            modules = list(self.modules.values())
            for layer, names in LAYER_CALLS.items():
                for fname in names:
                    orig = getattr(self.modules[layer], fname)
                    wrapper = self._wrap(f"{layer}.{fname}", orig)
                    for mod in modules:
                        if getattr(mod, fname, None) is orig:
                            self._patch(mod, fname, wrapper)
            self._install_store(self.modules["store"].ResultCache)
            yield
        finally:
            while self._patches:
                owner, attr, orig = self._patches.pop()
                setattr(owner, attr, orig)

    # ------------------------------------------------------------- analysis

    def self_ns(self) -> dict[str, dict[str, int]]:
        """Self time of each span, its duration minus its children's, summed by run and name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            out[run][name] += end - start - child[i]
        return out

    def write(self, path) -> None:
        """One JSON object per line: id, parent, name, start_ns, end_ns, run."""
        origin = min((s[1] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f'{{"id": {i}, "parent": {parent if parent >= 0 else "null"}, '
                         f'"name": "{name}", "start_ns": {start - origin}, '
                         f'"end_ns": {end - origin}, "run": "{run}"}}\n')


def layer_self_ns(by_run: dict[str, dict[str, int]], runs) -> dict[str, int]:
    """Self time of each layer over the given runs."""
    out = dict.fromkeys(LAYERS, 0)
    for run in runs:
        for name, ns in by_run[run].items():
            out[name.split(".")[0]] += ns
    return out

"""Append-only results cache for per-prime periods and digit counts.

Records are pure functions of the prime, so the file never needs updates or
deletions: one self-describing text line per prime, plus a version header.
Runs over overlapping ranges reuse earlier work; disabling the cache must
never change any output.

A line is ``p,l,T,k,f(0),...,f(9)``: the prime, its multiplier digit, its
period, the cofactor (p-1)/T and the period's digit counts.  Loading checks
every line before any command runs, in blocks of about 64 KiB (some 1,100
lines), each parsed by one ``json.loads`` and checked column by column:

- 14 fields, each a plain decimal integer (JSON grammar, so ``+5``, ``05``
  and ``5_0`` are refused, although ``int`` would read them);
- 2 <= p <= PRIME_CAP, and p is prime: one sieve up to the largest cached p
  answers, and Miller-Rabin only above ``_SIEVE_BOUND``;
- l is the digit with l*p = 9 (mod 10), T >= 1 and k*T = p - 1;
- the counts are nonnegative and sum to T;
- the counts obey the proven lemmas: f = N_p at full length (T = p - 1);
  f(d) = f(9-d) for an even T (Midy: 10^(T/2) = -1 mod p); and
  f(d) + f(9-d) = N_p(d) for an odd T = (p-1)/2 (-1 is then not a power of
  10, so the powers and their negatives are every unit once);
- a prime listed twice has the same record both times.

A block that breaks any of these is read again one line at a time through
``CacheRecord.from_line``, so that the error names the first bad line as
``path:line``.  The lemma checks apply to the file only; ``CacheRecord``
itself checks what it always has.

Concurrency contract: one writer, any number of readers.  Parallel census
workers hand their results to the single owning process, which appends.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import repeat
from operator import add, eq, itemgetter, mod, mul, sub
from typing import Iterable

from .numtheory import is_prime, prime_mask
from .sequence import _L_FOR_LSD, PRIME_CAP, ReciprocalSpec, _full_length_counts

__all__ = ["CACHE_HEADER", "CacheRecord", "CacheCorruptionError", "ResultCache"]

CACHE_HEADER = "dseq-cache,v1"

# Characters of the file parsed at once.  A parse of the whole file was no
# faster and held about 2 MB more at its peak when loading the 1e5 cache.
_BLOCK_CHARS = 1 << 16

# Cached primes up to this bound are checked against one sieve; a larger one
# (only a hand-made line near PRIME_CAP) gets Miller-Rabin instead of a mask
# of up to 2 GB.
_SIEVE_BOUND = 1 << 22

# l by p % 10, None where 10 is not invertible.
_L_BY_LAST_DIGIT = tuple(_L_FOR_LSD.get(c) for c in range(10))

# The fields p, l, T, k of a parsed line, and its counts as a tuple.
_HEAD = tuple(map(itemgetter, range(4)))
_COUNTS = itemgetter(*range(4, 14))


class CacheCorruptionError(Exception):
    """The cache file disagrees with itself or with a new record."""


@dataclass(frozen=True)
class CacheRecord(ReciprocalSpec):
    """A spec with the digit counts of its period: one line of the cache.

    The line also stores the cofactor (p-1)/period, which ``from_line``
    checks against the one the spec derives.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.counts) != 10 or min(self.counts) < 0:
            raise ValueError(f"record for {self.p}: need 10 nonnegative counts")
        if sum(self.counts) != self.period:
            raise ValueError(
                f"record for {self.p}: counts sum to {sum(self.counts)}, "
                f"period is {self.period}"
            )
        if not is_prime(self.p):
            raise ValueError(f"record for {self.p}: not prime")

    def to_line(self) -> str:
        return ",".join(
            str(x) for x in (self.p, self.l, self.period, self.cofactor, *self.counts)
        )

    @classmethod
    def from_line(cls, line: str) -> "CacheRecord":
        parts = line.split(",")
        if len(parts) != 14:
            raise ValueError(f"expected 14 fields, got {len(parts)}")
        p, l, period, cofactor, *counts = map(int, parts)
        rec = cls(p, l, period, tuple(counts))
        if cofactor != rec.cofactor:
            raise ValueError(f"record for {p}: cofactor*period != p-1")
        return rec

    @classmethod
    def _checked(cls, fields: Iterable[tuple]) -> list["CacheRecord"]:
        """Records of (p, l, period, counts) that already passed every check above."""
        # fields set one by one, as __init__ sets them: filling rec.__dict__ instead
        # materializes a dict per record, 1.3 MB more for the 1e5 cache
        new, setattr_ = object.__new__, object.__setattr__
        records = []
        for p, l, period, counts in fields:
            rec = new(cls)
            setattr_(rec, "p", p)
            setattr_(rec, "l", l)
            setattr_(rec, "period", period)
            setattr_(rec, "counts", counts)
            records.append(rec)
        return records


def _broken_lemma(p: Iterable[int], period: Iterable[int],
                  counts: Iterable[tuple[int, ...]]) -> str | None:
    """The first lemma that a record of these columns contradicts, or None."""
    for q, t, f in zip(p, period, counts):
        if t == q - 1:
            if f != _full_length_counts(q):
                return f"full length, but counts {f} are not N_p = {_full_length_counts(q)}"
        elif t % 2 == 0:
            if f != f[::-1]:
                return f"period {t} is even, but counts {f} are not mirrored"
        elif 2 * t == q - 1 and tuple(map(add, f, f[::-1])) != _full_length_counts(q):
            return (f"period {t} = (p-1)/2 is odd, but counts {f} do not "
                    f"complement to N_p = {_full_length_counts(q)}")
    return None


def _line_record(line: str) -> CacheRecord:
    """One line with every load check, one at a time; ValueError names the first broken."""
    rec = CacheRecord.from_line(line)
    try:
        json.loads(f"[{line}]")
    except ValueError:
        raise ValueError(
            f"record for {rec.p}: a field is not a plain decimal integer") from None
    failure = _broken_lemma((rec.p,), (rec.period,), (rec.counts,))
    if failure is not None:
        raise ValueError(f"record for {rec.p}: {failure}")
    return rec


class _Primes:
    """Primality of cached p: one sieve grown up to _SIEVE_BOUND, Miller-Rabin above it."""

    def __init__(self) -> None:
        self.mask = bytearray()

    def all_prime(self, ps: list[int]) -> bool:
        """Whether every p in ps (each >= 2) is prime."""
        top = max(ps)
        if top > _SIEVE_BOUND:
            top = max(filter(_SIEVE_BOUND.__ge__, ps), default=2)
        mask = self.mask
        if top >= len(mask):
            # at least doubled, so that a cache in ascending order sieves O(top) in all
            mask = self.mask = prime_mask(min(_SIEVE_BOUND, max(top, 2 * len(mask))))
        n = len(mask)
        return all(mask[p] if p < n else is_prime(p) for p in ps)


def _block_records(block: str, primes: _Primes) -> list[CacheRecord] | None:
    """The records of newline-separated lines if each passes every load check, else None."""
    # Only digits, commas and newlines: every field json reads is then a
    # nonnegative int, and no bracket can split or nest the rows.
    if block.encode().translate(None, b"0123456789,\n"):
        return None
    try:
        rows = json.loads("[[" + block.replace("\n", "],[") + "]]")
    except ValueError:  # an empty field, or a leading zero
        return None
    if set(map(len, rows)) != {14}:
        return None
    p, l, period, cofactor = (list(map(field, rows)) for field in _HEAD)
    counts = list(map(_COUNTS, rows))
    if not (min(p) >= 2 and max(p) <= PRIME_CAP and min(period) >= 1
            and all(map(eq, l, map(_L_BY_LAST_DIGIT.__getitem__, map(mod, p, repeat(10)))))
            and all(map(eq, map(mul, cofactor, period), map(sub, p, repeat(1))))
            and all(map(eq, map(sum, counts), period))
            and primes.all_prime(p)):
        return None
    if _broken_lemma(p, period, counts) is not None:
        return None
    return CacheRecord._checked(zip(p, l, period, counts))


class ResultCache:
    """Line-oriented cache file with an in-memory index.

    A truncated final line (interrupted writer) is skipped with a warning;
    any other malformed or self-contradictory content raises
    CacheCorruptionError.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._records: dict[int, CacheRecord] = {}
        self._fh = None
        self._clip_to: int | None = None  # byte length of the clean prefix
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        # bytes, so that the clip offset is a byte offset whatever the line ends
        with open(self.path, "rb") as fh:
            data = fh.read()
        end = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        try:
            text = data[:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheCorruptionError(f"{self.path}: not UTF-8 text: {exc}") from exc
        # universal newlines, as text mode would read them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        if end < len(data):
            # no trailing newline: an interrupted writer left a partial line
            import logging

            logging.getLogger(__name__).warning(
                "%s:%d: skipping truncated final line %r",
                self.path, text.count("\n") + 1, data[end:].decode("utf-8", "replace"),
            )
            self._clip_to = end
        if not text:
            return
        start = text.index("\n") + 1
        if text[: start - 1] != CACHE_HEADER:
            raise CacheCorruptionError(
                f"{self.path}: unrecognized header {text[: start - 1]!r}"
            )
        primes = _Primes()
        lineno = 2
        while start < len(text):
            stop = text.find("\n", start + _BLOCK_CHARS)
            if stop < 0:
                stop = len(text) - 1  # the text ends with a newline
            block = text[start:stop]
            records = _block_records(block, primes)
            if records is None:
                records = []
                for idx, line in enumerate(block.split("\n"), start=lineno):
                    try:
                        records.append(_line_record(line))
                    except ValueError as exc:
                        self._add_loaded(records, lineno)  # a conflict above comes first
                        raise CacheCorruptionError(f"{self.path}:{idx}: {exc}") from exc
            self._add_loaded(records, lineno)
            lineno += len(records)
            start = stop + 1

    def _add_loaded(self, records: list[CacheRecord], lineno: int) -> None:
        """Index the records of the lines from lineno on; a conflicting one is corruption."""
        index = self._records
        for idx, rec in enumerate(records, start=lineno):
            old = index.setdefault(rec.p, rec)
            if old is not rec and old != rec:
                raise CacheCorruptionError(
                    f"{self.path}:{idx}: conflicting records for prime {rec.p}"
                )

    def _writer(self):
        if self._fh is None:
            if self._clip_to is not None:
                # drop the truncated tail before writing anything new
                os.truncate(self.path, self._clip_to)
                self._clip_to = None
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._fh.write(CACHE_HEADER + "\n")
        return self._fh

    def lookup(self, p: int) -> CacheRecord | None:
        return self._records.get(p)

    def append(self, record: CacheRecord) -> None:
        """Add a record and flush it to the OS (no fsync); identical re-appends are no-ops."""
        self.append_many([record])

    def append_many(self, records: Iterable[CacheRecord]) -> None:
        fh = None
        for rec in records:
            existing = self._records.get(rec.p)
            if existing is not None:
                if existing != rec:
                    raise CacheCorruptionError(
                        f"new record for prime {rec.p} disagrees with cached one "
                        f"(cached values are pure functions of p; this is a bug)"
                    )
                continue
            fh = self._writer()
            fh.write(rec.to_line() + "\n")
            self._records[rec.p] = rec
        if fh is not None:
            fh.flush()

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Append-only results cache for per-prime periods and digit counts.

Records are pure functions of the prime, so the file never needs updates or
deletions: one self-describing text line per prime, plus a version header.
Runs over overlapping ranges reuse earlier work; disabling the cache must
never change any output.

Concurrency contract: one writer, any number of readers.  Parallel census
workers hand their results to the single owning process, which appends.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Iterable

from .numtheory import is_prime
from .sequence import ReciprocalSpec

__all__ = ["CACHE_HEADER", "CacheRecord", "CacheCorruptionError", "ResultCache"]

log = logging.getLogger(__name__)

CACHE_HEADER = "dseq-cache,v1"


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
        lines = text.split("\n")[:-1]
        if end < len(data):
            # no trailing newline: an interrupted writer left a partial line
            log.warning(
                "%s:%d: skipping truncated final line %r",
                self.path, len(lines) + 1, data[end:].decode("utf-8", "replace"),
            )
            self._clip_to = end
        if not lines:
            return
        if lines[0] != CACHE_HEADER:
            raise CacheCorruptionError(
                f"{self.path}: unrecognized header {lines[0]!r}"
            )
        for idx, line in enumerate(lines[1:], start=2):
            try:
                rec = CacheRecord.from_line(line)
            except ValueError as exc:
                raise CacheCorruptionError(f"{self.path}:{idx}: {exc}") from exc
            existing = self._records.get(rec.p)
            if existing is not None and existing != rec:
                raise CacheCorruptionError(
                    f"{self.path}:{idx}: conflicting records for prime {rec.p}"
                )
            self._records[rec.p] = rec

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

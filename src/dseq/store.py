"""Append-only results cache for per-prime periods and digit counts.

Records are pure functions of the prime, so the file never needs updates or
deletions: one self-describing text line per prime, plus a version header.
Runs over overlapping ranges reuse earlier work; disabling the cache must
never change any output.

A line is ``p,l,T,k,f(0),...,f(9)``: the prime, its multiplier digit, its
period, the cofactor (p-1)/T and the period's digit counts.  A line loads
when it is 14 plain decimal integers (no sign, and no ``+5``, ``05`` or
``5_0``, which ``int`` would read) and its fields obey the record rules.
``sequence._broken_record`` holds them, with their proofs, and names the
first that a line breaks, in this order:

- p <= PRIME_CAP, l*p = 9 (mod 10), k*T = p - 1, and p prime;
- k even exactly when 10 is a square mod p, which p mod 40 decides;
- the counts can be a period histogram of 1/p: they sum to T and obey the
  proven lemmas (N_p at full length, the Midy mirror for an even T, the
  complement for an odd T = (p-1)/2, and at half length the x2 relation or
  the class-number shape).

Loading reads blocks of about 64 KiB (some 1,100 lines).  Deleting a
block's digits must leave exactly 13 commas on every line and nothing else;
the block is then one flat ``json.loads`` of its fields, and column j is
``flat[j::14]``.  ``_fields`` is this grammar.  A block that fails it is
parsed line by line up to its first line that fails, and the rules check
the lines above.  ``_first_broken`` takes the block's primality from one
``numtheory.prime_flags`` call, which grows the process sieve only over
spans that the cached p fill densely.  The first bad line is named as
``path:line``.  The records are built straight from the columns, with no
per-record dict.  A prime listed twice must have the same record both
times.  ``CacheRecord(...)``, ``from_line`` and ``from_lines`` cut the
lines they stand for into the loader's own blocks, so the writer refuses
exactly what the reader refuses.  The census workers return lines, and the
cache appends the records it reads back from them as those very lines.

Memory: the count columns of every block loaded or appended go through one
sharing table, ``_shared``, whose item v is the int v, up to the largest
count seen below ``_SHARED_BELOW``; a column with a larger count is left as
parsed, so a record near PRIME_CAP does not grow it.  The full range's
78,496 records then hold 10^5 count ints, not 785,000.  No collector pass
runs while blocks become records (tuples of ints form no cycle), and the
file's bytes are dropped once they are decoded.

Snapshot: a load that checks every line spends most of its time parsing
and checking, so ``close`` seals what this cache checked (or appended)
beyond the snapshot it read into ``<path>.seal``.  That file holds the
index's rows as 13 native uint32 columns (p, l, T and the ten counts, 52
bytes a row) after one header line naming: the format; a digest of the
source of the modules that hold the rules (``numtheory``, ``sequence`` and
this one); the byte length, line count and digest of the csv prefix the
rows stand for; the number of rows; the largest count; and a digest of the
header before it and the columns.  The digests are blake2b, which the
interpreter has built in; hashlib's sha256 would map OpenSSL into every
command.  A load whose snapshot matches all of these, the prefix hashed in
chunks, builds the records from the columns (the counts through
``_shared``, unless one is ``_SHARED_BELOW`` or more), and checks only the
lines after the prefix, numbered from where it ends.  A missing, stale,
truncated, damaged or unreadable snapshot is ignored and every line is
checked, as without one.  The csv is the only source of truth: the snapshot
is written only from checked rows, under the csv's lock, through a
temporary file and ``os.replace``; a write that fails is skipped, and
deleting the snapshot is always safe.

Concurrency contract: any number of processes may read and append.  Each
``append_many`` is one write under an exclusive ``fcntl.flock``.  Under the
lock, a tail with no line break can only be torn, and is clipped first; then
the lines that other writers appended since this process last read the file
are checked and indexed as loading would, and only the records still new are
written.  So each prime is written once.  A record that contradicts the
index, another writer's included, raises ``CacheCorruptionError`` there,
before anything of its batch is written.  A batch that holds only records
already indexed takes no lock.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import os
import sys
from array import array
from collections import namedtuple
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

try:  # hashlib's very function, without hashlib's import of OpenSSL (3.7 MB resident)
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from . import numtheory, sequence
from .numtheory import prime_flags
from .sequence import PRIME_CAP, ReciprocalSpec, _broken_record

__all__ = ["CACHE_HEADER", "CacheRecord", "CacheCorruptionError", "ResultCache"]

CACHE_HEADER = "dseq-cache,v1"

# Characters of the file parsed at once.  A parse of the whole file was no
# faster and held about 2 MB more at its peak when loading the 1e5 cache.
_BLOCK_CHARS = 1 << 16

# What a line of 14 fields leaves when its digits are deleted.
_SKELETON_ROW = b"," * 13 + b"\n"

# The sharing table (see the module docstring).  Its cap, 2^18 ints or about
# 10 MB, is above every count of a prime below 2.6e6.
_SHARED_BELOW = 1 << 18
_shared: list[int] = []

# The snapshot (see the module docstring): its path is the cache's plus this
# suffix.  Its first line names the format; the columns are native uint32.
_SEAL_SUFFIX = ".seal"
_SEAL_FORMAT = f"dseq-seal,v1,{sys.byteorder},{array('I').itemsize}"
_SEAL_ROW_BYTES = 13 * array("I").itemsize  # p, l, T and the ten counts
_HASH_CHUNK = 1 << 20  # csv bytes hashed at once while a snapshot is checked
_DIGEST_HEX = 128  # characters of a blake2b digest in hex


class CacheCorruptionError(Exception):
    """The cache file disagrees with itself or with a new record."""


def _first_broken(p: Sequence, l: Sequence, period: Sequence, cofactor: Sequence,
                  counts: Sequence) -> tuple[int, str] | None:
    """The first row that breaks a record rule, with that rule's message, or None.

    The arguments are columns of one length, the fields of each row: the
    ints of a line that is 14 plain decimal integers, so none is negative.
    ``sequence._broken_record`` names the first rule a row breaks.  A p above
    PRIME_CAP breaks the first rule, so it is neither sieved nor proved prime.
    """
    prime = prime_flags([n if n <= PRIME_CAP else 0 for n in p])
    for row, broken in enumerate(map(_broken_record, p, l, period, cofactor, counts, prime)):
        if broken is not None:
            return row, f"record for {p[row]}: {broken}"
    return None


def _line(p: int, l: int, period: int, cofactor: int, counts: tuple[int, ...]) -> str:
    return ",".join(map(str, (p, l, period, cofactor, *counts)))


class CacheRecord(namedtuple("CacheRecord", "p l period counts"), ReciprocalSpec):
    """A spec with the digit counts of its period: one line of the cache.

    The line also stores the cofactor (p-1)/period.  Making a record checks
    its line as loading would; loading itself builds records of rows it has
    already checked with ``tuple.__new__``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        k = (self.p - 1) // self.period if self.period else 0
        self.from_lines([_line(self.p, self.l, self.period, k, self.counts)])

    def to_line(self) -> str:
        return _line(self.p, self.l, self.period, self.cofactor, self.counts)

    @classmethod
    def from_line(cls, line: str) -> "CacheRecord":
        (record,) = cls.from_lines([line])  # and ValueError for more than one line
        return record

    @classmethod
    def from_lines(cls, lines: list[str]) -> list["CacheRecord"]:
        """The records of these lines; ValueError unless every line would load."""
        records = []
        with _collector_paused():
            for block, failure in _blocks("".join(line + "\n" for line in lines), 0):
                if failure is not None:
                    raise ValueError(failure[1])
                records += block
        return records


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """No cyclic-collector pass while records are built: tuples of ints form no cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _share(column: list[int]) -> Sequence[int]:
    """The column's values (no sign: see _fields) as the sharing table's ints, the
    table grown to hold them; the column as it is if one is _SHARED_BELOW or more."""
    if not column:
        return column
    try:
        shared = itemgetter(*column)(_shared)
    except IndexError:
        top = max(column)
        if top >= _SHARED_BELOW:
            return column
        _shared.extend(range(len(_shared), top + 1))
        shared = itemgetter(*column)(_shared)
    return shared if len(column) > 1 else (shared,)


def _fields(lines: str) -> list[int] | None:
    """The fields of these lines in one list, or None unless every line is 14
    plain decimal integers."""
    import json  # here: a load that the snapshot serves whole parses no json

    # Only digits, and 13 commas a line: every field json reads is then a
    # nonnegative int, and every line has 14 of them.
    skeleton = lines.encode().translate(None, b"0123456789") + b"\n"
    if skeleton != _SKELETON_ROW * (len(skeleton) // 14):
        return None
    try:
        return json.loads("[" + lines.replace("\n", ",") + "]")
    except ValueError:  # an empty field, a leading zero, or more digits than int() reads
        return None


def _block_records(block: str) -> tuple[list[CacheRecord], tuple[int, str] | None]:
    """The records of a block's lines above the first bad one, and that line's
    row with why it is bad, or None."""
    flat, failure = _fields(block), None
    if flat is None:  # the fields of the lines above the first bad one, line by line
        flat = []
        for row, fields in enumerate(map(_fields, block.split("\n"))):
            if fields is None:
                failure = row, "not 14 plain decimal integers"
                break
            flat += fields
    p, l, period, cofactor = (flat[j::14] for j in range(4))
    counts = list(zip(*(_share(flat[j::14]) for j in range(4, 14))))
    failure = _first_broken(p, l, period, cofactor, counts) or failure  # a line above comes first
    good = len(p) if failure is None else failure[0]
    rows = islice(zip(p, l, period, counts), good)
    return list(map(tuple.__new__, repeat(CacheRecord), rows)), failure


def _blocks(text: str, start: int) -> Iterator[tuple[list[CacheRecord], tuple[int, str] | None]]:
    """_block_records of each block of about _BLOCK_CHARS of text's whole lines
    from index start on; text ends with a line break."""
    while start < len(text):
        stop = text.find("\n", start + _BLOCK_CHARS)
        if stop < 0:
            stop = len(text) - 1
        yield _block_records(text[start:stop])
        start = stop + 1


@functools.cache
def _rules_digest() -> str:
    """A digest of the source of the modules that hold the record rules and this loader."""
    digest = blake2b()
    for path in (numtheory.__file__, sequence.__file__, __file__):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _conflict(p: int) -> str:
    return (f"new record for prime {p} disagrees with cached one "
            f"(cached values are pure functions of p; this is a bug)")


def _clean_end(data: bytes) -> int:
    """The byte length of data up to its last line break."""
    return max(data.rfind(b"\n"), data.rfind(b"\r")) + 1


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
        self._read: dict[int, str] = {}  # lines that _append_lines has checked, by p
        self._end = 0  # bytes of the file read so far, all whole lines
        self._lines = 0  # and their number
        self._hash = blake2b()  # of those bytes
        self._sealed: int | None = 0  # bytes the snapshot read stands for; None: never seal
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            try:
                self._unseal(fh)
            except (OSError, ValueError, EOFError):  # no snapshot of this file: check it all
                fh.seek(0)
            data = fh.read()  # what follows the snapshot's prefix, if one was read
        end = _clean_end(data)
        text = self._decoded(data[:end])
        self._hash.update(memoryview(data)[:end])
        if end < len(data):
            # no trailing newline: an interrupted writer left a partial line
            import logging

            logging.getLogger(__name__).warning(
                "%s:%d: skipping truncated final line %r",
                self.path, self._lines + text.count("\n") + 1,
                data[end:].decode("utf-8", "replace"),
            )
        del data  # indexing needs only the text
        self._index(text, end)

    def _unseal(self, fh) -> None:
        """Index the rows of the snapshot, and read fh up to the end of the csv
        prefix it stands for; ValueError, EOFError or OSError, with nothing
        indexed, unless the snapshot is whole and stands for that prefix under
        these rules."""
        with open(self.path + _SEAL_SUFFIX, "rb") as seal:
            header = seal.readline(1024)
            head, digest = header[:-_DIGEST_HEX - 1], header[-_DIGEST_HEX - 1:-1].decode("ascii")
            form, rules, *numbers, prefix = head.decode("ascii").split()
            size, lines, rows, top = map(int, numbers)  # and ValueError for a bad header
            if (form, rules) != (_SEAL_FORMAT, _rules_digest()) or min(size, lines) < 1 or \
                    os.fstat(seal.fileno()).st_size != len(header) + rows * _SEAL_ROW_BYTES:
                raise ValueError("not a snapshot of this file")
            prefix_hash, left = blake2b(), size
            while left:
                chunk = fh.read(min(left, _HASH_CHUNK))
                if not chunk:
                    raise EOFError("the file is shorter than the snapshot's prefix")
                prefix_hash.update(chunk)
                left -= len(chunk)
            if prefix_hash.hexdigest() != prefix or chunk[-1:] + fh.peek(1)[:1] == b"\r\n":
                raise ValueError("the prefix differs, or ends inside a line break")
            payload, columns = blake2b(head), []
            for _ in range(13):
                columns.append(array("I"))
                columns[-1].fromfile(seal, rows)
                payload.update(columns[-1])
            if payload.hexdigest() != digest:
                raise ValueError("the snapshot is damaged")
        p, l, period, *counts = columns
        if top < _SHARED_BELOW:
            _shared.extend(range(len(_shared), top + 1))
            counts = [map(_shared.__getitem__, column) for column in counts]
        with _collector_paused():
            records = map(tuple.__new__, repeat(CacheRecord), zip(p, l, period, zip(*counts)))
            self._records = {rec[0]: rec for rec in records}
        self._end = self._sealed = size
        self._lines = lines
        self._hash = prefix_hash

    def _seal(self) -> None:
        """Write the snapshot of the rows indexed so far, under the file's lock, through
        a temporary file; skipped if any of it fails: the snapshot only saves time."""
        import fcntl

        path = self.path + _SEAL_SUFFIX
        records = self._records.values()
        counts = list(map(itemgetter(3), records))
        columns = [*(map(itemgetter(j), records) for j in range(3)),  # p, l, T
                   *(map(itemgetter(d), counts) for d in range(10))]  # f(0)..f(9)
        with contextlib.suppress(OSError), open(self.path, "rb") as lock:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)  # released when lock is closed
            try:
                with open(path + ".tmp", "wb") as out:
                    top = max(map(max, counts), default=0)
                    head = (f"{_SEAL_FORMAT} {_rules_digest()} {self._end} {self._lines} "
                            f"{len(records)} {top} {self._hash.hexdigest()} ").encode()
                    out.write(head + b"0" * _DIGEST_HEX + b"\n")  # the digest, written last
                    payload = blake2b(head)
                    for column in map(array, repeat("I"), columns):  # one at a time
                        payload.update(column)
                        column.tofile(out)
                    out.seek(len(head))
                    out.write(payload.hexdigest().encode())
                os.replace(path + ".tmp", path)
            except (OSError, OverflowError):
                os.unlink(path + ".tmp")

    def _decoded(self, data: bytes) -> str:
        """data as text with universal newlines, as text mode would read it."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheCorruptionError(f"{self.path}: not UTF-8 text: {exc}") from exc
        return text.replace("\r\n", "\n").replace("\r", "\n")

    def _index(self, text: str, size: int) -> None:
        """Check and index text, the whole lines that follow what this cache has
        read of the file (from the header on, if nothing), size bytes of it."""
        self._end += size
        if not text:
            return
        sealed, self._sealed = self._sealed, None  # no snapshot of a file that fails its check
        start = 0
        if self._lines == 0:
            start = text.index("\n") + 1
            if text[: start - 1] != CACHE_HEADER:
                raise CacheCorruptionError(
                    f"{self.path}: unrecognized header {text[: start - 1]!r}"
                )
        lineno = self._lines + 1 + (start > 0)
        with _collector_paused():
            for records, failure in _blocks(text, start):
                self._add_loaded(records, lineno)  # a conflict above the bad line comes first
                if failure is not None:
                    raise CacheCorruptionError(f"{self.path}:{lineno + failure[0]}: {failure[1]}")
                lineno += len(records)
        self._lines = lineno - 1
        self._sealed = sealed

    def _add_loaded(self, records: list[CacheRecord], lineno: int) -> None:
        """Index the records of the lines from lineno on; a conflicting one is corruption."""
        index = self._records
        for idx, rec in enumerate(records, start=lineno):
            old = index.setdefault(rec.p, rec)
            if old is not rec and old != rec:
                raise CacheCorruptionError(
                    f"{self.path}:{idx}: conflicting records for prime {rec.p}"
                )

    def _write(self, records: dict[int, CacheRecord]) -> None:
        """Append the records (by p) that are still new in one locked write and
        flush, after the header on an empty file.

        Under the lock, the records that other writers appended since this cache
        last saw the end of the file are checked and indexed first, as loading
        would, so that none of theirs is written twice.  A record that disagrees
        with the index then raises, and nothing is written.
        """
        import fcntl  # here, not at the top: commands that only read never load it

        if self._fh is None:
            self._fh = open(self.path, "ab+")
        fd = self._fh.fileno()
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            # no writer is part-way through a write now, so a tail with no line
            # break is torn (by this or another process): clip it
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) not in (b"\n", b"\r"):
                size = _clean_end(os.pread(fd, size, 0))
                os.ftruncate(fd, size)
            if size < self._end:
                raise CacheCorruptionError(
                    f"{self.path}: shrank to {size} bytes from the {self._end} read")
            theirs = os.pread(fd, size - self._end, self._end)
            self._index(self._decoded(theirs), len(theirs))
            self._hash.update(theirs)
            index = self._records
            for p, rec in records.items():
                if index.get(p, rec) != rec:
                    raise CacheCorruptionError(_conflict(p))
            new = [rec for p, rec in records.items() if p not in index]
            text = "".join((self._read.get(rec.p) or rec.to_line()) + "\n" for rec in new)
            if size == 0:
                text = CACHE_HEADER + "\n" + text
            data = text.encode("utf-8")
            self._fh.write(data)
            self._fh.flush()
            self._hash.update(data)
            self._end += len(data)
            self._lines += text.count("\n")
            index.update((rec.p, rec) for rec in new)
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def lookup(self, p: int) -> CacheRecord | None:
        return self._records.get(p)

    def append(self, record: CacheRecord) -> None:
        """Add a record and flush it to the OS (no fsync); identical re-appends are no-ops."""
        self.append_many([record])

    def append_many(self, records: Iterable[CacheRecord]) -> None:
        """Add the new records in one write (see append); a batch with a conflict
        writes nothing."""
        batch: dict[int, CacheRecord] = {}
        for rec in records:
            if batch.setdefault(rec.p, rec) != rec:
                raise CacheCorruptionError(f"two different records for prime {rec.p} in one "
                                           "batch (records are pure functions of p; this is a bug)")
        index = self._records
        if any(index.get(p) != rec for p, rec in batch.items()):
            self._write(batch)  # which checks them against the index, under the lock

    def _append_lines(self, lines: list[str]) -> list[CacheRecord]:
        """The records of these lines, as CacheRecord.from_lines; the new ones are
        appended as these very lines, through append_many."""
        records = CacheRecord.from_lines(lines)
        # a line that loads is its record's to_line(), so the pairing is by p alone
        self._read = {rec.p: line for rec, line in zip(records, lines)}
        try:
            self.append_many(records)
        finally:
            self._read = {}
        return records

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """Close the file, and seal what this cache has checked beyond the snapshot it read."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._sealed is not None and self._end > self._sealed:
            self._sealed = self._end
            self._seal()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Listening-event log ingestion and the per-user event table.

Parses newline-delimited, tab-separated listening events in the column
layout a ``ColumnSchema`` names, and assigns dense integer ids to users
and artists in first-seen order. All produced arrays are read-only after
loading. Timestamps are uint32, which holds every Unix second until
2106, unless the log holds one of 2**32 or more: the first block that
does widens the column to int64, once, and it stays int64.

``load_events`` reads a path or binary stream once, ``CHUNK_SIZE`` bytes
at a time, and hashes those same bytes for the run manifest. Lines end as
under universal newlines. numpy parses each block of whole lines at once,
each line by its own column count, so extra columns are ignored as
``parse_event_line`` ignores them. ``parse_event_line`` remains the only
judge of the line rules and sees only the lines numpy cannot vouch for:
too few columns, timestamps that are not 1 to 18 ASCII digits, keys
longer than 8 bytes, lines holding a NUL, and, in a block that is not
valid UTF-8, lines holding a byte that is not ASCII.

Every key has a uint64 code. A key of at most 8 UTF-8 bytes without a
NUL is coded by its bytes read little-endian, which numpy reads straight
from the block, so no ``str`` is built for it. Any other key is long:
the first time it is coded it joins a dict of long keys, and its code is
the number of long keys before it under a top byte of 0xFF, which no
UTF-8 byte is. Each block becomes one array of user codes and one of
artist codes, in line order, however each line was parsed. An ``IdMap``
looks a block's distinct codes, from ``np.unique``, up in sorted runs of
codes and ids, and gives the missing ones the next ids in order of their
first line, so ids are dense and follow each key's first line. The runs
are the only copy of the codes: a key takes 12 bytes there, and a long
key about 75 bytes more for its dict entry and code, besides its ``str``.
A log read whole keeps its events in columns that grow in place by a
quarter past their end.

``build_user_histories`` reduces the log to one ``UserHistories`` table of
(user, artist) pair rows and keeps no event. Ids follow first sight, so a
log whose lines come user by user never lowers its user id: such a log is
grouped already. Given the build's ``fraction`` and ``bll_d``, as
``cli.run_stages`` gives them, ``load_events`` reduces a grouped regular file
as it reads: after each block, the batches of whole users that no later
line can change become pair rows, and only the events of the batch being
filled wait in the parser's columns, so no column as long as the log
exists. A file whose user ids turn out to decrease is read again whole;
a stream, a pipe or any other path that is not a regular file is read
whole from the start, as it cannot be read again. The build hands over a
table that ingest reduced, and groups any log that still has its columns
by a stable argsort of its users and gathers of the artist and timestamp
columns, which keep their order on a grouped log. Either way each batch
of whole users is sorted twice, each time with ``np.sort`` on unique
packed uint64 keys: by user then timestamp, which puts each user's test
events last, then by user then artist, which gives one row per pair. A
row holds its play count, which mainstreaminess reads, and its test
plays and the latest play and ``bll`` activation sum of its training
plays, from which ``split.split_histories`` selects the train table and
the test keys. The table is plain arrays: a user's history is its slice
of them, read in place.
"""

from __future__ import annotations

import bisect
import gzip
import hashlib
import math
import os
import stat
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import DataError, ParseError, UsageError

INT64_MAX = 2**63 - 1
MAX_COLUMN = 2**31 - 1
"""The largest schema column index. Larger ones would overflow the int64 offset
arithmetic that locates each field, and no log has that many columns."""


@dataclass(frozen=True)
class ColumnSchema:
    """Which tab-separated columns hold the user key, artist key and timestamp.

    Extra columns (album/track ids in LFM-1b files) are ignored.
    """

    user: int
    artist: int
    ts: int

    def __post_init__(self):
        cols = (self.user, self.artist, self.ts)
        if not all(0 <= c <= MAX_COLUMN for c in cols):
            raise UsageError(f"schema column indices must be in 0..{MAX_COLUMN}")
        if len(set(cols)) != 3:
            raise UsageError("schema column indices must be distinct")

    @property
    def min_columns(self) -> int:
        return max(self.user, self.artist, self.ts) + 1

    @classmethod
    def parse(cls, spec: str) -> "ColumnSchema":
        """Parse a spec like ``user=0,artist=1,ts=4``."""
        fields: dict[str, int] = {}
        for part in spec.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in ("user", "artist", "ts"):
                raise UsageError("schema entries must look like user=N,artist=N,ts=N")
            if key in fields:
                raise UsageError(f"schema names the {key!r} column twice")
            try:
                fields[key] = int(value)
            except ValueError:
                raise UsageError(f"schema column for {key!r} must be an integer") from None
        missing = {"user", "artist", "ts"} - fields.keys()
        if missing:
            raise UsageError(f"schema is missing columns: {', '.join(sorted(missing))}")
        return cls(**fields)


_LONG = 0xFF << 56
"""The code of a long key, one that its bytes do not code, is ``_LONG`` plus the number of
long keys coded before it. No key's bytes code that high, as 0xFF never occurs in UTF-8."""


class IdMap:
    """Bijection between external string keys and dense ids, in first-seen order.

    Every key has a uint64 code: its bytes read little-endian if it is at
    most 8 UTF-8 bytes without a NUL, else ``_LONG`` plus the number of long
    keys coded before it. A dict maps each long key to its code, in code
    order. The codes are held only in sorted runs with the id of each. A new
    run is merged into the one below it while that one is at most twice its
    size, so there are O(log n) runs and each code is copied O(log n) times
    in all. A ``str`` is built for a key coded by its bytes only when
    ``keys()`` is called; it is the only way from ids back to keys, and a
    caller that looks keys up builds one dict from it.
    """

    def __init__(self):
        self._size = 0
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []  # (sorted codes, their int32 ids), largest first
        self._long_codes: dict[str, int] = {}  # in code order

    def code_all(self, keys: list[str]) -> np.ndarray:
        """The code of each of ``keys``, which must encode as UTF-8; new long keys get the next long codes.

        Each distinct key is coded once per call.
        """
        codes = dict.fromkeys(keys)  # each once, in order of first occurrence
        for key in codes:
            raw = key.encode("utf-8")
            if len(raw) <= _MAX_VECTOR_KEY and b"\0" not in raw:
                codes[key] = int.from_bytes(raw, "little")  # as _gather_keys reads it
            else:
                codes[key] = self._long_codes.setdefault(key, _LONG | len(self._long_codes))
        return np.fromiter(map(codes.__getitem__, keys), np.uint64, len(keys))

    def densify(self, codes: np.ndarray) -> np.ndarray:
        """Ids of ``codes``; codes not seen before get the next ids in order of their first occurrence."""
        unique, inverse = np.unique(codes, return_inverse=True)
        ids = self._find(unique)
        new = np.flatnonzero(ids < 0)
        if new.size:
            first = np.full(unique.size, len(codes), dtype=np.intp)
            np.minimum.at(first, inverse, np.arange(len(codes)))  # each unique code's first occurrence
            size = self._size + new.size
            ids[new[np.argsort(first[new])]] = np.arange(self._size, size)
            self._add_run(unique[new], ids[new])
            self._size = size
        return ids[inverse]

    def _add_run(self, codes: np.ndarray, ids: np.ndarray) -> None:
        """Hold the sorted new ``codes`` and their ids as a run."""
        self._runs.append((codes, ids))
        while len(self._runs) > 1 and len(self._runs[-2][0]) <= 2 * len(self._runs[-1][0]):
            self._merge_top()

    def _merge_top(self) -> None:
        """Merge the two smallest runs; their codes are distinct."""
        (codes, ids), (top_codes, top_ids) = self._runs[-2:]
        at = np.searchsorted(codes, top_codes)
        self._runs[-2:] = [(np.insert(codes, at, top_codes), np.insert(ids, at, top_ids))]

    def _find(self, codes: np.ndarray) -> np.ndarray:
        """The id of each of the sorted ``codes``; -1 for codes not held."""
        ids = np.full(len(codes), -1, dtype=np.int32)
        for run_codes, run_ids in self._runs:
            pos = np.searchsorted(run_codes, codes)
            np.minimum(pos, len(run_codes) - 1, out=pos)
            hit = run_codes[pos] == codes
            ids[hit] = run_ids[pos[hit]]
        return ids

    def keys(self) -> list[str]:
        """Every key, in id order."""
        if not self._size:
            return []
        codes = np.zeros(self._size, dtype="<u8")
        for run_codes, run_ids in self._runs:
            codes[run_ids] = run_codes
        long = np.flatnonzero(codes >= np.uint64(_LONG))
        long_codes = (codes[long] - np.uint64(_LONG)).tolist()
        codes[long] = 0
        # A key coded by its bytes holds no NUL, and S8 drops the padding NULs.
        keys = b"\x00".join(codes.view("S8").tolist()).decode("utf-8").split("\x00")
        long_keys = list(self._long_codes)
        for i, code in zip(long.tolist(), long_codes):
            keys[i] = long_keys[code]
        return keys

    def __len__(self) -> int:
        return self._size


@dataclass
class IdMaps:
    users: IdMap = field(default_factory=IdMap)
    artists: IdMap = field(default_factory=IdMap)


@dataclass
class EventLog:
    """Flat event store: parallel arrays of user id, artist id, timestamp.

    ``build_user_histories`` reduces the three arrays to pair rows and leaves
    them None. A log that ``load_events`` reduced as it read never had them:
    it holds the table in ``reduced`` until the build hands it over.
    ``n_events``, and so ``len``, counts the events at every stage.
    """

    users: np.ndarray | None  # int32, one entry per event
    artists: np.ndarray | None  # int32
    timestamps: np.ndarray | None  # uint32 Unix seconds; int64 if any is >= 2**32
    id_maps: IdMaps
    sha256: str | None = None  # of the source file's bytes, as read; None for streams
    n_events: int | None = None  # the length of the columns when not given
    reduced: tuple[UserHistories, float, float] | None = None  # the table, its fraction and its bll_d

    def __post_init__(self):
        if self.n_events is None:
            self.n_events = len(self.timestamps)

    def __len__(self) -> int:
        return self.n_events


@dataclass(eq=False)
class UserHistories:
    """Every user's history as (user, artist) pair rows in one columnar table, indexed by user id.

    The pair rows are one per (user, artist) played in this table, sorted
    by user then artist, with the play count; user u's are
    ``[pair_offsets[u]:pair_offsets[u + 1]]``, with the latest play and
    activation sum of its training plays. No event is kept. A table built
    from a log also holds each row's plays among the user's test events at
    the build's fraction; a train table, which ``split.split_histories``
    selects from its rows, counts training plays only. Readers slice these
    arrays themselves; no per-user object is built. A user id with no
    events here has ``n_events`` 0 and no pair rows.
    """

    n_events: np.ndarray  # int64, per user id
    pair_offsets: np.ndarray  # int64, per user id, plus one
    pair_artists: np.ndarray  # int32, per pair row
    pair_counts: np.ndarray  # int32, per pair row
    pair_last: np.ndarray  # the log's dtype: latest training play, 0 if none
    pair_bll: np.ndarray  # float64: activation sum of the training plays
    pair_test_counts: np.ndarray | None = None  # int32: plays among the user's test events; built tables only


def parse_event_line(line: str, schema: ColumnSchema, line_no: int = 0) -> tuple[str, str, int]:
    """Extract (user key, artist key, timestamp) from one tab-separated record.

    A timestamp is ASCII digits, optionally after a ``-`` that makes it a
    negative one, which is an error of its own. Files are decoded with
    ``errors="surrogateescape"``, so bytes that are not UTF-8 arrive here as
    lone surrogates and are rejected.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"line {line_no}: not valid UTF-8", line_no) from None
    fields = line.rstrip("\n").rstrip("\r").split("\t")
    if len(fields) < schema.min_columns:
        raise ParseError(
            f"line {line_no}: expected at least {schema.min_columns} columns, got {len(fields)}",
            line_no,
        )
    user_key = fields[schema.user]
    artist_key = fields[schema.artist]
    raw_ts = fields[schema.ts]
    digits = raw_ts[1:] if raw_ts.startswith("-") else raw_ts
    try:
        if not (digits.isascii() and digits.isdigit()):  # int() would take '+7', ' 7', '1_000' and '١٢٣'
            raise ValueError
        ts = int(raw_ts)  # raises ValueError beyond Python's limit on digits
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer timestamp {raw_ts!r}", line_no) from None
    if ts < 0:
        raise ParseError(f"line {line_no}: negative timestamp {ts}", line_no)
    if ts > INT64_MAX:
        raise ParseError(f"line {line_no}: timestamp {ts} exceeds the int64 range", line_no)
    return user_key, artist_key, ts


CHUNK_SIZE = 1 << 17
"""Bytes read per step. A block's temporary arrays are a few times this size.
They are freed when the block is done, the allocator trims the heap top they
sat in, and the next block faults those pages in again. Larger chunks parse a
little faster but raise the run's peak memory. A grouped file reduced as it is
read holds about one block's events and one batch's (``_BATCH_EVENTS``) besides."""

_MAX_VECTOR_KEY = 8
"""Longer keys go through ``parse_event_line``: keys that fit in a uint64 sort
faster than byte strings (ingest of the long-histories benchmark input took 0.33 s
against 0.58 s for the same keys gathered as ``S8``, medians of 10 alternating runs
on a 2-core Xeon)."""

_PAD = 24  # the widest window read around a field: the three words of an 18-digit timestamp
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_ZEROS = np.uint64(0x3030303030303030)  # '0' in every byte
_SIXES = np.uint64(0x0606060606060606)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_DIGIT_PAIRS = np.uint64(0x00FF00FF00FF00FF)
_DIGIT_QUADS = np.uint64(0x0000FFFF0000FFFF)


class _Sha256Reader:
    """A binary file whose bytes also go into a SHA-256 as they are read."""

    def __init__(self, raw):
        self.raw = raw
        self.digest = hashlib.sha256()

    def read(self, size):
        data = self.raw.read(size)
        self.digest.update(data)
        return data


def _whole_lines(data: bytes) -> int:
    """Bytes up to ``data``'s last line end; a final ``\\r`` is none yet, as a ``\\n`` may follow it."""
    return max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1


_GZIP_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)
"""What the gzip reader raises on a stream cut short (EOFError), on corrupt deflate data
(zlib.error), and on a bad header or checksum (BadGzipFile, an OSError)."""


def _byte_blocks(read) -> Iterator[bytes]:
    """Blocks of at least ``CHUNK_SIZE`` bytes of whole lines from ``read(CHUNK_SIZE)``.

    Only the last block may be shorter or lack its line end. Each block ends
    just after a ``\\n`` or a lone ``\\r``, which end a line under universal
    newlines and are never part of a multi-byte UTF-8 character, so a block
    splits and decodes as it would inside the whole stream. When ``read``
    raises one of ``_GZIP_ERRORS`` (a gzip stream cut short or corrupt), the
    whole lines read before it come out first.
    """
    pending: list[bytes] = []
    size = 0
    try:
        while chunk := read(CHUNK_SIZE):
            size += len(chunk)
            cut = _whole_lines(chunk)
            if size < CHUNK_SIZE or not cut:
                pending.append(chunk)
                continue
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = [chunk[cut:]]
            size = len(pending[0])
    except _GZIP_ERRORS:
        data = b"".join(pending)
        cut = _whole_lines(data)
        if cut:
            yield data[:cut]
        raise
    tail = b"".join(pending)
    if tail:
        yield tail


def _is_utf8(data: bytes) -> bool:
    if data.isascii():
        return True
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _parse_digits(padded: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the fields ``[start:end]`` of a ``_pad`` block and which are 1 to 18 ASCII digits.

    Eight digits per pass over all fields, from the last 8 bytes of each
    field back: a pass reads 8 bytes as one word from the overlapping view
    of ``_words``, turns the bytes before the field into ``'0'``, checks that
    every byte is a digit (its high nibble is 3, and stays 3 when 6 is
    added), and combines the digits in three multiply-shift steps. Horner's
    rule in base 10**8 joins the passes. 18 digits cannot exceed the int64
    range; other fields get no usable value.
    """
    length = end - start
    ok = (length >= 1) & (length <= 18)
    width = int(length[ok].max()) if ok.any() else 1
    words = _words(padded)
    values = np.zeros(len(start), dtype=np.uint64)
    for j in range((width - 1) // 8, -1, -1):  # the word ending 8 * j bytes before each field's end
        outside = _LOW_BYTES[8 - np.clip(length - 8 * j, 0, 8)]  # the bytes before the field
        word = words[end + (_PAD - 8 - 8 * j)] & ~outside | _ZEROS & outside
        ok &= (word & _HIGH_NIBBLES == _ZEROS) & ((word + _SIXES) & _HIGH_NIBBLES == _ZEROS)
        word -= _ZEROS  # one digit per byte, the first one lowest
        word = (word * np.uint64(10 << 8 | 1)) >> np.uint64(8) & _DIGIT_PAIRS
        word = (word * np.uint64(100 << 16 | 1)) >> np.uint64(16) & _DIGIT_QUADS
        word = (word * np.uint64(10_000 << 32 | 1)) >> np.uint64(32)
        values *= np.uint64(10**8)
        values += word
    return values.view(np.int64), ok


def _gather_keys(padded: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The fields ``[start:end]`` of a ``_pad`` block, of at most 8 bytes each, as
    NUL-padded little-endian uint64, which view as ``S8`` gives the bytes back.

    One gather from ``_words``.
    """
    return _words(padded)[start + _PAD] & _LOW_BYTES[end - start]


def _words(padded: np.ndarray) -> np.ndarray:
    """A view of ``padded`` as overlapping, unaligned little-endian uint64, one per byte offset."""
    return np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))


def _pad(buf: np.ndarray) -> np.ndarray:
    """``buf`` with ``_PAD`` zero bytes on each side, so fixed-width windows around any field stay inside."""
    padded = np.zeros(len(buf) + 2 * _PAD, dtype=np.uint8)
    padded[_PAD:-_PAD] = buf
    return padded


class _ChunkParser:
    """Turns blocks of whole lines into event arrays and the id maps.

    The event columns grow in place (realloc) by a quarter past their end, so
    the events are never held twice.
    """

    def __init__(self, schema: ColumnSchema, on_error: str):
        self.schema = schema
        self.on_error = on_error
        self.id_maps = IdMaps()
        self.lines = 0  # lines consumed, so line numbers continue across blocks
        self.skipped = 0
        self.size = 0  # events stored
        self.columns = (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.uint32))

    def add(self, data: bytes) -> None:
        if b"\r" in data:  # universal newlines: \r\n, then any other \r, ends a line
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.endswith(b"\n"):
            data += b"\n"  # the input's last line lacks its newline
        buf = np.frombuffer(data, dtype=np.uint8)
        is_newline = buf == ord("\n")
        delims = np.flatnonzero(is_newline | (buf == ord("\t")))
        line_ends = np.flatnonzero(is_newline[delims])  # each line's newline, as an index into delims
        n_columns = np.diff(line_ends, prepend=-1)

        # Leave to parse_event_line the lines with too few columns, those with a NUL (keys
        # viewed as S8 lose trailing NULs) and, where the block is not UTF-8, those with a
        # non-ASCII byte.
        take = n_columns >= self.schema.min_columns
        odd = buf == 0
        if not _is_utf8(data):
            odd |= buf >= 0x80
        line_bounds = np.concatenate(([-1], delims[line_ends]))  # -1, then each line's newline
        take[np.searchsorted(line_bounds, np.flatnonzero(odd)) - 1] = False
        bounds = np.concatenate(([-1], delims))
        first_delim = (line_ends - n_columns + 1)[take]

        def field(column):
            return bounds[first_delim + column] + 1, bounds[first_delim + column + 1]

        padded = _pad(buf)
        values, ok = _parse_digits(padded, *field(self.schema.ts))
        user_start, user_end = field(self.schema.user)
        artist_start, artist_end = field(self.schema.artist)
        ok &= (user_end - user_start <= _MAX_VECTOR_KEY) & (artist_end - artist_start <= _MAX_VECTOR_KEY)
        take[take] = ok
        # Each line's key codes and timestamp; _append sets those of the other lines.
        users = np.zeros(len(line_ends), dtype=np.uint64)
        artists = np.zeros(len(line_ends), dtype=np.uint64)
        timestamps = np.zeros(len(line_ends), dtype=np.int64)
        users[take] = _gather_keys(padded, user_start[ok], user_end[ok])
        artists[take] = _gather_keys(padded, artist_start[ok], artist_end[ok])
        timestamps[take] = values[ok]

        rest = np.flatnonzero(~take)
        starts = (line_bounds[rest] + 1).tolist()
        ends = line_bounds[rest + 1].tolist()
        texts = (data[s:e].decode("utf-8", "surrogateescape") for s, e in zip(starts, ends))
        self._append(take, users, artists, timestamps, zip(rest.tolist(), texts))
        self.lines += len(line_ends)

    def _append(self, take, users, artists, timestamps, rest_lines) -> None:
        """Add a block's accepted lines, in line order.

        ``take`` marks the lines numpy parsed, whose key codes and timestamps are set.
        The other lines come as (index, text) pairs; each that ``parse_event_line``
        accepts gets its codes and timestamp set at its index and is taken too.
        """
        rest_index: list[int] = []
        rest_users: list[str] = []
        rest_artists: list[str] = []
        rest_timestamps: list[int] = []
        for i, line in rest_lines:
            try:
                user_key, artist_key, ts = parse_event_line(line, self.schema, self.lines + i + 1)
            except ParseError:
                if self.on_error == "fail":
                    raise
                self.skipped += 1
                continue
            rest_index.append(i)
            rest_users.append(user_key)
            rest_artists.append(artist_key)
            rest_timestamps.append(ts)

        if rest_index:
            parsed = np.array(rest_index, dtype=np.intp)
            take[parsed] = True
            users[parsed] = self.id_maps.users.code_all(rest_users)
            artists[parsed] = self.id_maps.artists.code_all(rest_artists)
            timestamps[parsed] = rest_timestamps
        users = self.id_maps.users.densify(users[take])
        artists = self.id_maps.artists.densify(artists[take])
        timestamps = timestamps[take]
        if self.columns[2].dtype == np.uint32 and timestamps.size and timestamps.max() >= 2**32:
            self.columns = (*self.columns[:2], _widened(self.columns[2], self.size))
        for column, values in zip(self.columns, (users, artists, timestamps)):
            _put(column, self.size, values)
        self.size += len(timestamps)

    def log(self, sha256: str | None) -> EventLog:
        """The log of every event, in input order, its columns read-only."""
        for column in self.columns:
            column.resize(self.size, refcheck=False)
            column.flags.writeable = False
        return EventLog(*self.columns, self.id_maps, sha256)


class _Ungrouped(Exception):
    """A user id below an earlier one: the log is not grouped by user."""


class _GroupedParser(_ChunkParser):
    """A ``_ChunkParser`` that reduces a log grouped by user to pair rows as its blocks are added.

    Its columns hold only the events not reduced yet: those of the batch
    being filled, whose last user the next block may continue. After each
    block, the batches that no later line can change go through
    ``_batch_rows`` into ``rows``, and the rest of the events move to the
    front of the columns, which are reused from block to block. Raises
    ``_Ungrouped`` at the first block whose user ids decrease.
    """

    def __init__(self, schema: ColumnSchema, on_error: str, fraction: float, d: float):
        super().__init__(schema, on_error)
        self.rows = _PairRows(fraction, d, np.uint32)

    def add(self, data: bytes) -> None:
        held = self.size
        super().add(data)  # the block's temporaries are freed before the reduction allocates its own
        users = self.columns[0][max(held - 1, 0) : self.size]  # the block's users, after the last one held
        if (users[1:] < users[:-1]).any():
            raise _Ungrouped
        self._reduce(final=False)

    def _reduce(self, final: bool) -> None:
        if not self.size:
            return
        users, artists, timestamps = (column[: self.size] for column in self.columns)
        # Ids follow first sight, so the users of a grouped log run on from the first one not reduced.
        offsets = np.searchsorted(users, np.arange(self.rows.users, int(users[-1]) + 2, dtype=users.dtype))
        rest = int(offsets[_reduce_batches(self.rows, artists, timestamps, offsets, final)])
        if rest:
            for column in self.columns:
                column[: self.size - rest] = column[rest : self.size]
            self.size -= rest

    def log(self, sha256: str | None) -> EventLog:
        """A log without columns that holds the table of its events in ``reduced``."""
        self._reduce(final=True)
        rows = self.rows
        return EventLog(None, None, None, self.id_maps, sha256, rows.events, (rows.table(), rows.fraction, rows.d))


@contextmanager
def _open_blocks(source):
    """Blocks of whole lines from ``source``, the reader hashing a path's raw bytes, and whether it can be read again.

    The reader is None for a stream. Only a path that opens as a regular file
    can be read again; a stream, a pipe, a FIFO or a device is read once.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        with open(path, "rb") as raw:
            reader = _Sha256Reader(raw)
            regular = stat.S_ISREG(os.fstat(raw.fileno()).st_mode)
            if path.suffix == ".gz":
                with gzip.GzipFile(fileobj=reader, mode="rb") as decompressed:
                    yield _byte_blocks(decompressed.read1), reader, regular
            else:
                yield _byte_blocks(reader.read), reader, regular
    else:  # a caller's binary stream, which stays open
        yield _byte_blocks(source.read), None, False


def load_events(
    source, schema: ColumnSchema, on_error: str, build: tuple[float, float] | None = None
) -> tuple[EventLog, int]:
    """Load an event log from a path or binary stream in one pass.

    The source is read once, ``CHUNK_SIZE`` bytes at a time. For a path the
    same raw bytes (compressed ones for ``.gz``) feed the SHA-256 stored as
    ``EventLog.sha256``. ``\\r\\n``, then any other ``\\r``, ends a line as
    ``\\n`` does. numpy parses each block of whole lines at once: the lines
    with at least the schema's columns whose timestamp is 1 to 18 ASCII
    digits, whose keys are at most 8 bytes and which hold no NUL nor, in a
    block that is not valid UTF-8, any byte that is not ASCII. Every other
    line is decoded as UTF-8 with surrogateescape and goes through
    ``parse_event_line``, which alone decides the line rules, with its
    1-based line number. Either way a line's keys become the same codes,
    so a key has one id however its lines were parsed.

    ``on_error`` is ``"skip"`` (drop malformed lines, count them) or
    ``"fail"`` (abort on the first malformed line). A ``.gz`` input that
    ends mid-stream or is corrupt is a DataError under either policy. Ids
    are densified in first-seen order, so identical input bytes always
    produce identical logs. Returns ``(log, skipped_line_count)``.

    Given ``build = (fraction, bll_d)``, a regular file whose lines come
    user by user is reduced as it is read to the table that
    ``build_user_histories(log, fraction, bll_d)`` would build, which the
    log holds in ``reduced`` in place of its columns; the build then hands
    it over. A file whose user ids turn out to decrease is read again
    whole. A stream, or a path that is not a regular file, such as a pipe,
    is read whole from the start, as it cannot be read again. Logs read
    whole, and every log when ``build`` is None, keep their columns for
    the build to sort.
    """
    if on_error not in ("skip", "fail"):
        raise UsageError(f"on_error must be 'skip' or 'fail', got {on_error!r}")
    if build is not None:
        _check_build(*build)
        try:
            return _load(source, schema, on_error, build)
        except _Ungrouped:
            pass  # the table is built from the whole log
    return _load(source, schema, on_error)


def _load(source, schema: ColumnSchema, on_error: str, build: tuple[float, float] | None = None):
    """``(log, skipped)`` of ``source``, reduced as it is read at ``build``'s fraction and d if it is
    given and ``source`` can be read again should its user ids decrease."""
    with _open_blocks(source) as (blocks, reader, rereadable):
        if build is None or not rereadable:
            parser = _ChunkParser(schema, on_error)
        else:
            parser = _GroupedParser(schema, on_error, *build)
        try:
            for block in blocks:
                parser.add(block)
        except EOFError:  # raised by the gzip reader when the stream is cut short
            raise DataError(f"compressed input is truncated after line {parser.lines}") from None
        except _GZIP_ERRORS as exc:
            raise DataError(f"compressed input is corrupt after line {parser.lines}: {exc}") from None
    return parser.log(reader.digest.hexdigest() if reader else None), parser.skipped


_BATCH_EVENTS = 1 << 14
"""The history build sorts whole users together, up to this many events (a longer
history is sorted alone) and ``_BATCH_USERS`` users at a time, so its temporaries
stay small and each sort key fits in 64 bits."""
_BATCH_USERS = 1 << 16
_MAX_HISTORY = 2**31 - 1
"""The most events one user may have: a history sorted alone packs each event's
position and its timestamp, or the timestamp's rank, into one 64-bit key, and
every play count fits int32."""


def n_test_events(n_events, fraction: float):
    """max(1, floor(fraction * n)), for one event count or an array of them."""
    return np.maximum(1, np.floor(fraction * np.asarray(n_events))).astype(np.int64)


def _check_build(fraction: float, bll_d: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0,1), got {fraction}")
    if not 0.0 < bll_d < math.inf:
        raise DataError(f"decay exponent d must be finite and > 0, got {bll_d}")


def build_user_histories(log: EventLog, fraction: float, bll_d: float) -> UserHistories:
    """Reduce the log to one table of (user, artist) pair rows, split by time at ``fraction``.

    A log that ``load_events`` reduced as it read hands its table over.
    Any other log is grouped by a stable argsort of the user ids and
    gathers of the other two columns, which leave a log grouped by user in
    its order. ``_reduce_batches`` then turns batches of whole users into
    pair rows, as ``load_events`` does, and the table keeps no array as
    long as the log. The play counts are int32, and the latest plays keep
    the log's timestamp dtype.

    Every user of at least 2 events is cut by time: its latest
    ``n_test_events(n, fraction)`` events are test events, and the rest
    training events. Each pair row keeps its test plays, its latest
    training play and the activation sum of its training plays at decay
    exponent ``bll_d``, from which ``split.split_histories`` selects the
    train table and the test keys.

    The table replaces the log's events: ``log.users``, ``log.artists``,
    ``log.timestamps`` and ``log.reduced`` are None once the build ends.
    The log keeps ``id_maps``, ``sha256`` and its length.
    """
    _check_build(fraction, bll_d)
    if log.reduced is not None:
        histories, *reduced_at = log.reduced
        if reduced_at != [fraction, bll_d]:
            raise ValueError(f"the log was reduced at fraction {reduced_at[0]} and d {reduced_at[1]}")
        log.reduced = None
        return histories
    n = len(log)
    users, log.users = log.users, None
    n_users = int(users.max()) + 1 if n else 0
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(users, minlength=n_users), out=offsets[1:])
    order = np.argsort(users, kind="stable")
    del users
    order = order.astype(np.int32 if n < 2**31 else np.int64, copy=False)  # frees the int64 argsort
    artists, log.artists = log.artists[order], None
    timestamps, log.timestamps = log.timestamps[order], None
    del order
    rows = _PairRows(fraction, bll_d, timestamps.dtype)
    _reduce_batches(rows, artists, timestamps, offsets, final=True)
    return rows.table()


def _reduce_batches(rows: _PairRows, artists, timestamps, offsets: np.ndarray, final: bool) -> int:
    """Reduce the users that ``offsets`` bounds in the events into ``rows``, a batch at a time; return how many.

    A batch holds whole users, at most ``_BATCH_EVENTS`` events and
    ``_BATCH_USERS`` users, or one longer history. Unless ``final``, the
    last user may still grow, so the batch that would hold it waits. The
    batches before it are the same whatever follows, so a log reduced as
    it is read gets the batches of the whole log.
    """
    bounds = offsets.tolist()
    n_users = len(bounds) - 1
    user = 0
    while user < n_users:
        stop = bisect.bisect_right(bounds, bounds[user] + _BATCH_EVENTS) - 1
        stop = min(max(stop, user + 1), user + _BATCH_USERS)
        if stop == n_users and not final:
            break
        batch = slice(bounds[user], bounds[stop])
        rows.add(artists[batch], timestamps[batch], np.diff(offsets[user : stop + 1]))
        user = stop
    return user


class _PairRows:
    """The columns of a ``UserHistories`` table, filled a batch of whole users at a time.

    Each column grows in place, by a quarter past its end, so no batch's
    rows are held twice. The latest training plays widen to int64 at the
    first batch of int64 timestamps.
    """

    def __init__(self, fraction: float, d: float, timestamp_dtype):
        self.fraction, self.d = fraction, d
        self.users = self.rows = self.events = 0
        self.n_events = np.zeros(0, dtype=np.int64)
        self.pair_offsets = np.zeros(1, dtype=np.int64)
        # Artists, play counts, latest training plays, bll sums, test plays.
        self.columns = [np.zeros(0, dtype=dtype) for dtype in (np.int32, np.int32, timestamp_dtype, np.float64,
                                                               np.int32)]

    def add(self, artists: np.ndarray, timestamps: np.ndarray, counts: np.ndarray) -> None:
        """Reduce the next ``len(counts)`` users; user i holds the next ``counts[i]`` of the events."""
        if len(artists) > _MAX_HISTORY:  # so long a batch is one user
            raise DataError(f"user {self.users} has {len(artists)} events; a history may hold at most {_MAX_HISTORY}")
        self.events += len(artists)
        if timestamps.dtype == np.int64 and self.columns[2].dtype != np.int64:
            self.columns[2] = _widened(self.columns[2], self.rows)
        if len(artists):
            row_users, *columns = _batch_rows(artists, timestamps, counts, self.fraction, self.d)
            rows_per_user = np.bincount(row_users, minlength=len(counts))
            for column, values in zip(self.columns, columns):
                _put(column, self.rows, values)
            self.rows += len(row_users)
        else:  # users without events, between the sparse ids of a log built in memory
            rows_per_user = np.zeros(len(counts), dtype=np.int64)
        _put(self.n_events, self.users, counts)
        _put(self.pair_offsets, self.users + 1, self.pair_offsets[self.users] + np.cumsum(rows_per_user))
        self.users += len(counts)

    def table(self) -> UserHistories:
        self.n_events.resize(self.users, refcheck=False)
        self.pair_offsets.resize(self.users + 1, refcheck=False)
        for column in self.columns:
            column.resize(self.rows, refcheck=False)
        return UserHistories(self.n_events, self.pair_offsets, *self.columns)


def _put(column: np.ndarray, at: int, values: np.ndarray) -> None:
    """Write ``values`` into ``column`` from ``at``, first growing it in place past their end by a quarter.

    At most a quarter spare: ``resize`` zero-fills, so spare room costs memory at once.
    """
    end = at + len(values)
    if end > len(column):
        column.resize(end + end // 4, refcheck=False)  # no views of a column are kept
    column[at:end] = values


def _widened(column: np.ndarray, size: int) -> np.ndarray:
    """An int64 copy of ``column``'s first ``size`` values, as long as ``column``; its spare room stays unwritten."""
    wide = np.empty(len(column), dtype=np.int64)
    wide[:size] = column[:size]
    return wide


def _batch_rows(artists: np.ndarray, timestamps: np.ndarray, counts: np.ndarray, fraction: float, d: float):
    """The pair rows of a batch of whole users, sorted by user and artist; user i holds the next ``counts[i]`` events.

    The events are sorted twice with ``np.sort`` on unique uint64 keys
    packed from the user in the batch, a value and the event's position:
    by timestamp, so equal timestamps keep input order, then by artist, so
    a pair's events stay in time order and its test events come last. An
    int64 log packs the batch's timestamp ranks instead of the timestamps.
    Returns each row's user in the batch, artist, play count, latest
    training play (0 if it has none), activation sum of its training plays
    and test plays. The sums come from one ``_kernels.bll_sums``
    call over the batch's training events in pair order, so each row's
    terms are added in time order, with each user's latest training play
    plus one as the reference time.
    """
    bits = (len(artists) - 1).bit_length()  # of a position
    positions = np.arange(len(artists), dtype=np.uint64)
    users = np.repeat(np.arange(len(counts), dtype=np.uint64), counts)
    if timestamps.dtype == np.uint32:
        values, value_bits = timestamps, 32
    else:
        distinct, values = np.unique(timestamps, return_inverse=True)
        value_bits = (len(distinct) - 1).bit_length()
    mask = np.uint64((1 << bits) - 1)
    by_time = np.sort(users << (value_bits + bits) | values.astype(np.uint64) << bits | positions) & mask
    timestamps = timestamps[by_time]
    n_train = counts - np.where(counts >= 2, n_test_events(counts, fraction), 0)
    cut = np.cumsum(counts) - counts + n_train  # each user's first test event
    ref = timestamps[cut - 1].astype(np.uint64) + np.uint64(1)  # unread for a user without events
    key = np.sort(users << (31 + bits) | artists[by_time].astype(np.uint64) << bits | positions)
    order = (key & mask).astype(np.intp)  # the events' positions in pair order
    train = order < np.repeat(cut, counts)
    timestamps = timestamps[order]
    pairs = key >> np.uint64(bits)
    new = np.diff(pairs, prepend=~pairs[0]) != 0  # ~pairs[0] differs from pairs[0]
    first = np.flatnonzero(new)
    pair_counts = np.diff(first, append=len(key))
    train_counts = np.add.reduceat(train, first, dtype=np.int64)
    train_last = np.where(train_counts > 0, timestamps[first + np.maximum(train_counts - 1, 0)], 0)
    sums = _kernels.bll_sums((np.cumsum(new) - 1)[train], timestamps[train], np.repeat(ref, n_train), len(first), d)
    pairs = pairs[first]
    return ((pairs >> np.uint64(31)).astype(np.intp), pairs & np.uint64(2**31 - 1), pair_counts, train_last, sums,
            pair_counts - train_counts)


def write_events_tsv(log: EventLog, path) -> None:
    """Write a log back out in the LFM-1b 5-column layout ``user=0,artist=1,ts=4`` (album/track zeroed)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        user_keys = log.id_maps.users.keys()
        artist_keys = log.id_maps.artists.keys()
        for u, a, t in zip(log.users.tolist(), log.artists.tolist(), log.timestamps.tolist()):
            handle.write(f"{user_keys[u]}\t{artist_keys[a]}\t0\t0\t{t}\n")

"""Listening-event log ingestion.

Parses newline-delimited, tab-separated listening events (LFM-1b column
layout by default), assigns dense integer ids to users and artists in
first-seen order, and builds per-user chronologically sorted histories.
All produced structures are immutable after loading and safe to share
across worker threads.
"""

from __future__ import annotations

import gzip
import io
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError, UsageError

DEFAULT_SCHEMA_SPEC = "user=0,artist=1,ts=4"
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ColumnSchema:
    """Which tab-separated columns hold the user key, artist key and timestamp.

    Extra columns (album/track ids in LFM-1b files) are ignored.
    """

    user: int = 0
    artist: int = 1
    ts: int = 4

    def __post_init__(self):
        cols = (self.user, self.artist, self.ts)
        if any(c < 0 for c in cols):
            raise UsageError("schema column indices must be non-negative")
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
                raise UsageError(f"bad schema entry {part!r}; expected user=N,artist=N,ts=N")
            try:
                fields[key] = int(value)
            except ValueError:
                raise UsageError(f"schema column for {key!r} must be an integer") from None
        missing = {"user", "artist", "ts"} - fields.keys()
        if missing:
            raise UsageError(f"schema is missing columns: {', '.join(sorted(missing))}")
        return cls(**fields)

    def spec(self) -> str:
        return f"user={self.user},artist={self.artist},ts={self.ts}"


class IdMap:
    """Bijection between external string keys and dense indices (first-seen order)."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._keys: list[str] = []

    def intern(self, key: str) -> int:
        idx = self._ids.get(key)
        if idx is None:
            idx = len(self._keys)
            self._ids[key] = idx
            self._keys.append(key)
        return idx

    def id_of(self, key: str) -> int:
        return self._ids[key]

    def key_of(self, idx: int) -> str:
        return self._keys[idx]

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._ids


@dataclass
class IdMaps:
    users: IdMap = field(default_factory=IdMap)
    artists: IdMap = field(default_factory=IdMap)


@dataclass
class EventLog:
    """Flat event store: parallel arrays of user id, artist id, timestamp."""

    users: np.ndarray  # int32, one entry per event
    artists: np.ndarray  # int32
    timestamps: np.ndarray  # int64, Unix seconds
    id_maps: IdMaps

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class UserHistory:
    """One user's events in chronological order plus per-artist aggregates.

    ``artists`` and ``timestamps`` are parallel arrays sorted ascending by
    timestamp with input order preserved among equal timestamps.
    """

    user: int
    artists: np.ndarray  # int32, chronological
    timestamps: np.ndarray  # int64, non-decreasing
    artist_counts: dict[int, int]
    artist_last_played: dict[int, int]

    @property
    def n_events(self) -> int:
        return len(self.timestamps)

    @property
    def n_distinct_artists(self) -> int:
        return len(self.artist_counts)


def parse_event_line(line: str, schema: ColumnSchema, line_no: int = 0) -> tuple[str, str, int]:
    """Extract (user key, artist key, timestamp) from one tab-separated record.

    Files are decoded with ``errors="surrogateescape"``, so bytes that are
    not UTF-8 arrive here as lone surrogates and are rejected.
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
    try:
        ts = int(raw_ts)
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer timestamp {raw_ts!r}", line_no) from None
    if ts < 0:
        raise ParseError(f"line {line_no}: negative timestamp {ts}", line_no)
    if ts > INT64_MAX:
        raise ParseError(f"line {line_no}: timestamp {ts} exceeds the int64 range", line_no)
    return user_key, artist_key, ts


@contextmanager
def _open_text(source):
    """A text handle on a path, a text stream or a binary stream; closes only what it opened."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as handle:
            yield handle
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        wrapper = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
        try:
            yield wrapper
        finally:
            wrapper.detach()  # the caller owns the binary stream; closing the wrapper would close it


def load_events(source, schema: ColumnSchema | None = None, on_error: str = "skip") -> tuple[EventLog, int]:
    """Load an event log from a path or file-like object.

    ``on_error`` is ``"skip"`` (drop malformed lines, count them) or
    ``"fail"`` (abort on the first malformed line). Ids are densified in
    first-seen order, so identical input bytes always produce identical
    logs. Returns ``(log, skipped_line_count)``.
    """
    if schema is None:
        schema = ColumnSchema()
    if on_error not in ("skip", "fail"):
        raise UsageError(f"on_error must be 'skip' or 'fail', got {on_error!r}")

    id_maps = IdMaps()
    users: list[int] = []
    artists: list[int] = []
    timestamps: list[int] = []
    skipped = 0

    with _open_text(source) as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                user_key, artist_key, ts = parse_event_line(line, schema, line_no)
            except ParseError:
                if on_error == "fail":
                    raise
                skipped += 1
                continue
            users.append(id_maps.users.intern(user_key))
            artists.append(id_maps.artists.intern(artist_key))
            timestamps.append(ts)

    log = EventLog(
        users=np.asarray(users, dtype=np.int32),
        artists=np.asarray(artists, dtype=np.int32),
        timestamps=np.asarray(timestamps, dtype=np.int64),
        id_maps=id_maps,
    )
    for arr in (log.users, log.artists, log.timestamps):
        arr.flags.writeable = False
    return log, skipped


def history_from_arrays(user: int, artists: np.ndarray, timestamps: np.ndarray) -> UserHistory:
    """Build a UserHistory from already chronologically sorted event arrays."""
    counts = Counter(artists.tolist())
    # Later assignments win, so the chronological pass leaves the latest timestamp.
    last_played = dict(zip(artists.tolist(), timestamps.tolist()))
    return UserHistory(
        user=user,
        artists=artists,
        timestamps=timestamps,
        artist_counts=dict(counts),
        artist_last_played=last_played,
    )


def build_user_histories(log: EventLog) -> dict[int, UserHistory]:
    """Group the log per user, sorted by timestamp with stable tie order."""
    if len(log) == 0:
        return {}
    n = len(log)
    # lexsort is stable: primary key user, secondary timestamp, then input order.
    order = np.lexsort((np.arange(n), log.timestamps, log.users))
    users_sorted = log.users[order]
    boundaries = np.flatnonzero(np.diff(users_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))

    histories: dict[int, UserHistory] = {}
    for start, end in zip(starts.tolist(), ends.tolist()):
        idx = order[start:end]
        user = int(users_sorted[start])
        artists = np.ascontiguousarray(log.artists[idx])
        timestamps = np.ascontiguousarray(log.timestamps[idx])
        artists.flags.writeable = False
        timestamps.flags.writeable = False
        histories[user] = history_from_arrays(user, artists, timestamps)
    return histories


def write_events_tsv(log: EventLog, path) -> None:
    """Write a log back out in the default 5-column layout (album/track zeroed)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        user_key = log.id_maps.users.key_of
        artist_key = log.id_maps.artists.key_of
        for u, a, t in zip(log.users.tolist(), log.artists.tolist(), log.timestamps.tolist()):
            handle.write(f"{user_key(u)}\t{artist_key(a)}\t0\t0\t{t}\n")

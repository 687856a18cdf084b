"""Time-based per-user train/test partitioning.

Each user's most recent fraction of events goes into the test set; the
number of test events is max(1, floor(fraction * n)), so every split
user keeps at least one training and one test event. Ties at the split
boundary follow the stable chronological order from ingest.

A split cuts each user's slice of the ``UserHistories`` table in two, so
train and test are two tables over the same event arrays, not copies.
Each keeps only the pair rows played on its side of the cut, as a table
built from a log does. A pair row's test plays are counted by looking
up each test event's artist among its own user's pair rows, which are
sorted by artist; its training plays are the rest. A pair's events are
in time order in the table's ``by_pair`` order, so its test plays are
the last of them and its latest training play is the one before. The
split builds no array of a wider dtype than the table's over every pair
row: pair counts stay int32 below 2**31 events, and latest plays keep
the log's timestamp dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .ingest import UserHistories


@dataclass
class SplitDataset:
    """The train and test tables of one split fraction; only split users have events in them."""

    train: UserHistories
    test: UserHistories
    dropped: int  # users with too few events to split

    @property
    def per_user(self) -> np.ndarray:
        """The split users' ids, ascending; ``perfbench/tracer.py`` counts split users by its length."""
        return np.flatnonzero(self.train.n_events)

    def test_event_count(self, users: np.ndarray | None = None) -> int:
        n_test = self.test.n_events
        if users is None:
            return int(n_test.sum())
        return int(n_test[users].sum())


def n_test_events(n_events, fraction: float):
    """max(1, floor(fraction * n)), for one event count or an array of them."""
    return np.maximum(1, np.floor(fraction * np.asarray(n_events))).astype(np.int64)


def split_histories(histories: UserHistories, fraction: float, users: np.ndarray | None = None) -> SplitDataset:
    """Split each given user's history by time; users with fewer than 2 events are dropped and counted.

    ``histories`` is a table from ``build_user_histories``; ``users``, an
    array of user ids, defaults to every user in it.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0,1), got {fraction}")
    n_events = histories.n_events
    if users is None:
        chosen = n_events > 0
    else:
        chosen = np.zeros(len(n_events), dtype=bool)
        chosen[users] = True
    split = chosen & (n_events >= 2)
    if not split.any():
        raise DataError("no splittable users (all histories have fewer than 2 events)")
    n_test = np.where(split, n_test_events(n_events, fraction), 0)
    cut = histories.ends - n_test  # each user's first test event
    offsets = histories.pair_offsets
    sizes = np.diff(offsets)

    # Each user's test events are cut[u], cut[u] + 1, ..., ends[u] - 1.
    test_events = np.arange(int(n_test.sum())) + np.repeat(cut - (np.cumsum(n_test) - n_test), n_test)
    test_rows = find_rows(histories.pair_artists, np.repeat(offsets[:-1], n_test), np.repeat(sizes, n_test),
                          histories.artists[test_events])
    tested, test_counts = np.unique(test_rows, return_counts=True)
    test_counts = test_counts.astype(histories.pair_counts.dtype)

    train_counts = histories.pair_counts.copy()
    train_counts[tested] -= test_counts
    trained = np.repeat(split, sizes)
    trained &= train_counts > 0
    train_counts = train_counts[trained]
    # A pair's events are contiguous in by_pair and its test plays are the last of them.
    last_trained = np.cumsum(histories.pair_counts, dtype=train_counts.dtype)
    last_trained -= 1
    last_trained[tested] -= test_counts
    train_last = histories.timestamps[histories.by_pair[last_trained[trained]]]
    del last_trained
    kept = np.zeros(len(trained) + 1, dtype=train_counts.dtype)  # trained rows before each row
    np.cumsum(trained, dtype=kept.dtype, out=kept[1:])
    train = _with_rows(histories, trained, kept[offsets].astype(np.int64), train_counts, train_last,
                       ends=np.where(split, cut, histories.starts))
    # Test events are the latest of their pair, so the pair's latest play is a test play.
    test = _with_rows(histories, tested, np.searchsorted(tested, offsets), test_counts, histories.pair_last[tested],
                      starts=cut)
    return SplitDataset(train=train, test=test, dropped=int(np.count_nonzero(chosen & ~split)))


def find_rows(pair_artists: np.ndarray, lo: np.ndarray, size: np.ndarray, artists: np.ndarray) -> np.ndarray:
    """The last row in ``lo[i]:lo[i] + size[i]`` whose pair artist is at most ``artists[i]``, for every i.

    Each slice of ``pair_artists`` is ascending and not empty, and the
    three index arrays broadcast together. If a slice holds the artist
    sought, the row found holds it; if not, that row holds another artist.
    All slices are binary-searched at once: ``row`` stays the last row whose
    artist is at most the one sought, in a window that halves each step.
    """
    row = lo
    for _ in range(int(size.max() - 1).bit_length()):
        half = size >> 1
        mid = row + half
        row = np.where(pair_artists[mid] <= artists, mid, row)
        size = size - half
    return row


def _with_rows(histories: UserHistories, rows: np.ndarray, offsets, counts, last, **bounds) -> UserHistories:
    """``histories`` with new ``bounds`` and only the pair ``rows`` (a mask or ascending indices).

    ``offsets`` are the kept rows' per-user offsets, ``counts`` and ``last``
    their play counts and latest plays.
    """
    return replace(
        histories,
        **bounds,
        pair_offsets=offsets,
        pair_artists=histories.pair_artists[rows],
        pair_counts=counts,
        pair_last=last,
        by_pair=None,
    )

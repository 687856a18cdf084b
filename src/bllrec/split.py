"""Time-based per-user train/test partitioning.

Each user's most recent fraction of events goes into the test set; the
number of test events is max(1, floor(fraction * n)), so every split
user keeps at least one training and one test event. Ties at the split
boundary follow the stable chronological order from ingest.

``ingest.build_user_histories`` cuts every history at the run's fraction
as it builds the table, and keeps each pair row's test plays, latest
training play and training activation sum. A split only selects rows:
the train table holds the chosen users' rows with training plays, with
those plays' count, latest play and activation sum, and the test table
their rows with test plays, with those plays' count only, as evaluation
reads no more of it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def split_histories(histories: UserHistories, users: np.ndarray | None = None) -> SplitDataset:
    """Split each given user's history by time; users with fewer than 2 events are dropped and counted.

    ``histories`` is a table from ``build_user_histories``, which fixed the
    fraction; ``users``, an array of user ids, defaults to every user in it.
    """
    n_events = histories.n_events
    if users is None:
        chosen = n_events > 0
    else:
        chosen = np.zeros(len(n_events), dtype=bool)
        chosen[users] = True
    split = chosen & (n_events >= 2)
    if not split.any():
        raise DataError("no splittable users (all histories have fewer than 2 events)")
    rows = np.repeat(split, np.diff(histories.pair_offsets))
    test_counts = histories.pair_test_counts
    train_counts = histories.pair_counts - test_counts
    train = _select(histories, rows & (train_counts > 0), train_counts, train=True)
    test = _select(histories, rows & (test_counts > 0), test_counts, train=False)
    return SplitDataset(train=train, test=test, dropped=int(np.count_nonzero(chosen & ~split)))


def _select(histories: UserHistories, rows: np.ndarray, counts, train: bool) -> UserHistories:
    """The table of ``histories``' pair ``rows`` (a mask), with these per-row play counts; a train table
    also keeps each row's latest training play and activation sum."""
    kept = np.zeros(len(rows) + 1, dtype=np.int32 if len(rows) < 2**31 else np.int64)  # kept rows before each row
    np.cumsum(rows, dtype=kept.dtype, out=kept[1:])
    offsets = kept[histories.pair_offsets].astype(np.int64)
    counts = counts[rows]
    plays = np.zeros(len(counts) + 1, dtype=np.int64)  # kept plays before each kept row
    np.cumsum(counts, out=plays[1:])
    return UserHistories(
        n_events=np.diff(plays[offsets]),
        pair_offsets=offsets,
        pair_artists=histories.pair_artists[rows],
        pair_counts=counts,
        pair_last=histories.pair_last[rows] if train else None,
        pair_bll=histories.pair_bll[rows] if train else None,
    )


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

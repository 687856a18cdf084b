"""Time-based per-user train/test partitioning.

Each user's most recent fraction of events goes into the test set; the
number of test events is max(1, floor(fraction * n)), so every split
user keeps at least one training and one test event. Ties at the split
boundary follow the stable chronological order from ingest.

``ingest.build_user_histories`` cuts every history at the run's fraction
as it builds the table, and keeps each pair row's test plays, latest
training play and training activation sum. A split only selects rows:
the train table holds the chosen users' rows with training plays, with
those plays' count, latest play and activation sum. Their rows with test
plays become the test keys, one ``user << 32 | artist`` per row, and
each user's test plays are summed to its test event count; evaluation
reads no more of the test side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import UserHistories


@dataclass
class SplitDataset:
    """The train table and the test side of one split fraction; only split users have events in them."""

    train: UserHistories
    # uint64, strictly ascending: user << 32 | artist of each pair with test plays. Ids are int32,
    # so each key is unique and sorts by user, then artist, as the table's rows do.
    test_keys: np.ndarray
    test_events: np.ndarray  # int64, per user id: test events, 0 for a user not split
    dropped: int  # users with too few events to split

    @property
    def per_user(self) -> np.ndarray:
        """The split users' ids, ascending; ``perfbench/tracer.py`` counts split users by its length."""
        return np.flatnonzero(self.train.n_events)

    def test_event_count(self, users: np.ndarray | None = None) -> int:
        if users is None:
            return int(self.test_events.sum())
        return int(self.test_events[users].sum())


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
    test_keys, test_events = _test_side(histories, rows)
    train_counts = histories.pair_counts - histories.pair_test_counts
    rows &= train_counts > 0
    train = UserHistories(
        n_events=np.where(split, n_events - test_events, 0),
        pair_offsets=_offsets(histories, rows),
        pair_artists=histories.pair_artists[rows],
        pair_counts=train_counts[rows],
        pair_last=histories.pair_last[rows],
        pair_bll=histories.pair_bll[rows],
    )
    return SplitDataset(train, test_keys, test_events, dropped=int(np.count_nonzero(chosen & ~split)))


def _test_side(histories: UserHistories, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of ``histories``' pair ``rows`` (a mask) that have test plays, and each user's test events."""
    test = rows & (histories.pair_test_counts > 0)
    offsets = _offsets(histories, test)
    plays = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)  # test plays before each test row
    np.cumsum(histories.pair_test_counts[test], out=plays[1:])
    users = np.repeat(np.arange(len(offsets) - 1, dtype=np.uint64), np.diff(offsets))
    return users << np.uint64(32) | histories.pair_artists[test].astype(np.uint64), np.diff(plays[offsets])


def _offsets(histories: UserHistories, rows: np.ndarray) -> np.ndarray:
    """The pair offsets, per user id plus one, of ``histories``' pair ``rows`` (a mask)."""
    kept = np.zeros(len(rows) + 1, dtype=np.int32 if len(rows) < 2**31 else np.int64)  # kept rows before each row
    np.cumsum(rows, dtype=kept.dtype, out=kept[1:])
    return kept[histories.pair_offsets].astype(np.int64)

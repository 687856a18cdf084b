"""Time-based per-user train/test partitioning.

Each user's most recent fraction of events goes into the test set; the
number of test events is max(1, floor(fraction * n)), so every split
user keeps at least one training and one test event. Ties at the split
boundary follow the stable chronological order from ingest.

A split cuts each user's slice of the ``UserHistories`` table in two, so
train and test are two tables over the same event arrays, not copies.
Each keeps only the pair rows played on its side of the cut, as a table
built from a log does. A pair row's test plays are counted by looking
up each test event's (user, artist) key among the pair rows, which are
sorted by that key; its training plays are the rest. A pair's events
are in time order in the table's ``by_pair`` order, so its training
plays are a prefix of them and its latest training play is the last of
that prefix.
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
    def per_user(self) -> UserHistories:
        """The split users' training histories; ``perfbench/tracer.py`` counts split users by its length."""
        return self.train

    def test_event_count(self, users=None) -> int:
        n_test = self.test.n_events
        if users is None:
            return int(n_test.sum())
        return int(n_test[np.fromiter(users, dtype=np.int64)].sum())


def n_test_events(n_events, fraction: float):
    """max(1, floor(fraction * n)), for one event count or an array of them."""
    return np.maximum(1, np.floor(fraction * np.asarray(n_events))).astype(np.int64)


def split_histories(histories: UserHistories, fraction: float, users=None) -> SplitDataset:
    """Split each given user's history by time; users with fewer than 2 events are dropped and counted.

    ``histories`` is a table from ``build_user_histories``; ``users``
    defaults to every user in it.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must be in (0,1), got {fraction}")
    n_events = histories.n_events
    if users is None:
        chosen = n_events > 0
    else:
        chosen = np.zeros(len(n_events), dtype=bool)
        chosen[np.fromiter(users, dtype=np.int64)] = True
    split = chosen & (n_events >= 2)
    if not split.any():
        raise DataError("no splittable users (all histories have fewer than 2 events)")
    n_test = np.where(split, n_test_events(n_events, fraction), 0)
    cut = histories.ends - n_test  # each user's first test event

    # Find the pair row of every test event by its (user, artist) key.
    n_artists = int(histories.pair_artists.max()) + 1
    pair_users = histories.pair_users
    pair_keys = pair_users * n_artists + histories.pair_artists
    test_users = np.repeat(np.arange(len(cut)), n_test)
    # Each user's test events are cut[u], cut[u] + 1, ..., ends[u] - 1.
    test_events = np.arange(len(test_users)) + np.repeat(cut - (np.cumsum(n_test) - n_test), n_test)
    test_pairs = np.searchsorted(pair_keys, test_users * n_artists + histories.artists[test_events])
    test_counts = np.bincount(test_pairs, minlength=len(pair_keys))

    train_counts = np.where(split[pair_users], histories.pair_counts - test_counts, 0)
    trained = train_counts > 0
    train_counts = train_counts[trained]
    first = (np.cumsum(histories.pair_counts) - histories.pair_counts)[trained]  # of each pair, in by_pair
    train_last = histories.timestamps[histories.by_pair[first + train_counts - 1]].astype(np.int64, copy=False)
    train = _with_rows(histories, trained, train_counts, train_last, ends=np.where(split, cut, histories.starts))
    # Test events are the latest of their pair, so the pair's latest play is a test play.
    tested = test_counts > 0
    test = _with_rows(histories, tested, test_counts[tested], histories.pair_last[tested], starts=cut)
    return SplitDataset(train=train, test=test, dropped=int(np.count_nonzero(chosen & ~split)))


def _with_rows(histories: UserHistories, rows: np.ndarray, counts: np.ndarray, last: np.ndarray, **bounds):
    """``histories`` with new ``bounds`` and only the pair rows in the mask ``rows``, with ``counts`` and ``last``."""
    return replace(
        histories,
        **bounds,
        pair_offsets=np.concatenate(([0], np.cumsum(rows)))[histories.pair_offsets],
        pair_artists=histories.pair_artists[rows],
        pair_counts=counts,
        pair_last=last,
        by_pair=None,
    )

import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from bllrec.errors import DataError
from bllrec.ingest import build_user_histories, load_events, n_test_events, write_events_tsv
from bllrec.recommend import global_train_counts
from bllrec.split import SplitDataset, split_histories
from bllrec.synth import SynthConfig, generate_synthetic

from conftest import LFM_SCHEMA, PROTOCOL, histories_from_events, histories_from_ids, user_slice, user_test_artists
from oracles import events_by_user, split_events


def _history(n_events, fraction=PROTOCOL.fraction):
    return histories_from_events([("u", f"a{i % 7}", i) for i in range(n_events)], fraction=fraction)


def _time_split(histories):
    """The split of ``histories`` and its one split user."""
    split = split_histories(histories)
    (user,) = split.per_user.tolist()
    return split, user


def test_table_and_split_are_the_same_for_either_timestamp_dtype(tmp_path):
    # A synth log holds int64 timestamps; the same events read back from a file are uint32.
    wide = generate_synthetic(SynthConfig(n_users=30, n_artists=80, events_per_user=(10, 60), seed=4))
    path = tmp_path / "events.tsv"
    write_events_tsv(wide, path)
    narrow, _ = load_events(path, LFM_SCHEMA, "skip")
    assert (wide.timestamps.dtype, narrow.timestamps.dtype) == (np.int64, np.uint32)
    tables = [build_user_histories(log, 0.2, PROTOCOL.bll_d) for log in (wide, narrow)]
    splits = [split_histories(table) for table in tables]
    for a, b in (tables, [s.train for s in splits]):
        for column in fields(a):
            x, y = getattr(a, column.name), getattr(b, column.name)
            assert (x is None and y is None) or np.array_equal(x, y), column.name
        assert a.pair_counts.dtype == b.pair_counts.dtype == np.int32
        assert (a.pair_last.dtype, b.pair_last.dtype) == (np.int64, np.uint32)
    # The test side is keys and per-user counts only, with no latest play or bll sum; a train table has no test plays.
    assert [f.name for f in fields(SplitDataset)] == ["train", "test_keys", "test_events", "dropped"]
    a, b = splits
    assert np.array_equal(a.test_keys, b.test_keys) and np.array_equal(a.test_events, b.test_events)
    assert all(s.train.pair_test_counts is None for s in splits)
    assert all((s.test_keys.dtype, s.test_events.dtype) == (np.uint64, np.int64) for s in splits)


def test_split_allocates_few_bytes_per_pair_row():
    # Every array the split builds over all pair rows has the table's narrow dtypes: int32
    # counts and positions, and masks. On this log (int64 timestamps) it takes about 32 B
    # per pair row, its train table and test keys included; with a test table of its own and
    # int64 running play sums over the train rows it took 43, and int64 (user, artist) keys,
    # counts and offsets over every pair row would take about 77.
    log = generate_synthetic(SynthConfig(n_users=1000, n_artists=20_000, events_per_user=(20, 60), seed=5))
    histories = build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d)
    tracemalloc.start()
    try:
        split = split_histories(histories)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split.test_event_count() == 1000
    assert peak < 37 * len(histories.pair_artists)


class TestTimeSplit:
    @pytest.mark.parametrize(
        "n,expected_test",
        [(2, 1), (50, 1), (100, 1), (250, 2), (1000, 10)],
    )
    def test_one_percent_sizes(self, n, expected_test):
        split, user = _time_split(_history(n))
        assert split.test_events[user] == expected_test
        assert split.train.n_events[user] == n - expected_test

    def test_half_fraction(self):
        split, user = _time_split(_history(4, 0.5))
        assert (split.train.n_events[user], split.test_events[user]) == (2, 2)

    def test_too_short(self):
        with pytest.raises(DataError):
            split_histories(_history(1))

    def test_bad_fraction(self):
        for fraction in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DataError):
                _history(10, fraction)

    def test_equal_timestamps_stable(self):
        histories = histories_from_events([("u", f"a{i}", 5) for i in range(100)])
        split, user = _time_split(histories)
        assert split.test_events[user] == 1
        assert user_test_artists(split, user).tolist() == [99]  # last input event under tie stability
        assert 99 not in user_slice(split.train, user, "pair_artists")

    def test_conservation_ordering_monotonic_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 400))
            artists, stamps = rng.integers(0, 9, n).tolist(), rng.integers(0, 5000, n).tolist()
            fraction = float(rng.uniform(0.005, 0.95))
            histories = histories_from_ids([0] * n, artists, stamps, fraction=fraction)
            split, user = _time_split(histories)
            n_test = int(n_test_events(n, fraction))
            assert (split.train.n_events[user], split.test_events[user]) == (n - n_test, n_test)
            assert n_test >= 1 and n - n_test >= 1
            # Every training play precedes the earliest test event.
            _, test = split_events(events_by_user([0] * n, artists, stamps), fraction)
            assert split.train.pair_last.max() <= min(t for _, t in test[user])
            # multiset conservation: each artist's training plays, and the test plays the split selected
            # its test keys by, are all its plays
            tested = histories.pair_test_counts > 0
            test_artists = histories.pair_artists[tested].tolist()
            plays = Counter(dict(zip(split.train.pair_artists.tolist(), split.train.pair_counts.tolist())))
            plays.update(dict(zip(test_artists, histories.pair_test_counts[tested].tolist())))
            assert plays == Counter(artists)
            assert user_test_artists(split, user).tolist() == test_artists
            # larger fraction never shrinks the test side
            larger = min(0.99, fraction * 2)
            assert n_test_events(n, larger) >= n_test_events(n, fraction)


class TestSplitHistories:
    def test_group_test_total(self):
        events = [("u1", f"a{i % 5}", i) for i in range(100)]
        events += [("u2", f"a{i % 5}", i) for i in range(250)]
        histories = histories_from_events(events)
        split = split_histories(histories)
        assert split.test_event_count() == 1 + 2
        assert split.test_event_count(np.array([1])) == 2
        assert split.dropped == 0

    def test_short_histories_dropped_with_count(self):
        events = [("solo", "a", 1)] + [("u", f"a{i}", i) for i in range(10)]
        histories = histories_from_events(events, fraction=0.1)
        split = split_histories(histories)
        assert split.dropped == 1
        assert len(split.per_user) == 1
        assert split.train.n_events[0] == split.test_events[0] == 0

    def test_all_users_too_short(self):
        histories = histories_from_events([("u1", "a", 1), ("u2", "b", 2)])
        with pytest.raises(DataError):
            split_histories(histories)

    def test_user_subset(self):
        events = [("u1", "a", i) for i in range(10)] + [("u2", "b", i) for i in range(10)]
        histories = histories_from_events(events, fraction=0.2)
        only = np.array([u for u in range(2) if 0 in user_slice(histories, u, "pair_artists")])
        split = split_histories(histories, only)
        assert split.per_user.tolist() == np.flatnonzero(split.test_events).tolist() == only.tolist() == [0]
        assert split.test_event_count() == 2
        # u2 is outside the split, so none of its plays count as training plays
        assert split.train.pair_artists.tolist() == [0]
        assert global_train_counts(split.train).tolist() == [8]

    def test_pair_rows_equal_counter_oracle(self):
        # Six distinct timestamps, so runs of equal timestamps straddle most cuts.
        rng = np.random.default_rng(31)
        straddled = 0
        for _ in range(40):
            n = int(rng.integers(20, 400))
            users, artists, stamps = (rng.integers(0, hi, n).tolist() for hi in (8, 15, 6))
            fraction = float(rng.uniform(0.01, 0.6))
            histories = histories_from_ids(users, artists, stamps, fraction=fraction)
            split = split_histories(histories)
            history = events_by_user(users, artists, stamps)
            train, test = split_events(history, fraction)
            distinct = {side: [0] * (max(users) + 1) for side in ("train", "test")}
            for u, events in history.items():
                if len(events) < 2:
                    assert split.train.n_events[u] == split.test_events[u] == 0
                    continue
                cut = len(train[u])
                straddled += events[cut - 1][1] == events[cut][1]
                counts = Counter(a for a, _ in train[u])
                last = {a: t for a, t in train[u]}
                distinct["train"][u] = len(counts)
                assert split.train.n_events[u] == len(train[u])
                assert user_slice(split.train, u, "pair_artists").tolist() == sorted(counts)
                assert user_slice(split.train, u, "pair_counts").tolist() == [counts[a] for a in sorted(counts)]
                assert user_slice(split.train, u, "pair_last").tolist() == [last[a] for a in sorted(counts)]
                # The test keys hold the test events' artists, whose plays the rows they came from count.
                counts = Counter(a for a, _ in test[u])
                distinct["test"][u] = len(counts)
                test_counts = user_slice(histories, u, "pair_test_counts")
                tested = test_counts > 0
                assert split.test_events[u] == len(test[u])
                assert user_test_artists(split, u).tolist() == sorted(counts)
                assert user_slice(histories, u, "pair_artists")[tested].tolist() == sorted(counts)
                assert test_counts[tested].tolist() == [counts[a] for a in sorted(counts)]
            # The train table holds only its played pair rows, like a table built from a log, and the
            # test keys, one per user and test artist, ascend strictly.
            assert (split.train.pair_counts >= 1).all()
            assert np.diff(split.train.pair_offsets).tolist() == distinct["train"]
            key_users = (split.test_keys >> np.uint64(32)).astype(np.intp)
            assert np.bincount(key_users, minlength=len(distinct["test"])).tolist() == distinct["test"]
            assert (split.test_keys[1:] > split.test_keys[:-1]).all()
        assert straddled > 100

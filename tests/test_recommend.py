import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bllrec.errors import DataError
from bllrec.ingest import build_user_histories, n_test_events
from bllrec.recommend import (
    CfIndex,
    build_recommenders,
    global_train_counts,
    recommend_bll,
    recommend_pop,
    recommend_time,
    recommend_top,
    _top_indices,
)
from bllrec.split import split_histories
from bllrec.synth import SynthConfig, generate_synthetic

from conftest import (
    PROTOCOL,
    histories_from_events,
    histories_from_ids,
    kernel_activation,
    log_from_events,
    oracle_instances,
    user_slice,
)
from oracles import brute_force_ranking, events_by_user, split_events

INT64_MAX = np.iinfo(np.int64).max


def _train(events, bll_d=PROTOCOL.bll_d):
    """The train table whose user 0 trains on exactly ``events``, and those events for the oracle.

    A later event of a new artist follows them, so at the protocol's fraction it is the one test event.
    """
    log = log_from_events(events + [("u", "later", max(t for _, _, t in events))])
    train, _ = split_events(events_by_user(log.users, log.artists, log.timestamps), PROTOCOL.fraction)
    table = split_histories(build_user_histories(log, PROTOCOL.fraction, bll_d)).train
    assert np.flatnonzero(table.n_events).tolist() == [0] and len(train[0]) == len(events)
    return table, train


class TestBllActivation:
    def test_single_unit_delta(self):
        # ref - t + 1 == 1, so the only term is 1 ** -d == 1 and ln(1) == 0.
        assert kernel_activation([100], 100, PROTOCOL.bll_d) == 0.0

    def test_two_deltas(self):
        # adjusted deltas 1 and 4: ln(1 + 4**-0.5) == ln(1.5)
        got = kernel_activation([100, 97], 100, 0.5)
        assert got == pytest.approx(math.log(1.5), abs=1e-12)
        assert round(got, 6) == 0.405465

    def test_three_equal_deltas(self):
        got = kernel_activation([100, 100, 100], 100, PROTOCOL.bll_d)
        assert got == pytest.approx(math.log(3.0), abs=1e-12)
        assert round(got, 6) == 1.098612

    def test_bad_decay(self):
        with pytest.raises(DataError):
            histories_from_events([("u", "a", 1)], bll_d=0.0)

    def test_recency_monotone(self):
        base = kernel_activation([50, 80], 100, PROTOCOL.bll_d)
        assert kernel_activation([50, 90], 100, PROTOCOL.bll_d) > base

    def test_frequency_monotone(self):
        base = kernel_activation([50, 80], 100, PROTOCOL.bll_d)
        assert kernel_activation([50, 80, 10], 100, PROTOCOL.bll_d) > base


class TestRecommendBll:
    def test_recency_wins_single_listens(self):
        train, _ = _train([("u", "old", 10), ("u", "new", 95)])
        ranked = recommend_bll(0, train, 2).artists.tolist()
        assert ranked == [1, 0]  # "new" interned second but ranked first

    def test_identical_timestamp_multisets_tie_by_id(self):
        train, _ = _train([("u", "x", 10), ("u", "y", 10), ("u", "x", 20), ("u", "y", 20)])
        ranked = recommend_bll(0, train, 2)
        assert ranked.artists.tolist() == [0, 1]
        assert ranked.ranked[0][1] == ranked.ranked[1][1]

    def test_frequency_outweighs_moderate_recency(self):
        # ref is the latest listen (b at 996) plus one, so the adjusted
        # deltas ref - t + 1 are a: {7, 17, 27} and b: {2}
        train, _ = _train([("u", "a", 991), ("u", "a", 981), ("u", "a", 971), ("u", "b", 996)], bll_d=0.5)
        result = recommend_bll(0, train, 2)
        a, b = 0, 1
        assert result.artists.tolist() == [a, b]
        scores = dict(result.ranked)
        assert scores[a] == pytest.approx(math.log(7**-0.5 + 17**-0.5 + 27**-0.5), abs=1e-12)
        assert scores[b] == pytest.approx(math.log(2**-0.5), abs=1e-12)
        assert round(scores[a], 4) == -0.2071
        assert round(scores[b], 4) == -0.3466

    def test_every_term_underflows_to_minus_inf(self):
        # the smallest adjusted delta is 2, and 2.0 ** -2000 underflows to 0.0
        train, events = _train([("u", "b", 10), ("u", "a", 20), ("u", "c", 5), ("u", "a", 30)], bll_d=2000.0)
        got = recommend_bll(0, train, 5)
        assert got.ranked == brute_force_ranking("bll", events, 0, 5, 2000.0, PROTOCOL.cf_neighbors).ranked
        assert got.ranked == [(0, float("-inf")), (1, float("-inf")), (2, float("-inf"))]

    @pytest.mark.parametrize(
        "events",
        [
            # ref is INT64_MAX + 1, which does not fit int64
            [("u", "a", INT64_MAX), ("u", "b", 5), ("u", "a", INT64_MAX)],
            # ref - 0 + 1 is 2**63, which wraps in int64
            [("u", "a", 0), ("u", "b", INT64_MAX - 1), ("u", "a", 3)],
        ],
    )
    def test_timestamps_at_int64_extremes_match_oracle(self, events):
        train, train_events = _train(events)
        expected = brute_force_ranking("bll", train_events, 0, 5, PROTOCOL.bll_d, PROTOCOL.cf_neighbors)
        assert recommend_bll(0, train, 5).ranked == expected.ranked

    def test_low_decay_converges_to_play_counts(self):
        # with d -> 0+ every term -> 1, so activation -> ln(count)
        rng = np.random.default_rng(31)
        for _ in range(30):
            n_artists = int(rng.integers(2, 8))
            counts = rng.permutation(np.arange(1, n_artists + 1)).tolist()
            events = []
            t = 0
            for artist, count in enumerate(counts):
                for _ in range(count):
                    t += int(rng.integers(1, 50))
                    events.append(("u", f"a{artist}", t))
            train, _ = _train(events, bll_d=1e-6)
            ranked = recommend_bll(0, train, n_artists).artists.tolist()
            by_count = train.pair_artists[np.argsort(-train.pair_counts)].tolist()
            assert ranked == by_count


class TestRecommendPop:
    def test_counts_rank(self):
        train, _ = _train([("u", "a", t) for t in range(5)] + [("u", "b", 10), ("u", "b", 11)])
        assert recommend_pop(0, train, 2).artists.tolist() == [0, 1]

    def test_tie_broken_by_recency(self):
        train, _ = _train([("u", "a", 1), ("u", "a", 2), ("u", "b", 3), ("u", "b", 4)])
        assert recommend_pop(0, train, 2).artists.tolist() == [1, 0]

    def test_truncation(self):
        train, _ = _train([("u", "a", 1), ("u", "b", 2), ("u", "c", 3), ("u", "c", 4)])
        result = recommend_pop(0, train, 1)
        assert result.artists.tolist() == [2]

    def test_empty_train(self):
        # u0 has one event, so the split drops it: it is in the train table with no events.
        split = split_histories(histories_from_events([("u0", "a", 1), ("u1", "a", 1), ("u1", "b", 2)], fraction=0.5))
        assert split.train.n_events.tolist() == [0, 1]
        for user in (0, 2, -1):  # ids 2 and -1 are not in the table
            message = f"user {user}: cannot recommend from empty training history"
            with pytest.raises(DataError, match=message):
                recommend_pop(user, split.train, 1)
            with pytest.raises(DataError, match=message):
                recommend_bll(user, split.train, 1)
            with pytest.raises(DataError, match=message):
                recommend_time(user, split.train, 1)


class TestRecommendTime:
    def test_last_played_rank(self):
        train, _ = _train([("u", "a", 100), ("u", "b", 90)])
        assert recommend_time(0, train, 2).artists.tolist() == [0, 1]

    def test_tie_broken_by_count(self):
        train, _ = _train(
            [("u", "b", 1), ("u", "b", 2), ("u", "b", 3), ("u", "b", 50), ("u", "a", 50)]
        )
        b, a = 0, 1  # interned in first-seen order
        assert recommend_time(0, train, 2).artists.tolist() == [b, a]  # b has 4 plays, a has 1

    def test_short_list_allowed(self):
        train, _ = _train([("u", "a", 1), ("u", "a", 2)])
        assert len(recommend_time(0, train, 20).artists) == 1


def test_pop_and_time_rank_uint32_timestamps_as_signed():
    # A log of timestamps below 2**32 loads as uint32, and pair_last keeps that dtype. pop and
    # time rank by ~pair_last, which reverses the order; -pair_last would wrap on the unsigned
    # array and put a play at 0 above every later one.
    top = 2**32 - 1
    plays = {  # chronological, with ties on play count and on last play
        "u1": [("a", 0), ("c", 0), ("a", top - 5), ("e", top - 5), ("b", top - 5), ("b", top - 4),
               ("d", top - 4), ("a", top - 2), ("e", top - 1), ("b", top)],
        "u2": [("x", top - 9), ("y", top - 9), ("z", top - 8), ("x", top - 7), ("y", top - 7),
               ("w", top - 7), ("z", top - 1), ("w", top)],
    }
    log = log_from_events([(u, a, t) for u, events in plays.items() for a, t in events])
    assert log.timestamps.dtype == np.uint32
    users, artists = log.id_maps.users.keys(), log.id_maps.artists.keys()
    train = split_events(events_by_user(log.users, log.artists, log.timestamps), 0.3)[0]
    split = split_histories(build_user_histories(log, 0.3, PROTOCOL.bll_d))
    for user in np.flatnonzero(split.train.n_events).tolist():
        for name, recommend in (("pop", recommend_pop), ("time", recommend_time)):
            want = brute_force_ranking(name, train, user, 10, PROTOCOL.bll_d, PROTOCOL.cf_neighbors)
            assert recommend(user, split.train, 10).ranked == want.ranked
    for key, events in plays.items():
        train_events = events[: len(events) - int(n_test_events(len(events), 0.3))]
        counts = Counter(artists.index(a) for a, _ in train_events)
        last = {artists.index(a): t for a, t in train_events}
        user = users.index(key)
        assert user_slice(split.train, user, "pair_artists").tolist() == sorted(counts)
        assert user_slice(split.train, user, "pair_counts").tolist() == [counts[a] for a in sorted(counts)]
        assert user_slice(split.train, user, "pair_last").tolist() == [last[a] for a in sorted(counts)]


class TestRecommendTop:
    # Global counts are indexed by artist id; unplayed artists hold 0.
    def test_tie_by_artist_id(self):
        counts = np.array([10, 7, 7])
        assert recommend_top(counts, 3).artists.tolist() == [0, 1, 2]

    def test_k_larger_than_artist_count(self):
        counts = np.array([3, 0, 1])
        assert recommend_top(counts, 10).artists.tolist() == [0, 2]

    def test_promotion_after_extra_plays(self):
        counts = np.array([10, 9, 1])
        assert 2 not in recommend_top(counts, 2).artists.tolist()
        counts[2] = 11
        assert recommend_top(counts, 2).artists[0] == 2

    def test_empty_counts(self):
        for counts in (np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)):
            with pytest.raises(DataError):
                recommend_top(counts, 5)

    def test_global_counts(self):
        histories = histories_from_events(
            [("u1", "a", 1), ("u1", "a", 2), ("u2", "a", 3), ("u2", "b", 4)]
        )
        assert global_train_counts(histories).tolist() == [3, 1]


class TestRecommendCf:
    def _fixture(self, **build):
        # u0 plays {a,b}; u1 plays {a,b,c}; u2 plays {b,d}
        return histories_from_events(
            [
                ("u0", "a", 1),
                ("u0", "b", 2),
                ("u1", "a", 1),
                ("u1", "b", 2),
                ("u1", "c", 3),
                ("u2", "b", 1),
                ("u2", "d", 2),
            ],
            **build,
        )

    def test_worked_example(self):
        histories = self._fixture()
        result = CfIndex(histories, 2).recommend(0, 4)
        a, b, c, d = 0, 1, 2, 3
        assert result.artists.tolist() == [b, a, c, d]
        scores = dict(result.ranked)
        sim1 = 2 / math.sqrt(2 * 3)
        sim2 = 1 / math.sqrt(2 * 2)
        assert scores[b] == pytest.approx(sim1 + sim2, abs=1e-12)
        assert scores[a] == pytest.approx(sim1, abs=1e-12)
        assert scores[c] == pytest.approx(sim1, abs=1e-12)
        assert scores[d] == pytest.approx(sim2, abs=1e-12)

    def test_clone_users(self):
        histories = histories_from_events(
            [("u0", "a", 1), ("u0", "b", 2), ("u1", "a", 1), ("u1", "b", 2)]
        )
        result = CfIndex(histories, PROTOCOL.cf_neighbors).recommend(0, 5)
        assert result.artists.tolist() == [0, 1]
        assert all(score == 1.0 for _, score in result.ranked)

    def test_single_neighbor(self):
        histories = self._fixture()
        result = CfIndex(histories, 1).recommend(0, 4)
        # only u1 (the most similar) contributes
        assert result.artists.tolist() == [0, 1, 2]

    def test_cold_user_returns_empty(self):
        histories = histories_from_events(
            [("u0", "a", 1), ("u0", "b", 2), ("u1", "x", 1), ("u1", "y", 2)]
        )
        result = CfIndex(histories, PROTOCOL.cf_neighbors).recommend(0, 5)
        assert result.ranked == []

    def test_user_without_training_rows_is_data_error(self):
        # u0 is in the table but outside the split, so it has no training rows.
        index = CfIndex(split_histories(self._fixture(fraction=0.4), np.array([1, 2])).train, PROTOCOL.cf_neighbors)
        assert index.recommend(1, 4).artists.tolist() == [1]
        for user in (0, 3, -1):
            with pytest.raises(DataError, match=f"user {user} has no training history"):
                index.recommend(user, 4)


class TestBuildRecommenders:
    def test_candidate_sets_and_lengths(self):
        rng = np.random.default_rng(41)
        events = [
            (f"u{rng.integers(0, 5)}", f"a{rng.integers(0, 12)}", int(rng.integers(0, 1000)))
            for _ in range(150)
        ]
        histories = histories_from_events(events)
        recommenders = build_recommenders(histories, PROTOCOL.algorithms, PROTOCOL.cf_neighbors)
        global_artists = set(np.flatnonzero(global_train_counts(histories)).tolist())
        for user in np.flatnonzero(histories.n_events).tolist():
            own = set(user_slice(histories, user, "pair_artists").tolist())
            for name, fn in recommenders.items():
                result = fn(user, histories, 6)
                artists = result.artists.tolist()
                assert len(artists) == len(set(artists))
                if name in ("bll", "pop", "time"):
                    assert set(artists) <= own
                    assert len(artists) == min(6, len(own))
                else:
                    assert set(artists) <= global_artists
                # determinism: run twice
                assert fn(user, histories, 6).ranked == result.ranked

    def test_unknown_algorithm(self):
        histories = histories_from_events([("u", "a", 1), ("v", "a", 2)])
        with pytest.raises(DataError):
            build_recommenders(histories, ("nope",), PROTOCOL.cf_neighbors)

    def test_keys_follow_the_algorithms_asked_for(self):
        histories = histories_from_events([("u", "a", 1), ("v", "a", 2)])
        recommenders = build_recommenders(histories, ("time", "top", "bll"), PROTOCOL.cf_neighbors)
        assert list(recommenders) == ["time", "top", "bll"]

    def test_param_validation(self):
        with pytest.raises(DataError):
            histories_from_events([("u", "a", 1)], bll_d=-1.0)
        table = histories_from_events([("u", "a", 1), ("v", "a", 2)])
        with pytest.raises(DataError, match="neighbors must be >= 1"):
            CfIndex(table, 0)


@pytest.mark.parametrize("artist_ids", [lambda a: a, lambda a: a * 100_003 + 7], ids=["dense", "sparse-wide"])
def test_cf_and_top_scores_equal_oracle_exactly(artist_ids):
    # The instances of the c3 acceptance test; here the float scores of all five algorithms must match too.
    # The sparse-wide case renames artist id a to a * 100_003 + 7 (up to ~3M).
    compared = nonempty_cf = 0
    for seed, train, events in oracle_instances(artist_ids):
        recommenders = build_recommenders(train, PROTOCOL.algorithms, PROTOCOL.cf_neighbors)
        for user in np.flatnonzero(train.n_events).tolist():
            for name, fn in recommenders.items():
                got = fn(user, train, 10)
                want = brute_force_ranking(name, events, user, 10, PROTOCOL.bll_d, PROTOCOL.cf_neighbors)
                assert got.ranked == want.ranked, (seed, user, name)
                compared += 1
                nonempty_cf += name == "cf" and bool(got.ranked)
    assert compared > 3000 and nonempty_cf > 400


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cf_neighborhood_truncation_equals_oracle_exactly(n):
    # The instances have at most 9 users, under the default 20 neighbours; small n truncates.
    truncated = 0
    for seed, train, events in oracle_instances():
        index = CfIndex(train, n)
        sets = {user: set(user_slice(train, user, "pair_artists").tolist())
                for user in np.flatnonzero(train.n_events).tolist()}
        for user in sets:
            got = index.recommend(user, 10)
            assert got.ranked == brute_force_ranking("cf", events, user, 10, PROTOCOL.bll_d, n).ranked, (seed, user)
            truncated += sum(bool(sets[user] & other) for v, other in sets.items() if v != user) > n
    assert truncated > 500


@pytest.mark.parametrize("n", [1, 2, 3, 20])
def test_cf_boundary_ties_keep_the_lowest_ids(n):
    # User 0 plays artists {0, 1}; users 1..25 each play {0, 1, 1 + v}, all tied at
    # similarity 2 / sqrt(6); user 26 plays {0, 1} and is the single most similar.
    users, artists = [0, 0, 26, 26], [0, 1, 0, 1]
    for v in range(1, 26):
        users += [v, v, v]
        artists += [0, 1, 1 + v]
    index = CfIndex(histories_from_ids(users, artists, range(len(users))), n)
    got = index.recommend(0, 100)
    tied = 2 / math.sqrt(6)
    # Each neighbour v from the tied block contributes its own artist 1 + v.
    assert got.artists.tolist() == [0, 1] + [1 + v for v in range(1, n)]
    assert got.ranked[0][1] == pytest.approx(1.0 + (n - 1) * tied, abs=1e-12)
    assert all(score == tied for _, score in got.ranked[2:])


def test_top_indices_match_a_stable_lexsort():
    # Heavy ties, -inf, and 0.0 beside -0.0, which compare equal; and int64 counts.
    rng = np.random.default_rng(17)
    for trial in range(400):
        n = int(rng.integers(0, 12)) if trial % 4 else int(rng.integers(12, 300))
        if trial % 2:
            scores = rng.choice([-np.inf, -2.5, -0.0, 0.0, 0.5, 3.0], n)
        else:
            scores = rng.integers(0, 5, n, dtype=np.int64) * int(rng.choice([1, 2**40]))
        want = np.lexsort((np.arange(n), -scores))
        for k in range(1, n + 3):
            assert _top_indices(scores, k).tolist() == want[:k].tolist(), (trial, k)


def test_top_keeps_few_bytes_per_played_artist():
    # The global ranking is kept as two 8-byte arrays, about 16 B per played artist on this
    # log of 2451 played artists; as a list of (int, float) tuples it took about 110.
    config = SynthConfig(n_users=300, n_artists=20_000, events_per_user=(20, 60), zipf_exponent=0.8, seed=5)
    histories = build_user_histories(generate_synthetic(config), PROTOCOL.fraction, PROTOCOL.bll_d)
    played = int(np.count_nonzero(global_train_counts(histories)))
    tracemalloc.start()
    try:
        recommenders = build_recommenders(histories, ("top",), PROTOCOL.cf_neighbors)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert played > 2000
    assert kept < 32 * played
    want = recommend_top(global_train_counts(histories), 3)
    assert recommenders["top"](0, histories, 3).ranked == want.ranked

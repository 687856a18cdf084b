import math

import numpy as np
import pytest

from bllrec.errors import DataError
from bllrec.ingest import history_from_arrays
from bllrec.recommend import (
    BllParams,
    CfIndex,
    CfParams,
    bll_activation,
    build_recommenders,
    global_train_counts,
    recommend_bll,
    recommend_cf,
    recommend_pop,
    recommend_time,
    recommend_top,
    user_similarity,
)

from bllrec.synth import brute_force_ranking

from conftest import histories_from_events

INT64_MAX = np.iinfo(np.int64).max


def _history(events):
    histories = histories_from_events(events)
    assert len(histories) == 1
    return next(iter(histories.values()))


class TestBllActivation:
    def test_single_unit_delta(self):
        # ref - t + 1 == 1, so the only term is 1 ** -d == 1 and ln(1) == 0.
        assert bll_activation([100], ref_time=100, d=0.5) == 0.0

    def test_two_deltas(self):
        # adjusted deltas 1 and 4: ln(1 + 4**-0.5) == ln(1.5)
        got = bll_activation([100, 97], ref_time=100, d=0.5)
        assert got == pytest.approx(math.log(1.5), abs=1e-12)
        assert round(got, 6) == 0.405465

    def test_three_equal_deltas(self):
        got = bll_activation([100, 100, 100], ref_time=100, d=0.5)
        assert got == pytest.approx(math.log(3.0), abs=1e-12)
        assert round(got, 6) == 1.098612

    def test_empty_timestamps(self):
        with pytest.raises(DataError):
            bll_activation([], ref_time=10)

    def test_future_timestamp(self):
        with pytest.raises(DataError):
            bll_activation([11], ref_time=10)

    def test_bad_decay(self):
        with pytest.raises(DataError):
            bll_activation([5], ref_time=10, d=0.0)

    def test_recency_monotone(self):
        base = bll_activation([50, 80], ref_time=100, d=0.5)
        assert bll_activation([50, 90], ref_time=100, d=0.5) > base

    def test_frequency_monotone(self):
        base = bll_activation([50, 80], ref_time=100, d=0.5)
        assert bll_activation([50, 80, 10], ref_time=100, d=0.5) > base


class TestRecommendBll:
    def test_recency_wins_single_listens(self):
        train = _history([("u", "old", 10), ("u", "new", 95)])
        ranked = recommend_bll(train, BllParams(), 2).artists
        assert ranked == [1, 0]  # "new" interned second but ranked first

    def test_identical_timestamp_multisets_tie_by_id(self):
        train = _history([("u", "x", 10), ("u", "y", 10), ("u", "x", 20), ("u", "y", 20)])
        ranked = recommend_bll(train, BllParams(), 2)
        assert ranked.artists == [0, 1]
        assert ranked.ranked[0][1] == ranked.ranked[1][1]

    def test_frequency_outweighs_moderate_recency(self):
        # adjusted deltas a: {10,20,30}, b: {5}, with explicit ref_time
        ref = 1000
        train = _history(
            [
                ("u", "a", ref - 9),
                ("u", "a", ref - 19),
                ("u", "a", ref - 29),
                ("u", "b", ref - 4),
            ]
        )
        result = recommend_bll(train, BllParams(d=0.5, ref_time=ref), 2)
        a, b = 0, 1
        assert result.artists == [a, b]
        scores = dict(result.ranked)
        assert scores[a] == pytest.approx(math.log(10**-0.5 + 20**-0.5 + 30**-0.5), abs=1e-12)
        assert scores[b] == pytest.approx(math.log(5**-0.5), abs=1e-12)
        assert round(scores[a], 4) == -0.3252
        assert round(scores[b], 4) == -0.8047

    def test_ref_time_before_training_data(self):
        train = _history([("u", "a", 100), ("u", "a", 200)])
        with pytest.raises(DataError):
            recommend_bll(train, BllParams(ref_time=150), 1)

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
        trains = histories_from_events(events)
        (user,) = trains
        expected = brute_force_ranking("bll", trains, user, 5)
        assert recommend_bll(trains[user], BllParams(), 5).ranked == expected.ranked

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
            train = _history(events)
            ranked = recommend_bll(train, BllParams(d=1e-6), n_artists).artists
            by_count = sorted(train.artist_counts, key=lambda a: -train.artist_counts[a])
            assert ranked == by_count


class TestRecommendPop:
    def test_counts_rank(self):
        train = _history([("u", "a", t) for t in range(5)] + [("u", "b", 10), ("u", "b", 11)])
        assert recommend_pop(train, 2).artists == [0, 1]

    def test_tie_broken_by_recency(self):
        train = _history([("u", "a", 1), ("u", "a", 2), ("u", "b", 3), ("u", "b", 4)])
        assert recommend_pop(train, 2).artists == [1, 0]

    def test_truncation(self):
        train = _history([("u", "a", 1), ("u", "b", 2), ("u", "c", 3), ("u", "c", 4)])
        result = recommend_pop(train, 1)
        assert result.artists == [2]

    def test_empty_train(self):
        empty = history_from_arrays(0, np.array([], dtype=np.int32), np.array([], dtype=np.int64))
        with pytest.raises(DataError):
            recommend_pop(empty, 1)
        with pytest.raises(DataError):
            recommend_bll(empty, BllParams(), 1)


class TestRecommendTime:
    def test_last_played_rank(self):
        train = _history([("u", "a", 100), ("u", "b", 90)])
        assert recommend_time(train, 2).artists == [0, 1]

    def test_tie_broken_by_count(self):
        train = _history(
            [("u", "b", 1), ("u", "b", 2), ("u", "b", 3), ("u", "b", 50), ("u", "a", 50)]
        )
        b, a = 0, 1  # interned in first-seen order
        assert recommend_time(train, 2).artists == [b, a]  # b has 4 plays, a has 1

    def test_short_list_allowed(self):
        train = _history([("u", "a", 1), ("u", "a", 2)])
        assert len(recommend_time(train, 20).artists) == 1


class TestRecommendTop:
    def test_tie_by_artist_id(self):
        counts = {0: 10, 1: 7, 2: 7}
        assert recommend_top(counts, 3).artists == [0, 1, 2]

    def test_k_larger_than_artist_count(self):
        counts = {0: 3, 1: 1}
        assert len(recommend_top(counts, 10).artists) == 2

    def test_promotion_after_extra_plays(self):
        counts = {0: 10, 1: 9, 2: 1}
        assert 2 not in recommend_top(counts, 2).artists
        counts[2] = 11
        assert recommend_top(counts, 2).artists[0] == 2

    def test_empty_counts(self):
        with pytest.raises(DataError):
            recommend_top({}, 5)

    def test_global_counts(self):
        histories = histories_from_events(
            [("u1", "a", 1), ("u1", "a", 2), ("u2", "a", 3), ("u2", "b", 4)]
        )
        assert global_train_counts(histories) == {0: 3, 1: 1}


class TestUserSimilarity:
    def test_identical_sets(self):
        assert user_similarity({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_sets(self):
        assert user_similarity({1, 2}, {3, 4}) == 0.0

    def test_hand_value(self):
        assert user_similarity({0, 1}, {1, 2, 3}) == pytest.approx(1 / math.sqrt(6), abs=1e-12)

    def test_empty_set(self):
        with pytest.raises(DataError):
            user_similarity(set(), {1})


class TestRecommendCf:
    def _fixture(self):
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
            ]
        )

    def test_worked_example(self):
        histories = self._fixture()
        result = recommend_cf(0, histories, CfParams(neighborhood_size=2), 4)
        a, b, c, d = 0, 1, 2, 3
        assert result.artists == [b, a, c, d]
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
        result = recommend_cf(0, histories, CfParams(), 5)
        assert result.artists == [0, 1]
        assert all(score == 1.0 for _, score in result.ranked)

    def test_single_neighbor(self):
        histories = self._fixture()
        result = recommend_cf(0, histories, CfParams(neighborhood_size=1), 4)
        # only u1 (the most similar) contributes
        assert result.artists == [0, 1, 2]

    def test_cold_user_returns_empty(self):
        histories = histories_from_events(
            [("u0", "a", 1), ("u0", "b", 2), ("u1", "x", 1), ("u1", "y", 2)]
        )
        result = recommend_cf(0, histories, CfParams(), 5)
        assert result.ranked == []

    def test_index_reuse_matches_throwaway(self):
        histories = self._fixture()
        index = CfIndex(histories)
        for user in histories:
            direct = recommend_cf(user, histories, CfParams(), 4)
            via_index = index.recommend(user, CfParams(), 4)
            assert direct.ranked == via_index.ranked


class TestBuildRecommenders:
    def test_candidate_sets_and_lengths(self):
        rng = np.random.default_rng(41)
        events = [
            (f"u{rng.integers(0, 5)}", f"a{rng.integers(0, 12)}", int(rng.integers(0, 1000)))
            for _ in range(150)
        ]
        histories = histories_from_events(events)
        recommenders = build_recommenders(histories)
        global_artists = set(global_train_counts(histories))
        for user, train in histories.items():
            own = set(train.artist_counts)
            for name, fn in recommenders.items():
                result = fn(user, train, 6)
                artists = result.artists
                assert len(artists) == len(set(artists))
                if name in ("bll", "pop", "time"):
                    assert set(artists) <= own
                    assert len(artists) == min(6, len(own))
                else:
                    assert set(artists) <= global_artists
                # determinism: run twice
                assert fn(user, train, 6).ranked == result.ranked

    def test_unknown_algorithm(self):
        histories = histories_from_events([("u", "a", 1), ("v", "a", 2)])
        with pytest.raises(DataError):
            build_recommenders(histories, algorithms=("nope",))

    def test_param_validation(self):
        with pytest.raises(DataError):
            BllParams(d=-1.0)
        with pytest.raises(DataError):
            CfParams(neighborhood_size=0)

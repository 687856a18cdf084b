import math
from collections import Counter

import numpy as np
import pytest

from bllrec.errors import DataError
from bllrec.profiling import (
    GroupStats,
    assign_groups,
    global_artist_distribution,
    group_stats,
    score_users,
)

from bllrec.ingest import build_user_histories
from bllrec.split import split_histories
from bllrec.synth import SynthConfig, generate_synthetic

from conftest import PROTOCOL, histories_from_events, histories_from_ids, log_from_events
from oracles import events_by_user, split_events


def _score(events, user="u"):
    """The mainstreaminess of ``user`` in a log of (user key, artist key, timestamp) events."""
    log = log_from_events(events)
    scores = score_users(build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d), min_events=1)
    return scores[log.id_maps.users.keys().index(user)]


class TestUserDistribution:
    # A user's distribution is its play counts over its event count: each
    # score below is the hand-computed overlap of that distribution with
    # the global one.
    def test_direct_normalization(self):
        events = [("u", "a", 1), ("u", "a", 2), ("u", "a", 3), ("u", "b", 4)]
        # u: a 3/4, b 1/4; global: a 3/8, b 5/8
        assert _score(events + [("v", "b", t) for t in range(4)]) == 3 / 8 + 1 / 4

    def test_single_artist(self):
        # u: a 1; global: a 5/8
        assert _score([("u", "a", t) for t in range(5)] + [("v", "b", t) for t in range(3)]) == 5 / 8

    def test_three_artists(self):
        events = [("u", "a", 1), ("u", "b", 2), ("u", "c", 3), ("u", "c", 4)]
        # u: a 1/4, b 1/4, c 1/2; global: a 1/8, b 1/8, c 3/4
        assert _score(events + [("v", "c", t) for t in range(4)]) == 1 / 8 + 1 / 8 + 1 / 2

    def test_sums_to_one(self):
        # Alone in the log, a user's distribution is the global one.
        rng = np.random.default_rng(11)
        for _ in range(20):
            events = [("u", f"a{rng.integers(0, 9)}", int(t)) for t in range(int(rng.integers(1, 60)))]
            histories = histories_from_events(events)  # one user, id 0
            assert (histories.pair_counts / histories.n_events[0]).sum() == pytest.approx(1.0, abs=1e-9)
            assert _score(events) == pytest.approx(1.0, abs=1e-9)


class TestGlobalDistribution:
    def test_hand_aggregation(self):
        histories = histories_from_events(
            [("u1", "a", 1), ("u2", "a", 2), ("u2", "b", 3), ("u2", "b", 4)]
        )
        assert global_artist_distribution(histories).tolist() == [0.5, 0.5]

    def test_single_user_identity(self):
        histories = histories_from_events([("u", "a", 1), ("u", "b", 2), ("u", "a", 3)])
        # One user, id 0, so every pair row is its own.
        shares = histories.pair_counts / histories.n_events[0]
        assert global_artist_distribution(histories)[histories.pair_artists].tolist() == shares.tolist()

    def test_order_independence(self):
        events = [("u2", "b", 3), ("u1", "a", 1), ("u2", "a", 2)]
        permuted = [events[i] for i in (2, 0, 1)]

        def by_key(event_list):
            log = log_from_events(event_list)
            dist = global_artist_distribution(build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d))
            return dict(zip(log.id_maps.artists.keys(), dist.tolist()))

        assert by_key(events) == by_key(permuted)

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            global_artist_distribution(histories_from_events([]))


class TestScoreUsers:
    def test_min_events_filter(self):
        histories = histories_from_events(
            [("solo", "a", 1)] + [("busy", "a", t) for t in range(5)]
        )
        scores = score_users(histories, min_events=2)
        busy = histories.n_events.tolist().index(5)
        assert len(scores) == 2
        assert np.flatnonzero(~np.isnan(scores)).tolist() == [busy]

    def test_filtered_users_still_shape_global(self):
        # "solo" listens to artist b once; it must dilute the global distribution.
        histories = histories_from_events(
            [("solo", "b", 1)] + [("busy", "a", t) for t in range(3)]
        )
        scores = score_users(histories, min_events=2)
        busy = histories.n_events.tolist().index(3)
        assert scores[busy] == pytest.approx(0.75)  # min(1.0, 3/4)


    def test_equals_counter_fsum_oracle(self):
        rng = np.random.default_rng(19)
        unscored = 0
        for _ in range(40):
            n = int(rng.integers(1, 300))
            events = [(f"u{rng.integers(0, 12)}", f"a{rng.integers(0, 25)}", int(rng.integers(0, 50))) for _ in range(n)]
            min_events = int(rng.integers(1, 30))
            log = log_from_events(events)
            by_user = {}
            for u, a in zip(log.users.tolist(), log.artists.tolist()):
                by_user.setdefault(u, Counter())[a] += 1
            totals = sum(by_user.values(), Counter())  # users below min_events count here too
            expected = {
                u: math.fsum(min(c / counts.total(), totals[a] / n) for a, c in counts.items())
                for u, counts in by_user.items()
                if counts.total() >= min_events
            }
            unscored += len(by_user) - len(expected)
            scores = score_users(build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d), min_events)
            assert len(scores) == len(by_user)
            assert {u: score for u, score in enumerate(scores.tolist()) if not math.isnan(score)} == expected
        assert unscored > 20

    def test_relabeling_invariance_and_bounds(self):
        # Permuted artist ids sort each user's pair rows otherwise: every score keeps its bits, in [0, 1].
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 120))
            users, artists, perm = rng.integers(0, 6, n), rng.integers(0, 8, n), rng.permutation(8)
            scores = score_users(histories_from_ids(users, artists, range(n)), min_events=1)
            relabeled = score_users(histories_from_ids(users, perm[artists], range(n)), min_events=1)
            assert np.array_equal(scores, relabeled, equal_nan=True)
            scored = scores[~np.isnan(scores)]
            assert len(scored) and ((scored >= 0.0) & (scored <= 1.0 + 1e-12)).all()


def _groups(scores, size):
    return [(name, members.tolist()) for name, members in assign_groups(np.asarray(scores), size).items()]


class TestAssignGroups:
    def test_nine_users_three_per_group(self):
        groups = assign_groups(0.1 * (np.arange(9) + 1), 3)
        assert all(members.dtype == np.int64 for members in groups.values())
        assert [(name, members.tolist()) for name, members in groups.items()] == [
            ("LowMS", [0, 1, 2]), ("MedMS", [3, 4, 5]), ("HighMS", [6, 7, 8])
        ]

    def test_three_users_group_of_one(self):
        assert _groups([0.9, 0.1, 0.5], 1) == [("LowMS", [1]), ("MedMS", [2]), ("HighMS", [0])]

    def test_unscored_users_left_out(self):
        nan = math.nan
        assert _groups([nan, 0.3, 0.1, nan, 0.2], 1) == [("LowMS", [2]), ("MedMS", [4]), ("HighMS", [1])]

    def test_too_few_users(self):
        for scores in ([0.1, 0.9], [0.1, math.nan, 0.9]):
            with pytest.raises(DataError):
                assign_groups(np.array(scores), 1)

    def test_permutation_invariance(self):
        # Renumbering the users renumbers the groups and changes nothing else (no score is tied).
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        perm = rng.permutation(30)
        renumbered = assign_groups(scores[perm], 5)
        assert [(name, np.sort(perm[members]).tolist()) for name, members in renumbered.items()] == _groups(scores, 5)

    def test_mean_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            scores = rng.random(int(rng.integers(9, 40)))
            size = int(rng.integers(1, len(scores) // 3 + 1))
            groups = assign_groups(scores, size)
            means = [float(np.mean([scores[u] for u in g.tolist()])) for g in groups.values()]
            assert means[0] <= means[1] <= means[2]

    def test_score_tie_broken_by_user_id(self):
        assert _groups(np.full(6, 0.5), 2) == [("LowMS", [0, 1]), ("MedMS", [2, 3]), ("HighMS", [4, 5])]


class TestGroupStats:
    def test_single_user(self):
        histories = histories_from_events([("u", "a", 1), ("u", "b", 2), ("u", "a", 3)])
        stats = group_stats(np.array([0]), histories, np.array([0.5]))
        assert (stats.users, stats.distinct_artists, stats.listening_events) == (1, 2, 3)
        assert stats.avg_artists_per_user == 2.0
        assert stats.avg_mainstreaminess == 0.5

    def test_shared_artist_counted_once(self):
        histories = histories_from_events(
            [("u1", "a", 1), ("u1", "b", 2), ("u2", "a", 3), ("u2", "c", 4)]
        )
        stats = group_stats(np.array([0, 1]), histories, np.zeros(2))
        assert stats.distinct_artists == 3
        assert stats.avg_artists_per_user == 2.0

    def test_empty_group(self):
        with pytest.raises(DataError):
            group_stats(np.array([], dtype=np.int64), histories_from_events([]), np.array([]))

    def test_three_groups_equal_counter_oracle(self):
        log = generate_synthetic(SynthConfig(n_users=45, n_artists=60, events_per_user=(5, 40), seed=7))
        history = events_by_user(log.users, log.artists, log.timestamps)
        histories = build_user_histories(log, 0.3, PROTOCOL.bll_d)
        scores = score_users(histories, PROTOCOL.min_events)
        for table, events in ((histories, history), (split_histories(histories).train, split_events(history, 0.3)[0])):
            for members in assign_groups(scores, 15).values():
                played = {u: Counter(a for a, _ in events[u]) for u in members.tolist()}
                union = set().union(*played.values())
                assert len(union) < sum(map(len, played.values()))  # members share artists
                expected = GroupStats(
                    users=15,
                    distinct_artists=len(union),
                    listening_events=sum(counts.total() for counts in played.values()),
                    avg_artists_per_user=sum(map(len, played.values())) / 15,
                    avg_mainstreaminess=sum(scores[u] for u in members.tolist()) / 15,
                )
                assert group_stats(members, table, scores) == expected

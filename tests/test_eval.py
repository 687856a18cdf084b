import tracemalloc

import numpy as np
import pytest

from bllrec.cli import MAX_K, emit_report
from bllrec.errors import DataError
from bllrec.evaluation import EvalReport, evaluate_algorithm
from bllrec.recommend import build_recommenders
from bllrec.split import SplitDataset, split_histories

from conftest import PROTOCOL, hit_points, histories_from_events, histories_from_ids, user_slice, user_test_artists
from oracles import ranking_of


FILLER = 99  # the artist every test user trains on; no test set below holds it


def _fixed_rankings(test_sets, rankings, k_max, group=None):
    """Evaluate ``rankings[u]`` for user u, whose test events play exactly ``test_sets[u]``, over ``group`` or all."""
    users, artists = [], []
    for user, test in enumerate(test_sets):
        played = [FILLER] * len(test) + list(test)  # fraction 0.5 puts exactly the test artists in test
        users += [user] * len(played)
        artists += played
    split = split_histories(histories_from_ids(users, artists, range(len(users)), fraction=0.5))

    def spy(user, train, k):
        assert user_slice(train, user, "pair_artists").tolist() == [FILLER] and k == k_max
        return ranking_of([(a, 1.0) for a in rankings[user]])

    group = split.per_user if group is None else np.array(group)
    return evaluate_algorithm(split, spy, group, k_max, "spy", "ALL")


class TestHitsAtK:
    def test_hand_count(self):
        report = _fixed_rankings([{0, 2}], [[0, 1, 2, 3, 4]], 5)
        assert report.points == hit_points([1, 1, 2, 2, 2], 2)

    def test_disjoint(self):
        assert _fixed_rankings([{5, 6}], [[0, 1]], 4).points == hit_points([0, 0, 0, 0], 2)

    def test_short_ranking_keeps_final_count(self):
        assert _fixed_rankings([{7}], [[7]], 4).points == hit_points([1, 1, 1, 1], 1)

    def test_empty_test_set(self):
        histories = histories_from_ids([0, 0, 1, 1], [0, 1, 0, 1], [1, 2, 3, 4], fraction=0.5)
        both = split_histories(histories)
        only_user_0 = split_histories(histories, np.array([0]))
        split = SplitDataset(both.train, only_user_0.test_keys, only_user_0.test_events, dropped=0)
        with pytest.raises(DataError, match="user 1: empty test artist set"):
            evaluate_algorithm(split, lambda u, t, k: ranking_of([]), split.per_user, 3)


class TestRecallPrecision:
    def test_single_user(self):
        report = _fixed_rankings([{1, 2, 3, 4}], [[0, 1, 5, 2, 6]], 5)
        assert report.points == hit_points([0, 1, 1, 2, 2], 4)
        recall5, precision5 = report.points[4]
        assert recall5 == 0.5
        assert precision5 == pytest.approx(0.4)

    def test_perfect_recall_when_test_fits(self):
        report = _fixed_rankings([{0, 1}], [[0, 1, 2]], 3)
        assert report.points == hit_points([1, 2, 2], 2)
        assert report.points[1][0] == 1.0 and report.points[2][0] == 1.0

    def test_macro_mean(self):
        test_sets, rankings = [set(range(5)), set(range(5))], [[0, 9], [0, 1]]
        one_user_points = [_fixed_rankings(test_sets, rankings, 2, [user]).points for user in (0, 1)]
        assert one_user_points == [hit_points([1, 1], 5), hit_points([1, 2], 5)]
        report = _fixed_rankings(test_sets, rankings, 2)
        assert report.users_evaluated == 2
        assert report.points[1][0] == pytest.approx((0.2 + 0.4) / 2)

    def test_no_users(self):
        with pytest.raises(DataError, match="no evaluable users"):
            evaluate_algorithm(_clone_split(), lambda u, t, k: None, np.array([], dtype=np.int64), 5)

    @pytest.mark.parametrize("k_max", [1, 20])
    def test_points_are_sums_in_user_order(self, k_max):
        # float sums depend on their order: the points must be the plain
        # user-by-user sums, bit for bit, not a pairwise or blocked reduction
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_users = int(rng.integers(9, 120))
            n_events = 40 * n_users
            histories = histories_from_ids(
                rng.integers(0, n_users, n_events), rng.integers(0, 50, n_events), rng.integers(0, 10**6, n_events),
                fraction=0.3,
            )
            split = split_histories(histories)

            def shuffled(user, train, k):
                # Repeated artists, ids above every test artist (0..49), and lists
                # longer than k, which evaluation cuts to k.
                artists = rng.choice(np.r_[:60, 2**31 - 1], int(rng.integers(0, k + 6)))
                return ranking_of([(int(a), 1.0) for a in artists])

            state = rng.bit_generator.state
            report = evaluate_algorithm(split, shuffled, split.per_user, k_max)
            rng.bit_generator.state = state  # replay the same rankings
            recall, precision = [0.0] * k_max, [0.0] * k_max
            for user in split.per_user.tolist():
                relevant = set(user_test_artists(split, user).tolist())
                ranked = shuffled(user, split.train, k_max).artists.tolist()
                count = 0
                for i in range(k_max):
                    count += i < len(ranked) and ranked[i] in relevant
                    recall[i] += count / len(relevant)
                    precision[i] += count / (i + 1)
            n = len(split.per_user)
            assert report.points == [(r / n, p / n) for r, p in zip(recall, precision)], seed


def _clone_split():
    events = []
    for user in ("u0", "u1"):
        events += [(user, "a", 1), (user, "b", 2), (user, "a", 3), (user, "b", 4)]
    histories = histories_from_events(events, fraction=0.5)
    return split_histories(histories)


class TestEvaluateAlgorithm:
    def test_clone_users_cf_reaches_full_recall(self):
        split = _clone_split()
        recommenders = build_recommenders(split.train, algorithms=("cf",), cf_neighbors=20)
        report = evaluate_algorithm(split, recommenders["cf"], split.per_user, 5, "cf", "ALL")
        assert report.points[1][0] == 1.0  # recall@2 == 1: both test artists are clone train artists
        assert report.users_evaluated == 2

    def test_empty_recommendations_count_as_zero_hits(self):
        split = _clone_split()

        def cold(user, train, k):
            return ranking_of([])

        report = evaluate_algorithm(split, cold, split.per_user, 3, "cf", "ALL")
        assert report.users_evaluated == 2
        assert all(recall == 0.0 and precision == 0.0 for recall, precision in report.points)

    def test_zero_evaluable_users(self):
        histories = histories_from_ids([0, 0, 1, 1], [0, 1, 0, 1], [1, 2, 3, 4], fraction=0.5)
        split = split_histories(histories, np.array([0]))
        with pytest.raises(DataError, match="no evaluable users"):
            evaluate_algorithm(split, lambda u, t, k: None, np.array([1]), 3)  # user 1 has no training events

    def test_top_misses_rare_test_artists_entirely(self):
        # two users hammer filler artists, then finish on a unique artist each;
        # the global top-k never contains the test artists, so the curve is flat zero
        events = []
        for user, rare in (("u0", "z0"), ("u1", "z1")):
            events += [(user, "x", t) for t in range(1, 40)]
            events += [(user, "y", t) for t in range(40, 60)]
            events += [(user, rare, 99)]
        histories = histories_from_events(events)
        split = split_histories(histories)  # the default fraction puts exactly the rare artist in each test set
        recommenders = build_recommenders(split.train, ("top",), PROTOCOL.cf_neighbors)
        report = evaluate_algorithm(split, recommenders["top"], split.per_user, 2, "top", "ALL")
        assert all(recall == 0.0 and precision == 0.0 for recall, precision in report.points)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        events = [
            (f"u{rng.integers(0, 8)}", f"a{rng.integers(0, 15)}", int(rng.integers(0, 10_000)))
            for _ in range(400)
        ]
        histories = histories_from_events(events, fraction=0.1)
        split = split_histories(histories)
        recommenders = build_recommenders(split.train, PROTOCOL.algorithms, PROTOCOL.cf_neighbors)
        for name, fn in recommenders.items():
            first = evaluate_algorithm(split, fn, split.per_user, 10, name, "ALL")
            second = evaluate_algorithm(split, fn, split.per_user, 10, name, "ALL")
            assert first.points == second.points
            for user in split.per_user.tolist():
                relevant = set(user_test_artists(split, user).tolist())
                ranked = fn(user, split.train, 10).artists.tolist()
                want = hit_points([sum(a in relevant for a in ranked[: i + 1]) for i in range(10)], len(relevant))
                group = np.array([user])
                assert [evaluate_algorithm(split, fn, group, 10).points for _ in range(2)] == [want, want]

    def test_recommenders_never_see_test_events(self):
        split = _clone_split()
        boundaries = {u: 3 for u in split.per_user.tolist()}  # each user's test events are its plays at 3 and 4
        seen = {}

        def spy(user, train, k):
            seen[user] = int(user_slice(train, user, "pair_last").max())
            return ranking_of([(a, 1.0) for a in user_slice(train, user, "pair_artists").tolist()][:k])

        evaluate_algorithm(split, spy, split.per_user, 3, "spy", "ALL")
        for user, max_train_ts in seen.items():
            assert max_train_ts <= boundaries[user]

    def test_recall_curves_non_decreasing(self):
        rng = np.random.default_rng(29)
        events = [
            (f"u{rng.integers(0, 6)}", f"a{rng.integers(0, 10)}", int(rng.integers(0, 999)))
            for _ in range(300)
        ]
        histories = histories_from_events(events, fraction=0.2)
        split = split_histories(histories)
        for name, fn in build_recommenders(split.train, PROTOCOL.algorithms, PROTOCOL.cf_neighbors).items():
            report = evaluate_algorithm(split, fn, split.per_user, 15, name, "ALL")
            recalls = [r for r, _ in report.points]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    def test_reports_keep_nothing_per_user(self):
        # What the reports keep alive, traced at two group sizes, must not grow with the users evaluated:
        # a users x k_max int64 hit matrix per report would keep 8000 B per user at k_max = 1000.
        rng = np.random.default_rng(7)
        n_users, n_events = 400, 16_000
        histories = histories_from_ids(
            rng.integers(0, n_users, n_events), rng.integers(0, 300, n_events), rng.integers(0, 10**6, n_events),
            fraction=0.3,
        )
        split = split_histories(histories)
        recommenders = build_recommenders(split.train, PROTOCOL.algorithms, PROTOCOL.cf_neighbors)
        sizes, kept = (100, 300), []
        for size in sizes:
            tracemalloc.start()
            try:
                reports = [evaluate_algorithm(split, fn, split.per_user[:size], MAX_K) for fn in recommenders.values()]
                kept.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert [report.users_evaluated for report in reports] == [size] * len(recommenders)
        assert (kept[1] - kept[0]) / (sizes[1] - sizes[0]) < 1024


class TestEmitReport:
    def _report(self, algorithm="bll", group="LowMS"):
        return EvalReport(algorithm, group, [(0.1, 0.1), (0.25, 0.125)], 3)

    def test_rows_and_header(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_report([self._report()], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,group,k,recall,precision,users"
        assert lines[1] == "bll,LowMS,1,0.100000,0.100000,3"
        assert lines[2] == "bll,LowMS,2,0.250000,0.125000,3"

    def test_row_cardinality_and_sorting(self, tmp_path):
        reports = [
            self._report(a, g)
            for a in ("top", "bll", "cf", "pop", "time")
            for g in ("MedMS", "LowMS", "HighMS")
        ]
        path = tmp_path / "results.csv"
        emit_report(reports, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 5 * 3 * 2
        body = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert body == sorted(body, key=lambda r: (r[0], r[1], int(r[2])))

    def test_re_emission_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        reports = [self._report("bll"), self._report("cf")]
        emit_report(reports, first)
        emit_report(reports, second)
        assert first.read_bytes() == second.read_bytes()

    def test_no_reports(self, tmp_path):
        with pytest.raises(DataError):
            emit_report([], tmp_path / "x.csv")

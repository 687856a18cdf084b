import numpy as np
import pytest

from bllrec.errors import DataError
from bllrec.evaluation import (
    EvalReport,
    UserResult,
    emit_report,
    evaluate_algorithm,
    hits_at_k,
    recall_precision_points,
)
from bllrec.recommend import CfParams, RecommendationList, build_recommenders
from bllrec.split import split_histories

from conftest import histories_from_events


class TestHitsAtK:
    def test_hand_count(self):
        hits = hits_at_k([0, 1, 2, 3, 4], {0, 2}, 5)
        assert hits.tolist() == [1, 1, 2, 2, 2]

    def test_disjoint(self):
        assert hits_at_k([0, 1], {5, 6}, 4).tolist() == [0, 0, 0, 0]

    def test_short_ranking_keeps_final_count(self):
        assert hits_at_k([7], {7}, 4).tolist() == [1, 1, 1, 1]

    def test_empty_test_set(self):
        with pytest.raises(DataError):
            hits_at_k([1], set(), 3)


class TestRecallPrecision:
    def test_single_user(self):
        result = UserResult(0, np.array([0, 1, 1, 2, 2]), 4)
        points = recall_precision_points([result], 5)
        recall5, precision5 = points[4]
        assert recall5 == 0.5
        assert precision5 == pytest.approx(0.4)

    def test_perfect_recall_when_test_fits(self):
        result = UserResult(0, np.array([1, 2, 2]), 2)
        points = recall_precision_points([result], 3)
        assert points[1][0] == 1.0 and points[2][0] == 1.0

    def test_macro_mean(self):
        results = [UserResult(0, np.array([1]), 5), UserResult(1, np.array([2]), 5)]
        points = recall_precision_points(results, 1)
        assert points[0][0] == pytest.approx((0.2 + 0.4) / 2)

    def test_no_users(self):
        with pytest.raises(DataError):
            recall_precision_points([], 5)


def _clone_split():
    events = []
    for user in ("u0", "u1"):
        events += [(user, "a", 1), (user, "b", 2), (user, "a", 3), (user, "b", 4)]
    histories = histories_from_events(events)
    return split_histories(histories, 0.5)


class TestEvaluateAlgorithm:
    def test_clone_users_cf_reaches_full_recall(self):
        split = _clone_split()
        recommenders = build_recommenders(split.train, algorithms=("cf",), cf_params=CfParams())
        report = evaluate_algorithm(split, recommenders["cf"], split.train, 5, "cf", "ALL")
        assert report.points[1][0] == 1.0  # recall@2 == 1: both test artists are clone train artists
        assert report.users_evaluated == 2

    def test_empty_recommendations_count_as_zero_hits(self):
        split = _clone_split()

        def cold(user, train, k):
            return RecommendationList(user, [], k)

        report = evaluate_algorithm(split, cold, split.train, 3, "cf", "ALL")
        assert report.users_evaluated == 2
        assert all(recall == 0.0 and precision == 0.0 for recall, precision in report.points)

    def test_zero_evaluable_users(self):
        split = _clone_split()
        with pytest.raises(DataError):
            evaluate_algorithm(split, lambda u, t, k: None, [999], 3)

    def test_top_misses_rare_test_artists_entirely(self):
        # two users hammer filler artists, then finish on a unique artist each;
        # the global top-k never contains the test artists, so the curve is flat zero
        events = []
        for user, rare in (("u0", "z0"), ("u1", "z1")):
            events += [(user, "x", t) for t in range(1, 40)]
            events += [(user, "y", t) for t in range(40, 60)]
            events += [(user, rare, 99)]
        histories = histories_from_events(events)
        split = split_histories(histories, 0.01)  # exactly the rare artist in each test set
        recommenders = build_recommenders(split.train, algorithms=("top",))
        report = evaluate_algorithm(split, recommenders["top"], split.train, 2, "top", "ALL")
        assert all(recall == 0.0 and precision == 0.0 for recall, precision in report.points)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        events = [
            (f"u{rng.integers(0, 8)}", f"a{rng.integers(0, 15)}", int(rng.integers(0, 10_000)))
            for _ in range(400)
        ]
        histories = histories_from_events(events)
        split = split_histories(histories, 0.1)
        recommenders = build_recommenders(split.train)
        for name, fn in recommenders.items():
            first = evaluate_algorithm(split, fn, split.train, 10, name, "ALL")
            second = evaluate_algorithm(split, fn, split.train, 10, name, "ALL")
            assert first.points == second.points
            assert [r.hits_at_k.tolist() for r in first.user_results] == (
                [r.hits_at_k.tolist() for r in second.user_results]
            )

    def test_recommenders_never_see_test_events(self):
        split = _clone_split()
        boundaries = {u: int(split.test[u].timestamps.min()) for u in split.test}
        seen = {}

        def spy(user, train, k):
            seen[user] = int(train.timestamps.max())
            return RecommendationList(user, [(a, 1.0) for a in train.pair_artists.tolist()][:k], k)

        evaluate_algorithm(split, spy, split.train, 3, "spy", "ALL")
        for user, max_train_ts in seen.items():
            assert max_train_ts <= boundaries[user]

    def test_recall_curves_non_decreasing(self):
        rng = np.random.default_rng(29)
        events = [
            (f"u{rng.integers(0, 6)}", f"a{rng.integers(0, 10)}", int(rng.integers(0, 999)))
            for _ in range(300)
        ]
        histories = histories_from_events(events)
        split = split_histories(histories, 0.2)
        for name, fn in build_recommenders(split.train).items():
            report = evaluate_algorithm(split, fn, split.train, 15, name, "ALL")
            recalls = [r for r, _ in report.points]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))


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

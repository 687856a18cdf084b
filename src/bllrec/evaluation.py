"""Recall@k / precision@k evaluation against the temporal test sets.

The relevance set per user is the distinct artists in that user's test
events. Metrics are macro-averaged: each user contributes equally, and
precision@k divides by k even when a recommender returned fewer than k
items. Recommenders only ever see training histories; the test side is
consulted exclusively for hit judging.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .split import SplitDataset


@dataclass
class UserResult:
    user: int
    hits_at_k: np.ndarray  # cumulative hit count for k = 1..k_max
    test_set_size: int  # distinct artists in the user's test events


@dataclass
class EvalReport:
    algorithm: str
    group: str
    points: list[tuple[float, float]]  # (recall, precision) for k = 1..k_max
    users_evaluated: int
    user_results: list[UserResult] = field(repr=False, default_factory=list)


def hits_at_k(ranked_artists, test_artists: set[int], k_max: int) -> np.ndarray:
    """Cumulative hit counts of the top-k prefix for each k up to k_max.

    Rankings shorter than k_max keep their final hit count for larger k.
    """
    if not test_artists:
        raise DataError("empty test artist set; exclude the user upstream")
    hits = np.zeros(k_max, dtype=np.int64)
    count = 0
    for i in range(k_max):
        if i < len(ranked_artists) and ranked_artists[i] in test_artists:
            count += 1
        hits[i] = count
    return hits


def recall_precision_points(user_results: list[UserResult], k_max: int) -> list[tuple[float, float]]:
    """Macro-averaged (recall, precision) per k over the given users."""
    if not user_results:
        raise DataError("no user results to aggregate")
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    recall_sum = np.zeros(k_max)
    precision_sum = np.zeros(k_max)
    for result in user_results:
        hits = result.hits_at_k.astype(np.float64)
        recall_sum += hits / result.test_set_size
        precision_sum += hits / ks
    n = len(user_results)
    return [(float(r / n), float(p / n)) for r, p in zip(recall_sum, precision_sum)]


def evaluate_algorithm(
    split: SplitDataset,
    recommend_fn,
    users,
    k_max: int,
    algorithm: str = "",
    group: str = "",
) -> EvalReport:
    """Run one recommender over a group and aggregate its metrics.

    ``recommend_fn(user, train_history, k_max)`` must return a
    RecommendationList built from training data only. Users whose
    recommender returns an empty list are counted with zero hits, not
    skipped. Users are evaluated one after another in sorted id order,
    which fixes the aggregation order.
    """
    evaluable = [u for u in sorted(users) if u in split.per_user]
    if not evaluable:
        raise DataError(f"group {group or '?'}: no evaluable users")

    def one_user(user: int) -> UserResult:
        user_split = split.per_user[user]
        recommendation = recommend_fn(user, user_split.train, k_max)
        test_artists = set(user_split.test.artist_counts)
        return UserResult(
            user=user,
            hits_at_k=hits_at_k(recommendation.artists, test_artists, k_max),
            test_set_size=len(test_artists),
        )

    results = [one_user(u) for u in evaluable]

    return EvalReport(
        algorithm=algorithm,
        group=group,
        points=recall_precision_points(results, k_max),
        users_evaluated=len(results),
        user_results=results,
    )


def emit_report(reports: list[EvalReport], path) -> None:
    """Write `algorithm,group,k,recall,precision,users` rows, sorted, 6 decimals."""
    if not reports:
        raise DataError("no reports to emit")
    rows = []
    for report in reports:
        for i, (recall, precision) in enumerate(report.points):
            rows.append(
                (report.algorithm, report.group, i + 1, recall, precision, report.users_evaluated)
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["algorithm", "group", "k", "recall", "precision", "users"])
        for algorithm, group, k, recall, precision, users in rows:
            writer.writerow([algorithm, group, k, f"{recall:.6f}", f"{precision:.6f}", users])


def emit_plot_data(reports: list[EvalReport], out_dir) -> list[Path]:
    """One `recall,precision` file per algorithm-group curve, for external plotting."""
    if not reports:
        raise DataError("no reports to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for report in sorted(reports, key=lambda r: (r.algorithm, r.group)):
        path = out_dir / f"curve_{report.algorithm}_{report.group}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["recall", "precision"])
            for recall, precision in report.points:
                writer.writerow([f"{recall:.6f}", f"{precision:.6f}"])
        paths.append(path)
    return paths

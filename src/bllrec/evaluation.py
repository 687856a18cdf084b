"""Recall@k / precision@k evaluation against the temporal test sets.

The relevance set per user is the distinct artists in that user's test
events, which are the user's pair rows in the test table. Metrics are
macro-averaged: each user contributes equally, and precision@k divides
by k even when a recommender returned fewer than k items. Recommenders
only ever see training histories; the test side is consulted
exclusively for hit judging.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .split import SplitDataset


@dataclass
class EvalReport:
    algorithm: str
    group: str
    points: list[tuple[float, float]]  # (recall, precision) for k = 1..k_max
    users_evaluated: int
    # users_evaluated x k_max int64: each user's cumulative hits for k = 1..k_max, rows in id order
    hits: np.ndarray | None = field(default=None, repr=False)


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
    skipped, and a list shorter than k_max keeps its final hit count for
    larger k. Users are evaluated one after another in sorted id order,
    and their terms are summed in that order, row after row.
    """
    evaluable = [u for u in sorted(users) if u in split.train]
    if not evaluable:
        raise DataError(f"group {group or '?'}: no evaluable users")
    offsets = split.test.pair_offsets
    test_sizes = np.diff(offsets)[evaluable]  # distinct artists in each user's test events
    if not test_sizes.all():
        user = evaluable[int(np.argmin(test_sizes))]
        raise DataError(f"user {user}: empty test artist set; exclude the user upstream")

    hits = np.zeros((len(evaluable), k_max), dtype=np.int64)
    for row, user in enumerate(evaluable):
        relevant = set(split.test.pair_artists[offsets[user]:offsets[user + 1]].tolist())
        ranked = recommend_fn(user, split.train[user], k_max).artists[:k_max]
        hits[row, :len(ranked)] = [artist in relevant for artist in ranked]
    np.cumsum(hits, axis=1, out=hits)

    # accumulate adds row after row; .sum(axis=0) may sum pairwise and change the last bits.
    recall = np.add.accumulate(hits / test_sizes[:, None], axis=0)[-1]
    precision = np.add.accumulate(hits / np.arange(1, k_max + 1, dtype=np.float64), axis=0)[-1]
    n = len(evaluable)
    points = [(float(r / n), float(p / n)) for r, p in zip(recall, precision)]
    return EvalReport(algorithm, group, points, n, hits)


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


"""Recall@k / precision@k evaluation against the temporal test sets.

The relevance set per user is the distinct artists in that user's test
events, which are the low words of the user's keys among the split's
test keys. Metrics are macro-averaged: each user contributes equally,
and precision@k divides by k even when a recommender returned fewer
than k items. Recommenders only ever see training histories; the test
side is consulted exclusively for hit judging.
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
    users: np.ndarray,
    k_max: int,
    algorithm: str = "",
    group: str = "",
) -> EvalReport:
    """Run one recommender over a group, an ascending array of user ids, and aggregate its metrics.

    ``recommend_fn(user, split.train, k_max)`` must return a
    RecommendationList that ranks for that user from the train table only.
    It is called once per evaluable user, that is each group member with
    training events, in ascending id order. Its ``artists`` array, cut to
    k_max, fills one row of a users x k_max matrix padded with -1, and
    every hit is judged at once by one ``np.searchsorted`` of the entries'
    keys, ``user << 32 | artist``, in the split's test keys. A user whose
    list is empty counts with zero hits, not skipped, and a list shorter
    than k_max keeps its final hit count for larger k.
    The users' terms are summed in id order, row after row.
    """
    evaluable = users[split.train.n_events[users] > 0]
    if not len(evaluable):
        raise DataError(f"group {group or '?'}: no evaluable users")
    test_keys = split.test_keys
    first = evaluable.astype(np.uint64) << np.uint64(32)  # each user's lowest possible key
    # distinct artists in each user's test events
    test_sizes = np.searchsorted(test_keys, first + np.uint64(2**32)) - np.searchsorted(test_keys, first)
    if not test_sizes.all():
        user = evaluable[int(np.argmin(test_sizes))]
        raise DataError(f"user {user}: empty test artist set; exclude the user upstream")

    ranked = np.full((len(evaluable), k_max), -1, dtype=np.int32)
    for row, user in enumerate(evaluable.tolist()):
        # One call per user, not per group: the benchmark's tracer times each call as a recommend span.
        artists = recommend_fn(user, split.train, k_max).artists[:k_max]
        ranked[row, : len(artists)] = artists
    keys = first[:, None] | ranked.astype(np.uint32)  # a pad's low word, 2**32 - 1, is no artist's id
    hits = np.cumsum(test_keys.take(np.searchsorted(test_keys, keys), mode="clip") == keys, axis=1, dtype=np.int64)

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


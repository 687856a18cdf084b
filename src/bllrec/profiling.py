"""Mainstreaminess scoring and LowMS/MedMS/HighMS group formation.

Mainstreaminess relates a user's artist-frequency distribution to the
aggregate distribution over all loaded users, via histogram intersection:

    ms(u) = sum over artists a of min(p_u(a), p_global(a))

which is 1.0 when the two distributions coincide and 0.0 when their
supports are disjoint. Both distributions come from the pair rows of the
``UserHistories`` table: p_u(a) is the pair's count over the user's
events, p_global(a) the artist's total count over all events.

Scores are one float64 array indexed by user id, NaN for an unscored
user, and each group is an ascending int64 array of user ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import UserHistories

GROUP_NAMES = ("LowMS", "MedMS", "HighMS")


def global_artist_distribution(histories: UserHistories) -> np.ndarray:
    """Relative play frequency of each artist id over all users' events combined.

    Counts are summed as exact integers before the one division.
    """
    total_events = int(histories.pair_counts.sum())
    if total_events == 0:
        raise DataError("cannot build global distribution: no events loaded")
    totals = np.bincount(histories.pair_artists, weights=histories.pair_counts)
    return totals / total_events


def eligible_users(histories: UserHistories, min_events: int) -> np.ndarray:
    """Ascending ids of the users with at least ``min_events`` events (and at least one)."""
    n_events = histories.n_events
    return np.flatnonzero((n_events >= min_events) & (n_events > 0))


def score_users(histories: UserHistories, min_events: int) -> np.ndarray:
    """Mainstreaminess per user id, NaN for each user not in ``eligible_users(histories, min_events)``.

    The global distribution is built from all loaded histories; the
    min-events filter only controls which users receive a score. Each
    score is the ``math.fsum`` of its user's pair-row minima, so it does
    not depend on the order of the user's artists.
    """
    global_dist = global_artist_distribution(histories)
    shares = np.repeat(histories.n_events.astype(np.float64), np.diff(histories.pair_offsets))
    np.divide(histories.pair_counts, shares, out=shares)
    np.minimum(shares, global_dist[histories.pair_artists], out=shares)
    users = eligible_users(histories, min_events)
    # Zipped arrays, not lists: a Python int per bound would take more memory than the scores.
    bounds = zip(histories.pair_offsets[users], histories.pair_offsets[users + 1])
    scores = np.full(len(histories.n_events), np.nan)
    scores[users] = np.fromiter((math.fsum(shares[lo:hi].tolist()) for lo, hi in bounds), np.float64, len(users))
    return scores


def assign_groups(scores: np.ndarray, group_size: int) -> dict[str, np.ndarray]:
    """Partition the scored users into the lowest, median-centered and highest score blocks.

    ``scores`` is indexed by user id, NaN for an unscored user. Returns
    disjoint arrays of ``group_size`` ascending ids, keyed by
    ``GROUP_NAMES`` in order.

    Users are ordered by (score, user id) so the assignment is a pure
    function of the score set. Requires at least 3 * group_size users.
    """
    if group_size < 1:
        raise DataError("group_size must be at least 1")
    scored = np.flatnonzero(~np.isnan(scores))
    n = len(scored)
    if n < 3 * group_size:
        raise DataError(f"need at least {3 * group_size} scored users for group size {group_size}, got {n}")
    order = scored[np.argsort(scores[scored], kind="stable")]  # stable: a tie goes to the lower id
    med_start = (n - group_size) // 2
    blocks = (order[:group_size], order[med_start:med_start + group_size], order[n - group_size:])
    return {name: np.sort(block) for name, block in zip(GROUP_NAMES, blocks)}


@dataclass(frozen=True)
class GroupStats:
    """Per-group dataset statistics: |U|, |A|, |LE|, |A/U|, |MS|."""

    users: int
    distinct_artists: int
    listening_events: int
    avg_artists_per_user: float
    avg_mainstreaminess: float


def group_stats(members: np.ndarray, histories: UserHistories, scores: np.ndarray) -> GroupStats:
    """Aggregate statistics over one group's members, an ascending id array; ``scores`` is indexed by id."""
    if not len(members):
        raise DataError("cannot compute statistics for an empty group")
    in_group = np.zeros(len(histories.n_events), dtype=bool)
    in_group[members] = True
    rows = np.repeat(in_group, np.diff(histories.pair_offsets))
    artists = np.sort(histories.pair_artists[rows])
    n = len(members)
    return GroupStats(
        users=n,
        distinct_artists=artists.size - int(np.count_nonzero(artists[1:] == artists[:-1])),
        listening_events=int(histories.n_events[members].sum()),
        avg_artists_per_user=artists.size / n,
        avg_mainstreaminess=sum(scores[members].tolist()) / n,
    )

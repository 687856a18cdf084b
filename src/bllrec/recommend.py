"""The five artist-ranking strategies.

bll   scores each artist the user has played by base-level activation,
      ln(sum over that artist's listens of (delta_seconds + 1) ** -d),
      so both frequent and recent listening raise the score.
top   most played artists over all users' training events.
pop   the user's own most played artists.
time  the user's most recently played artists.
cf    user-based collaborative filtering with binary cosine similarity.

Every ranking uses a total ordering (score descending, then artist id
ascending, with documented secondary keys for pop/time), so identical
inputs always produce identical lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DataError
from .ingest import UserHistory

ALGORITHMS = ("bll", "cf", "pop", "time", "top")


@dataclass(frozen=True)
class BllParams:
    """Decay exponent and reference time for base-level activation.

    ``ref_time`` of None means "per user": the user's latest training
    timestamp plus one second, which aligns recency scales across users
    with different activity periods.
    """

    d: float = 0.5
    ref_time: int | None = None

    def __post_init__(self):
        if not self.d > 0:
            raise DataError(f"decay exponent d must be > 0, got {self.d}")


@dataclass(frozen=True)
class CfParams:
    neighborhood_size: int = 20

    def __post_init__(self):
        if self.neighborhood_size < 1:
            raise DataError("neighborhood_size must be >= 1")


@dataclass
class RecommendationList:
    """Ranked (artist, score) pairs for one user; at most k entries."""

    user: int
    ranked: list[tuple[int, float]]
    k: int

    @property
    def artists(self) -> list[int]:
        return [a for a, _ in self.ranked]


def bll_activation(timestamps, ref_time: int, d: float = 0.5) -> float:
    """Base-level activation of one artist given its listen timestamps.

    Returns ln(sum over listens of (ref_time - t + 1) ** -d). The +1
    keeps the zero-delta term finite so a listen at ref_time still
    contributes. Deltas are in seconds.
    """
    if not d > 0:
        raise DataError(f"decay exponent d must be > 0, got {d}")
    times = list(timestamps)
    if not times:
        raise DataError("bll_activation needs at least one timestamp")
    exponent = -d
    total = 0.0
    for t in times:
        delta = ref_time - t
        if delta < 0:
            raise DataError(f"timestamp {t} is after reference time {ref_time}")
        total += float(delta + 1) ** exponent
    if total == 0.0:  # every term underflowed (extreme d); rank last, deterministically
        return float("-inf")
    return math.log(total)


def _resolve_ref_time(train: UserHistory, params: BllParams) -> int:
    if params.ref_time is None:
        return int(train.timestamps[-1]) + 1
    ref = params.ref_time
    if ref < int(train.timestamps[-1]):
        raise DataError(f"ref_time {ref} precedes the latest training timestamp")
    return ref


def recommend_bll(train: UserHistory, params: BllParams, k: int) -> RecommendationList:
    """Rank the user's own training artists by base-level activation."""
    if train.n_events == 0:
        raise DataError(f"user {train.user}: cannot recommend from empty training history")
    ref = _resolve_ref_time(train, params)
    uniq = np.unique(train.artists)
    local = np.searchsorted(uniq, train.artists).astype(np.int64)
    sums = _kernels.bll_sums(local, train.timestamps, ref, len(uniq), params.d)
    # libm log keeps scores bit-identical to the oracles.
    scores = np.array([math.log(s) if s > 0.0 else float("-inf") for s in sums.tolist()])
    order = np.lexsort((uniq, -scores))[:k]
    return RecommendationList(
        user=train.user,
        ranked=[(int(uniq[i]), float(scores[i])) for i in order],
        k=k,
    )


def recommend_pop(train: UserHistory, k: int) -> RecommendationList:
    """Rank by the user's own play counts; ties by most recent, then artist id."""
    if train.n_events == 0:
        raise DataError(f"user {train.user}: cannot recommend from empty training history")
    counts = train.artist_counts
    last = train.artist_last_played
    order = sorted(counts, key=lambda a: (-counts[a], -last[a], a))[:k]
    return RecommendationList(train.user, [(a, float(counts[a])) for a in order], k)


def recommend_time(train: UserHistory, k: int) -> RecommendationList:
    """Rank by last-played time; ties by play count, then artist id."""
    if train.n_events == 0:
        raise DataError(f"user {train.user}: cannot recommend from empty training history")
    counts = train.artist_counts
    last = train.artist_last_played
    order = sorted(counts, key=lambda a: (-last[a], -counts[a], a))[:k]
    return RecommendationList(train.user, [(a, float(last[a])) for a in order], k)


def global_train_counts(train_histories: dict[int, UserHistory]) -> dict[int, int]:
    """Total training plays per artist over all users."""
    totals: dict[int, int] = {}
    for user in sorted(train_histories):
        for artist, count in train_histories[user].artist_counts.items():
            totals[artist] = totals.get(artist, 0) + count
    return totals


def recommend_top(global_counts: dict[int, int], k: int, user: int = -1) -> RecommendationList:
    """Rank artists by total play count over all users; identical for every user."""
    if not global_counts:
        raise DataError("cannot rank: global play counts are empty")
    order = sorted(global_counts, key=lambda a: (-global_counts[a], a))[:k]
    return RecommendationList(user, [(a, float(global_counts[a])) for a in order], k)


def user_similarity(u_artists, v_artists) -> float:
    """Cosine similarity over binary artist-incidence vectors."""
    u_set = set(u_artists)
    v_set = set(v_artists)
    if not u_set or not v_set:
        raise DataError("user_similarity needs two non-empty artist sets")
    return len(u_set & v_set) / math.sqrt(len(u_set) * len(v_set))


class CfIndex:
    """Read-only neighbor-search index over users' training artist sets.

    Holds one sorted distinct-artist array per user plus a CSR inverted
    index (artist -> user rows) for overlap counting. Not modified
    after it is built.
    """

    def __init__(self, train_histories: dict[int, UserHistory], n_artists: int | None = None):
        if not train_histories:
            raise DataError("CfIndex needs at least one training history")
        self.user_ids = np.array(sorted(train_histories), dtype=np.int64)
        self._row_of = {int(u): i for i, u in enumerate(self.user_ids)}
        self.artist_sets = [
            np.unique(train_histories[int(u)].artists).astype(np.int64) for u in self.user_ids
        ]
        self.set_sizes = np.array([len(s) for s in self.artist_sets], dtype=np.int64)
        if self.set_sizes.min() == 0:
            raise DataError("CfIndex: every user needs a non-empty training history")
        max_artist = max(int(s[-1]) for s in self.artist_sets)
        if n_artists is None:
            n_artists = max_artist + 1
        elif n_artists < max_artist + 1:
            raise DataError(f"n_artists {n_artists} is smaller than max artist id {max_artist} + 1")
        self.n_artists = n_artists

        counts = np.zeros(n_artists + 1, dtype=np.int64)
        for s in self.artist_sets:
            counts[s + 1] += 1
        self.indptr = np.cumsum(counts)
        members = np.empty(int(self.indptr[-1]), dtype=np.int64)
        fill = self.indptr[:-1].copy()
        for row, s in enumerate(self.artist_sets):
            members[fill[s]] = row
            fill[s] += 1
        self.members = members

    def recommend(self, user: int, params: CfParams, k: int) -> RecommendationList:
        """Score artists by summed similarity of the neighbors that played them.

        Neighbors are the ``neighborhood_size`` most similar users with
        positive similarity (ties by ascending user id). The user's own
        artists are not filtered out: the temporal test sets are
        dominated by re-listens. An empty list signals a cold user.
        """
        row = self._row_of.get(user)
        if row is None:
            raise DataError(f"user {user} has no training history in the index")
        query = self.artist_sets[row]
        overlaps = _kernels.overlap_counts(query, self.indptr, self.members, len(self.user_ids))
        overlaps[row] = 0
        candidates = np.flatnonzero(overlaps)
        if candidates.size == 0:
            return RecommendationList(user, [], k)
        sims = overlaps[candidates] / np.sqrt(float(len(query)) * self.set_sizes[candidates])
        order = np.lexsort((self.user_ids[candidates], -sims))[: params.neighborhood_size]
        neighbor_rows = candidates[order]
        neighbor_sims = sims[order]

        scores = np.zeros(self.n_artists)
        for nrow, sim in zip(neighbor_rows.tolist(), neighbor_sims.tolist()):
            scores[self.artist_sets[nrow]] += sim
        touched = np.flatnonzero(scores)
        top = np.lexsort((touched, -scores[touched]))[:k]
        return RecommendationList(
            user,
            [(int(touched[i]), float(scores[touched[i]])) for i in top],
            k,
        )


def recommend_cf(
    user: int,
    train_histories: dict[int, UserHistory],
    params: CfParams,
    k: int,
    index: CfIndex | None = None,
) -> RecommendationList:
    """Collaborative-filtering ranking; builds a throwaway index unless given one."""
    if len(train_histories) < 2:
        raise DataError("collaborative filtering needs at least two users")
    if index is None:
        index = CfIndex(train_histories)
    return index.recommend(user, params, k)


def build_recommenders(
    train_histories: dict[int, UserHistory],
    algorithms=ALGORITHMS,
    bll_params: BllParams | None = None,
    cf_params: CfParams | None = None,
    n_artists: int | None = None,
):
    """Uniform (user, train, k) -> RecommendationList callables, sharing
    the global count table and CF index across users."""
    bll_params = bll_params or BllParams()
    cf_params = cf_params or CfParams()
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise DataError(f"unknown algorithms: {', '.join(sorted(unknown))}")

    recommenders = {}
    for name in algorithms:
        if name == "bll":
            recommenders[name] = lambda u, train, k, p=bll_params: recommend_bll(train, p, k)
        elif name == "pop":
            recommenders[name] = lambda u, train, k: recommend_pop(train, k)
        elif name == "time":
            recommenders[name] = lambda u, train, k: recommend_time(train, k)
        elif name == "top":
            counts = global_train_counts(train_histories)
            recommenders[name] = lambda u, train, k, c=counts: recommend_top(c, k, user=u)
        elif name == "cf":
            index = CfIndex(train_histories, n_artists=n_artists)
            recommenders[name] = lambda u, train, k, idx=index, p=cf_params: idx.recommend(u, p, k)
    return recommenders

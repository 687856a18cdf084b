"""The five artist-ranking strategies.

bll   scores each artist the user has played by base-level activation,
      ln(sum over that artist's listens of (ref - t + 1) ** -d), so both
      frequent and recent listening raise the score. The reference time
      ref is the user's latest training listen plus one second, which
      aligns recency scales across users with different activity periods.
      The history build sums each pair row's terms at the run's d
      (``UserHistories.pair_bll``), so a call takes only the log of each.
top   most played artists over all users' training events.
pop   the user's own most played artists.
time  the user's most recently played artists.
cf    user-based collaborative filtering with binary cosine similarity
      over a fixed number of nearest neighbours, held by ``CfIndex``.

Every ranking uses a total ordering (score descending, then artist id
ascending, with documented secondary keys for pop/time), so identical
inputs always produce identical lists. A ranking is computed and
returned as numpy arrays; ``RecommendationList.ranked`` builds Python
(artist, score) pairs only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DataError
from .ingest import UserHistories

ALGORITHMS = ("bll", "cf", "pop", "time", "top")


@dataclass
class RecommendationList:
    """One user's top k: artist ids and their scores, best first, in two arrays of equal length."""

    artists: np.ndarray
    scores: np.ndarray

    @property
    def ranked(self) -> list[tuple[int, float]]:
        """The (artist, score) pairs, built anew on each read."""
        return list(zip(self.artists.tolist(), map(float, self.scores.tolist())))


def _pair_rows(user: int, train: UserHistories) -> slice:
    """The user's pair rows in ``train``; a user without events is a DataError."""
    if not 0 <= user < len(train.n_events) or train.n_events[user] == 0:
        raise DataError(f"user {user}: cannot recommend from empty training history")
    return slice(train.pair_offsets[user], train.pair_offsets[user + 1])


def recommend_bll(user: int, train: UserHistories, k: int) -> RecommendationList:
    """Rank the user's own training artists by base-level activation, the log of each row's ``pair_bll``."""
    rows = _pair_rows(user, train)
    artists, sums = train.pair_artists[rows], train.pair_bll[rows]
    # libm log keeps scores bit-identical to the brute-force oracle.
    scores = np.full(len(sums), -np.inf)
    positive = sums > 0.0
    scores[positive] = list(map(math.log, sums[positive].tolist()))
    # The pair artists ascend, so ties go to the lower artist id.
    order = _top_indices(scores, k)
    return RecommendationList(artists[order], scores[order])


def _top_indices(scores: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n highest scores, highest first; equal scores by ascending index.

    Only the scores at least as high as the n-th highest are sorted: a
    partition finds that score, and every tie with it is kept.
    """
    neg = -scores
    if neg.size > n:
        kept = np.flatnonzero(neg <= np.partition(neg, n - 1)[n - 1])
        return kept[np.argsort(neg[kept], kind="stable")[:n]]
    return np.argsort(neg, kind="stable")[:n]


def recommend_pop(user: int, train: UserHistories, k: int) -> RecommendationList:
    """Rank by the user's own play counts; ties by most recent, then artist id."""
    rows = _pair_rows(user, train)
    artists, counts, last = train.pair_artists[rows], train.pair_counts[rows], train.pair_last[rows]
    # ~ reverses the order of any integer dtype and, unlike negation, cannot wrap.
    order = np.lexsort((artists, ~last, ~counts))[:k]
    return RecommendationList(artists[order], counts[order])


def recommend_time(user: int, train: UserHistories, k: int) -> RecommendationList:
    """Rank by last-played time; ties by play count, then artist id."""
    rows = _pair_rows(user, train)
    artists, counts, last = train.pair_artists[rows], train.pair_counts[rows], train.pair_last[rows]
    order = np.lexsort((artists, ~counts, ~last))[:k]
    return RecommendationList(artists[order], last[order])


def global_train_counts(train_histories: UserHistories) -> np.ndarray:
    """Total training plays of each artist id over all users.

    The float sums of ``bincount`` are exact integers below 2**53 plays.
    """
    return np.bincount(train_histories.pair_artists, weights=train_histories.pair_counts).astype(np.int64)


def recommend_top(global_counts: np.ndarray, k: int) -> RecommendationList:
    """Rank artists by total play count over all users; ties by artist id.

    ``global_counts`` holds the count of each artist id. The list is the
    same for every user.
    """
    played = np.flatnonzero(global_counts)
    if played.size == 0:
        raise DataError("cannot rank: global play counts are empty")
    counts = global_counts[played]
    # played ascends, so ties go to the lower artist id.
    order = _top_indices(counts, k)
    return RecommendationList(played[order], counts[order])


class CfIndex:
    """Read-only neighbor-search index over users' training artist sets.

    User id u's set is ``artists[offsets[u]:offsets[u + 1]]``, its slice of
    the train table's sorted pair rows. A CSR inverted index (artist ->
    user ids), sized by the largest artist id, counts overlaps.
    ``neighbors`` is the neighbourhood size every query uses, which the
    caller gives (``cli.RunConfig.cf_neighbors`` in a run); below 1 it is
    a DataError. Not modified after it is built.
    """

    def __init__(self, train_histories: UserHistories, neighbors: int):
        if neighbors < 1:
            raise DataError(f"neighbors must be >= 1, got {neighbors}")
        artists = train_histories.pair_artists
        if artists.size == 0:
            raise DataError("CfIndex needs at least one training history")
        self.neighbors = neighbors
        self.artists = artists
        self.offsets = train_histories.pair_offsets
        self.set_sizes = np.diff(self.offsets)
        self.indptr = np.zeros(int(artists.max()) + 2, dtype=np.int64)
        np.cumsum(np.bincount(artists), out=self.indptr[1:])
        users = np.repeat(np.arange(len(self.set_sizes), dtype=np.int32), self.set_sizes)
        self.members = users[np.argsort(artists, kind="stable")]

    def recommend(self, user: int, k: int) -> RecommendationList:
        """Score artists by summed similarity of the neighbors that played them.

        Neighbors are the index's ``neighbors`` most similar users with
        positive similarity (ties by ascending user id). Only the
        neighbors' artists are scored, so the cost does not grow with the
        catalogue. The user's own artists are not filtered out: the
        temporal test sets are dominated by re-listens. An empty list
        signals a cold user.
        """
        if not 0 <= user < len(self.set_sizes) or self.set_sizes[user] == 0:
            raise DataError(f"user {user} has no training history in the index")
        query = self.artists[self.offsets[user] : self.offsets[user + 1]]
        overlaps = _kernels.overlap_counts(query, self.indptr, self.members, len(self.set_sizes))
        overlaps[user] = 0
        candidates = np.flatnonzero(overlaps)
        if candidates.size == 0:
            return RecommendationList(candidates, np.zeros(0))
        sims = overlaps[candidates] / np.sqrt(float(len(query)) * self.set_sizes[candidates])
        # candidates ascend, so ties go to the lower user id.
        order = _top_indices(sims, self.neighbors)
        neighbors = candidates[order]

        bounds = zip(self.offsets[neighbors].tolist(), self.offsets[neighbors + 1].tolist())
        played = np.concatenate([self.artists[start:stop] for start, stop in bounds])
        artists, inverse = np.unique(played, return_inverse=True)
        # bincount adds weights in input order, i.e. neighbor order, so each sum has the oracle's bits.
        scores = np.bincount(inverse, weights=np.repeat(sims[order], self.set_sizes[neighbors]))
        # np.unique sorts the artists, so ties go to the lower artist id.
        order = _top_indices(scores, k)
        return RecommendationList(artists[order], scores[order])


def build_recommenders(train_histories: UserHistories, algorithms, cf_neighbors: int):
    """Uniform (user, train table, k) -> RecommendationList callables, keyed in ``algorithms`` order.

    ``algorithms`` is a sequence of names from ``ALGORITHMS``, and
    ``cf_neighbors`` the neighbourhood size of ``cf``; a run passes its
    ``cli.RunConfig`` values. What does not depend on the user is built
    here, once, and only for the algorithms asked for: the full ``top``
    ranking, kept as two arrays whose first k entries each call returns as
    views, and the CF index with ``cf_neighbors`` neighbours. A call then
    reads only that user's data (for ``cf``, also the neighbors' artist
    sets), never the whole catalogue.
    """
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise DataError(f"unknown algorithms: {', '.join(sorted(unknown))}")
    recommenders = {"bll": recommend_bll, "pop": recommend_pop, "time": recommend_time}
    if "top" in algorithms:
        counts = global_train_counts(train_histories)
        ranking = recommend_top(counts, len(counts))
        # Each call returns views of these arrays, so no caller may write to them.
        ranking.artists.flags.writeable = ranking.scores.flags.writeable = False
        recommenders["top"] = lambda u, train, k: RecommendationList(ranking.artists[:k], ranking.scores[:k])
    if "cf" in algorithms:
        index = CfIndex(train_histories, cf_neighbors)
        recommenders["cf"] = lambda u, train, k: index.recommend(u, k)
    return {name: recommenders[name] for name in algorithms}

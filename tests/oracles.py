"""Brute-force oracles for the recommender tests and the history build.

Deliberately unoptimized and textually independent of ``bllrec.recommend``:
direct enumeration with the same tie-breaking keys, for cross-checking the
real recommenders on small instances. ``per_user_histories`` is the history
build as two stable sorts per user. Tests import it the way they import
``conftest``: ``from oracles import brute_force_ranking``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from bllrec.errors import DataError
from bllrec.ingest import UserHistories
from bllrec.recommend import BllParams, CfParams, RecommendationList

ORACLE_MAX_USERS = 10
ORACLE_MAX_ARTISTS = 30
ORACLE_MAX_EVENTS = 200


def _users_of(train: UserHistories) -> list[int]:
    """The user ids with events in ``train``, ascending."""
    return [u for u in range(len(train.starts)) if train.ends[u] > train.starts[u]]


def _events_of(train: UserHistories, user: int) -> list[tuple[int, int]]:
    """The user's (artist, timestamp) events in ``train``, in time order; none for an id the table lacks."""
    if not 0 <= user < len(train.starts):
        return []
    lo, hi = int(train.starts[user]), int(train.ends[user])
    return list(zip(train.artists[lo:hi].tolist(), train.timestamps[lo:hi].tolist()))


def _check_oracle_bounds(train: UserHistories) -> None:
    users = _users_of(train)
    if len(users) > ORACLE_MAX_USERS:
        raise DataError(f"oracle instance exceeds {ORACLE_MAX_USERS} users")
    events = sum(len(_events_of(train, u)) for u in users)
    if events > ORACLE_MAX_EVENTS:
        raise DataError(f"oracle instance exceeds {ORACLE_MAX_EVENTS} events")
    artists = set()
    for u in users:
        artists.update(a for a, _ in _events_of(train, u))
    if len(artists) > ORACLE_MAX_ARTISTS:
        raise DataError(f"oracle instance exceeds {ORACLE_MAX_ARTISTS} artists")


def ranking_of(pairs: list[tuple[int, float]]) -> RecommendationList:
    """The RecommendationList of these (artist, score) pairs, in their order."""
    return RecommendationList(
        np.array([a for a, _ in pairs], dtype=np.int64), np.array([s for _, s in pairs], dtype=np.float64)
    )


def _counts_and_last(events: list[tuple[int, int]]) -> tuple[Counter, dict[int, int]]:
    counts: Counter = Counter()
    last: dict[int, int] = {}
    for artist, t in events:
        counts[artist] += 1
        last[artist] = t  # chronological scan, so the final write is the latest
    return counts, last


def brute_force_ranking(
    algorithm: str,
    train: UserHistories,
    user: int,
    k: int,
    bll_params: BllParams | None = None,
    cf_params: CfParams | None = None,
) -> RecommendationList:
    """Reference top-k for one user on a small instance, by direct enumeration.

    Reads only the users' events in ``train``, never its pair rows.
    """
    _check_oracle_bounds(train)
    bll_params = bll_params or BllParams()
    cf_params = cf_params or CfParams()
    events = _events_of(train, user)
    if not events:
        raise DataError("oracle: empty training history")

    if algorithm == "bll":
        ref = max(t for _, t in events) + 1
        scores = {}
        for artist in sorted({a for a, _ in events}):
            total = 0.0
            for a, t in events:
                if a == artist:
                    total += float(ref - t + 1) ** (-bll_params.d)
            scores[artist] = math.log(total) if total > 0.0 else float("-inf")
        order = sorted(scores, key=lambda a: (-scores[a], a))[:k]
        return ranking_of([(a, scores[a]) for a in order])

    if algorithm == "pop":
        counts, last = _counts_and_last(events)
        order = sorted(counts, key=lambda a: (-counts[a], -last[a], a))[:k]
        return ranking_of([(a, float(counts[a])) for a in order])

    if algorithm == "time":
        counts, last = _counts_and_last(events)
        order = sorted(counts, key=lambda a: (-last[a], -counts[a], a))[:k]
        return ranking_of([(a, float(last[a])) for a in order])

    if algorithm == "top":
        totals: Counter = Counter()
        for u in _users_of(train):
            for artist, t in _events_of(train, u):
                totals[artist] += 1
        order = sorted(totals, key=lambda a: (-totals[a], a))[:k]
        return ranking_of([(a, float(totals[a])) for a in order])

    if algorithm == "cf":
        own = {a for a, _ in events}
        sims: dict[int, float] = {}
        for v in _users_of(train):
            if v == user:
                continue
            other = {a for a, _ in _events_of(train, v)}
            shared = len(own & other)
            if shared:
                sims[v] = shared / math.sqrt(len(own) * len(other))
        if not sims:
            return ranking_of([])
        neighbors = sorted(sims, key=lambda v: (-sims[v], v))[: cf_params.neighborhood_size]
        scores: dict[int, float] = {}
        for v in neighbors:
            for artist in sorted({a for a, _ in _events_of(train, v)}):
                scores[artist] = scores.get(artist, 0.0) + sims[v]
        order = sorted(scores, key=lambda a: (-scores[a], a))[:k]
        return ranking_of([(a, scores[a]) for a in order])

    raise DataError(f"unknown algorithm {algorithm!r}")


def per_user_histories(users, artists, timestamps) -> UserHistories:
    """``build_user_histories`` of a log with these columns, by two stable sorts per user.

    A stable sort of the user ids groups the log by user; then each user's
    events are sorted stably by timestamp, and those by artist.
    """
    n = len(users)
    n_users = int(users.max()) + 1 if n else 0
    index_type = np.int32 if n < 2**31 else np.int64
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(users, minlength=n_users), out=offsets[1:])
    order = np.argsort(users, kind="stable")
    artists = artists[order]
    timestamps = timestamps[order]
    by_pair = np.empty(n, dtype=index_type)
    first = [np.zeros(0, dtype=index_type)]  # the position in by_pair of each pair's first event
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        if lo == hi:
            continue
        by_time = np.argsort(timestamps[lo:hi], kind="stable")
        timestamps[lo:hi] = timestamps[lo:hi][by_time]
        artists[lo:hi] = artists[lo:hi][by_time]
        by_artist = np.argsort(artists[lo:hi], kind="stable")
        by_pair[lo:hi] = by_artist + lo
        first.append((lo + np.flatnonzero(np.diff(artists[lo:hi][by_artist], prepend=-1))).astype(index_type))
    first = np.concatenate(first)
    pair_counts = np.diff(first, append=index_type(n))
    return UserHistories(
        artists=artists,
        timestamps=timestamps,
        starts=offsets[:-1],
        ends=offsets[1:],
        pair_offsets=np.searchsorted(first, offsets),
        pair_artists=artists[by_pair[first]],
        pair_counts=pair_counts,
        pair_last=timestamps[by_pair[first + pair_counts - 1]],
        by_pair=by_pair,
    )

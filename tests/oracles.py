"""Brute-force oracles for the recommender tests and the history build.

Deliberately unoptimized and textually independent of ``bllrec.recommend``:
direct enumeration with the same tie-breaking keys, for cross-checking the
real recommenders on small instances. The oracles read the events a test
built, never a table: ``events_by_user`` orders them, ``split_events`` cuts
them by the split rule, and ``per_user_histories`` is the history build by
enumeration. Tests import it the way they import ``conftest``:
``from oracles import brute_force_ranking``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from bllrec.errors import DataError
from bllrec.ingest import UserHistories
from bllrec.recommend import RecommendationList

ORACLE_MAX_USERS = 10
ORACLE_MAX_ARTISTS = 30
ORACLE_MAX_EVENTS = 200


def events_by_user(users, artists, timestamps) -> dict[int, list[tuple[int, int]]]:
    """Each user's (artist, timestamp) events in time order, equal timestamps in input order; users ascending."""
    history: dict[int, list[tuple[int, int, int]]] = {}
    for i, (user, artist, t) in enumerate(zip(*(np.asarray(c).tolist() for c in (users, artists, timestamps)))):
        history.setdefault(user, []).append((t, i, artist))
    return {user: [(a, t) for t, _, a in sorted(history[user])] for user in sorted(history)}


def split_events(history: dict, fraction: float, users=None) -> tuple[dict, dict]:
    """The training and test events of each given user of at least 2 events (default: every user).

    A user's test events are its latest max(1, floor(fraction * n)).
    """
    train, test = {}, {}
    for user, events in history.items():
        if len(events) < 2 or (users is not None and user not in users):
            continue
        cut = len(events) - max(1, math.floor(fraction * len(events)))
        train[user], test[user] = events[:cut], events[cut:]
    return train, test


def _check_oracle_bounds(train: dict) -> None:
    if len(train) > ORACLE_MAX_USERS:
        raise DataError(f"oracle instance exceeds {ORACLE_MAX_USERS} users")
    if sum(map(len, train.values())) > ORACLE_MAX_EVENTS:
        raise DataError(f"oracle instance exceeds {ORACLE_MAX_EVENTS} events")
    if len({a for events in train.values() for a, _ in events}) > ORACLE_MAX_ARTISTS:
        raise DataError(f"oracle instance exceeds {ORACLE_MAX_ARTISTS} artists")


def _activation_sum(timestamps, ref: int, d: float) -> float:
    """The sum of (ref - t + 1) ** -d over the timestamps, in their order."""
    total = 0.0
    for t in timestamps:
        total += float(ref - t + 1) ** (-d)
    return total


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
    train: dict,
    user: int,
    k: int,
    d: float,
    cf_neighbors: int,
) -> RecommendationList:
    """Reference top-k for one user on a small instance, by direct enumeration.

    ``train`` holds each user's training events, as ``events_by_user`` or
    ``split_events`` give them. ``d`` is read by ``bll`` only, and
    ``cf_neighbors`` by ``cf`` only.
    """
    _check_oracle_bounds(train)
    events = train.get(user)
    if not events:
        raise DataError("oracle: empty training history")

    if algorithm == "bll":
        ref = max(t for _, t in events) + 1
        scores = {}
        for artist in sorted({a for a, _ in events}):
            total = _activation_sum([t for a, t in events if a == artist], ref, d)
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
        for other in train.values():
            for artist, t in other:
                totals[artist] += 1
        order = sorted(totals, key=lambda a: (-totals[a], a))[:k]
        return ranking_of([(a, float(totals[a])) for a in order])

    if algorithm == "cf":
        own = {a for a, _ in events}
        sims: dict[int, float] = {}
        for v, other in train.items():
            if v == user:
                continue
            other = {a for a, _ in other}
            shared = len(own & other)
            if shared:
                sims[v] = shared / math.sqrt(len(own) * len(other))
        if not sims:
            return ranking_of([])
        neighbors = sorted(sims, key=lambda v: (-sims[v], v))[:cf_neighbors]
        scores: dict[int, float] = {}
        for v in neighbors:
            for artist in sorted({a for a, _ in train[v]}):
                scores[artist] = scores.get(artist, 0.0) + sims[v]
        order = sorted(scores, key=lambda a: (-scores[a], a))[:k]
        return ranking_of([(a, scores[a]) for a in order])

    raise DataError(f"unknown algorithm {algorithm!r}")


def per_user_histories(users, artists, timestamps, fraction: float, d: float) -> UserHistories:
    """``build_user_histories(log, fraction, d)`` of a log with these columns, by enumeration.

    Each user's events are put in time order and cut by ``split_events``;
    each of its artists then gets one pair row, counted from its plays,
    with the latest and the activation sum of its training plays.
    """
    history = events_by_user(users, artists, timestamps)
    train, _ = split_events(history, fraction)
    n_users = max(history, default=-1) + 1
    n_events, row_counts, rows = [0] * n_users, [0] * n_users, []
    for user, events in history.items():
        training = train.get(user, events)  # a user of one event has no test event
        plays, train_plays = Counter(a for a, _ in events), {}
        for artist, t in training:
            train_plays.setdefault(artist, []).append(t)
        ref = training[-1][1] + 1
        for artist in sorted(plays):
            before = train_plays.get(artist, [])
            rows.append((artist, plays[artist], before[-1] if before else 0, plays[artist] - len(before),
                         _activation_sum(before, ref, d)))
        n_events[user], row_counts[user] = len(events), len(plays)
    columns = list(zip(*rows)) or [()] * 5
    dtypes = (np.int32, np.int32, timestamps.dtype, np.int32, np.float64)
    pair_artists, pair_counts, pair_last, test_counts, bll = (
        np.array(column, dtype=dtype) for column, dtype in zip(columns, dtypes)
    )
    return UserHistories(
        n_events=np.array(n_events, dtype=np.int64),
        pair_offsets=np.concatenate(([0], np.cumsum(row_counts, dtype=np.int64))),
        pair_artists=pair_artists,
        pair_counts=pair_counts,
        pair_last=pair_last,
        pair_bll=bll,
        pair_test_counts=test_counts,
    )

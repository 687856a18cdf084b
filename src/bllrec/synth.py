"""Seeded synthetic listening-log generation.

The generator exists for verification, not realism: it draws a global
artist popularity from a Zipf law and makes users re-listen to their own
past artists with a power-law recency bias, so recency- and
frequency-aware rankings are expected to do well on it by construction.

Randomness comes from SplitMix64 (Steele, Lea & Flood 2014) with one
independent substream per user, so generation is reproducible from the
seed alone, in any implementation language, and per-user generation can
run in parallel without changing the output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import EventLog, IdMaps

DEFAULT_TIME_SPAN = 94_608_000  # three years of seconds
INT32_MAX = 2**31 - 1
MAX_EVENTS_PER_USER = 2**20
"""The top of ``events_per_user``. The recency table holds one float per possible
event, about 40 bytes each with its Python list, so this keeps it near 40 MiB."""

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 output scrambler; also used to derive per-user seeds."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal portable PRNG with a 64-bit state and fixed constants."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def below(self, n: int) -> int:
        """Uniform int in [0, n) via the multiply-shift bound trick."""
        return (self.next_u64() * n) >> 64


def user_stream(seed: int, user_index: int) -> SplitMix64:
    """Independent substream for one user: scramble of seed and user index."""
    return SplitMix64(_mix64(seed ^ ((user_index + 1) * _GOLDEN)))


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 500
    n_artists: int = 2000
    events_per_user: tuple[int, int] = (200, 400)
    zipf_exponent: float = 1.1
    reconsume_prob: float = 0.7
    recency_bias: float = 0.8
    time_span: int = DEFAULT_TIME_SPAN
    seed: int = 42

    def validate(self) -> None:
        lo, hi = self.events_per_user
        # User and artist ids are int32 everywhere; reject before anything is sized by them.
        if not (1 <= self.n_users <= INT32_MAX and 1 <= self.n_artists <= INT32_MAX):
            raise DataError(f"n_users and n_artists must be in 1..{INT32_MAX}")
        if not 1 <= lo <= hi <= MAX_EVENTS_PER_USER:
            raise DataError(
                f"events_per_user range must satisfy 1 <= lo <= hi <= {MAX_EVENTS_PER_USER}, got {lo}..{hi}"
            )
        if not self.zipf_exponent > 0:
            raise DataError("zipf_exponent must be > 0")
        if not 0.0 <= self.reconsume_prob <= 1.0:
            raise DataError("reconsume_prob must be in [0, 1]")
        if not self.recency_bias > 0:
            raise DataError("recency_bias must be > 0")
        # Timestamps are below(time_span) and must fit in int64.
        if not 1 <= self.time_span <= 2**63:
            raise DataError(f"time_span must be in 1..{2**63}")


def _power_law_cumulative(n: int, exponent: float) -> list[float]:
    """Running sums of the weights i ** -exponent for i = 1..n."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return np.cumsum(weights).tolist()


def _pick(cumulative: list[float], upto: int, x: float) -> int:
    """Index of the first cumulative weight above x, restricted to [0, upto)."""
    idx = bisect_right(cumulative, x, 0, upto)
    return min(idx, upto - 1)


def user_events(
    config: SynthConfig,
    user_index: int,
    zipf_cum: list[float] | None = None,
    recency_cum: list[float] | None = None,
) -> tuple[list[int], list[int]]:
    """Generate one user's (timestamps, artist ranks), chronological.

    Draw order per user is fixed: event count, all timestamps, then per
    event one branch draw (skipped while the history is empty) and one
    choice draw. Artists are identified by Zipf rank here; ids are
    assigned when the events are assembled into a log.
    """
    lo, hi = config.events_per_user
    if zipf_cum is None:
        zipf_cum = _power_law_cumulative(config.n_artists, config.zipf_exponent)
    if recency_cum is None:
        recency_cum = _power_law_cumulative(hi, config.recency_bias)

    rng = user_stream(config.seed, user_index)
    n = lo + rng.below(hi - lo + 1)
    timestamps = sorted(rng.below(config.time_span) for _ in range(n))

    artists: list[int] = []
    for _ in range(n):
        m = len(artists)
        if m > 0 and rng.random() < config.reconsume_prob:
            # Weight of re-picking the token `age` positions back is (age + 1) ** -bias.
            age = _pick(recency_cum, m, rng.random() * recency_cum[m - 1])
            artists.append(artists[m - 1 - age])
        else:
            rank = _pick(zipf_cum, config.n_artists, rng.random() * zipf_cum[-1])
            artists.append(rank)
    return timestamps, artists


def generate_synthetic(config: SynthConfig) -> EventLog:
    """Deterministically generate a full event log from the config."""
    config.validate()
    lo, hi = config.events_per_user
    zipf_cum = _power_law_cumulative(config.n_artists, config.zipf_exponent)
    recency_cum = _power_law_cumulative(hi, config.recency_bias)

    counts: list[int] = []
    ranks: list[int] = []
    timestamps: list[int] = []
    for u in range(config.n_users):
        ts, user_ranks = user_events(config, u, zipf_cum, recency_cum)
        counts.append(len(ts))
        timestamps += ts
        ranks += user_ranks

    # Keys and ids come from the id maps, as ingest gives them to a log's keys.
    id_maps = IdMaps()
    user_ids = id_maps.users.densify(id_maps.users.code_all([str(u) for u in range(config.n_users)]))
    played, event_ranks = np.unique(np.asarray(ranks, dtype=np.int64), return_inverse=True)
    rank_codes = id_maps.artists.code_all([str(rank) for rank in played.tolist()])
    log = EventLog(
        users=np.repeat(user_ids, counts),
        artists=id_maps.artists.densify(rank_codes[event_ranks]),
        timestamps=np.asarray(timestamps, dtype=np.int64),
        id_maps=id_maps,
    )
    for arr in (log.users, log.artists, log.timestamps):
        arr.flags.writeable = False
    return log

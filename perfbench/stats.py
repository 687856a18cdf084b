"""The benchmark's arithmetic: medians, the tail-percentile rule, span self
time and the failure fraction. Pure Python, so run.py never imports numpy
(its own memory would otherwise show up in the children's peak RSS).
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(round(n * p / 100.0, 9)))


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least MIN_BEYOND of n samples above it."""
    for p in TAIL_PERCENTILES:
        if n - _rank(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def summarize(values) -> dict:
    """Median, sample count and (when the count supports one) a tail percentile."""
    values = list(values)
    p = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


def ops_failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no runs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} is outside 0..attempted={attempted}")
    return failed / attempted


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover.

    Children may overlap each other (per-user spans from a thread pool), so
    the union of their intervals is subtracted, not the sum of durations.
    """
    return (end - start) - covered(child_intervals, start, end)

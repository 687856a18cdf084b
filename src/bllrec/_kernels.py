"""The two scoring kernels: activation sums for ``bll`` and overlap counts for ``cf``.

``recommend.py`` calls both through this module's attributes, so a
profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np

BACKEND_NAME = "numpy"


def bll_sums(local_idx: np.ndarray, timestamps: np.ndarray, ref: int, n_out: int, d: float) -> np.ndarray:
    """Accumulate (ref - timestamps[j] + 1) ** (-d) into out[local_idx[j]] in event order.

    The base is computed in Python ints, so it cannot overflow int64 however
    far apart ``ref`` and a timestamp lie; ``int ** float`` rounds it to the
    nearest float, as ``float()`` would. Each term is Python's float ``**``,
    which calls libm ``pow``, and the terms are added one by one in event
    order. ``np.power`` differs from libm by 1 ulp on about 5% of elements,
    so a vectorised form would break bit-identity with the brute-force
    oracle; the logs of the sums are within 1e-9 of the decimal oracle.
    """
    out = [0.0] * n_out
    exponent = -d
    shift = int(ref) + 1
    for i, t in zip(local_idx.tolist(), timestamps.tolist()):
        out[i] += (shift - t) ** exponent
    return np.asarray(out, dtype=np.float64)


def overlap_counts(query: np.ndarray, indptr: np.ndarray, members: np.ndarray, n_out: int) -> np.ndarray:
    """Count, per candidate, how many ids in ``query`` list that candidate.

    ``indptr``/``members`` form a CSR inverted index (id -> candidate rows).
    The postings of all query ids are gathered at once and counted with
    ``np.bincount``; the counts are exact int64 integers.
    """
    starts = indptr[query]
    lengths = indptr[query + 1] - starts
    # Posting p of the gather comes from slice i: members[starts[i] + p - first[i]].
    first = np.cumsum(lengths) - lengths
    idx = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(starts - first, lengths)
    return np.bincount(members[idx], minlength=n_out).astype(np.int64, copy=False)

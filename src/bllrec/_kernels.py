"""The two scoring kernels: activation sums for ``bll`` and overlap counts for ``cf``.

``ingest.py`` calls ``bll_sums`` and ``recommend.py`` calls ``overlap_counts``
through this module's attributes, so a profiler can wrap them in place.
"""

from __future__ import annotations

import numpy as np

BACKEND_NAME = "numpy"


def bll_sums(local_idx: np.ndarray, timestamps: np.ndarray, ref, n_out: int, d: float) -> np.ndarray:
    """Accumulate (ref - timestamps[j] + 1) ** (-d) into out[local_idx[j]] in event order.

    ``ref`` is one reference time or an array of one per event. The
    timestamps must lie in 0..ref, and ref in 0..2**63. The bases are
    then exact in uint64, and the cast to float64 rounds each to the
    nearest float, as ``float()`` of the Python int would. Each term is
    ``np.float_power``, which on float64 calls libm ``pow`` as the float
    ``**`` of the brute-force oracle does. ``np.power`` takes another
    route that differs from libm by 1 ulp on about 5% of elements, which
    would break bit-identity with the oracle. ``np.bincount`` adds the
    terms one by one in event order, as a loop would. The logs of the sums
    are within 1e-9 of the decimal oracle.
    """
    bases = (np.asarray(ref, dtype=np.uint64) + np.uint64(1) - timestamps.astype(np.uint64)).astype(np.float64)
    terms = np.float_power(bases, -d)
    # astype: with no events, bincount gives int zeros.
    return np.bincount(local_idx, weights=terms, minlength=n_out).astype(np.float64, copy=False)


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

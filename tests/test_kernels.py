import numpy as np

from bllrec import _kernels


def _brute_force_overlaps(query, user_sets):
    """Per user, the size of the intersection of its artist set with the query."""
    query = set(query.tolist())
    return [len(query & s) for s in user_sets]


def _csr_from_sets(user_sets, n_artists):
    """Inverted index artist -> user rows, built with plain lists."""
    indptr, members = [0], []
    for artist in range(n_artists):
        members.extend(row for row, s in enumerate(user_sets) if artist in s)
        indptr.append(len(members))
    return np.array(indptr, dtype=np.int64), np.array(members, dtype=np.int64)


class TestKernelSemantics:
    def test_bll_sums_accumulates_in_event_order(self):
        local_idx = np.array([0, 1, 0], dtype=np.int64)
        timestamps = np.array([10, 7, 7], dtype=np.int64)  # bases 1, 4, 4 at ref 10
        sums = _kernels.bll_sums(local_idx, timestamps, 10, 2, 0.5)
        assert sums[0] == 1.0 + 4.0**-0.5
        assert sums[1] == 4.0**-0.5

    def test_overlap_counts_small_case(self):
        # artists 0..2; artist 0 -> users {0,1}, artist 1 -> {1}, artist 2 -> {}
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        members = np.array([0, 1, 1], dtype=np.int64)
        query = np.array([0, 1], dtype=np.int64)
        counts = _kernels.overlap_counts(query, indptr, members, 2)
        assert counts.tolist() == [1, 2]

    def test_overlap_counts_match_set_intersections(self):
        rng = np.random.default_rng(2)
        for case in range(200):
            n_artists = int(rng.integers(1, 60))
            n_users = int(rng.integers(1, 25))
            user_sets = [set(rng.integers(0, n_artists, int(rng.integers(0, 12))).tolist()) for _ in range(n_users)]
            indptr, members = _csr_from_sets(user_sets, n_artists)
            n_query = 0 if case % 10 == 0 else int(rng.integers(1, n_artists + 1))
            query = np.unique(rng.integers(0, n_artists, n_query)).astype(np.int64)
            counts = _kernels.overlap_counts(query, indptr, members, n_users)
            assert counts.dtype == np.int64
            assert counts.tolist() == _brute_force_overlaps(query, user_sets)

import numpy as np
import pytest

from bllrec import _kernels, ingest


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


def _loop_bll_sums(local_idx, timestamps, ref, n_out, d):
    """The per-event loop: Python int bases, float ``**``, sums in event order."""
    out = [0.0] * n_out
    for i, t in zip(local_idx.tolist(), timestamps.tolist()):
        out[i] += (ref + 1 - t) ** -d
    return out


@pytest.mark.parametrize("d", [1e-6, 0.3, 0.5, 1.7, 40.0])
@pytest.mark.parametrize("dtype, ref", [(np.uint32, 2**32 - 1), (np.int64, 2**40), (np.int64, 2**63 - 1)])
def test_bll_sums_equal_the_event_loop_bit_for_bit(d, dtype, ref):
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, 2000):
        # Half the events near ref, half anywhere in 0..ref, so bases run from 1 to above 2**53.
        near = ref - rng.integers(0, 1000, n)
        anywhere = rng.integers(0, ref, n, dtype=np.int64, endpoint=True)
        timestamps = np.where(rng.random(n) < 0.5, near, anywhere).astype(dtype)
        local_idx = rng.integers(0, 5, n)
        got = _kernels.bll_sums(local_idx, timestamps, ref, 5, d)
        assert got.dtype == np.float64
        assert got.tolist() == _loop_bll_sums(local_idx, timestamps, ref, 5, d)


def _reference_digits(field: bytes):
    """(value, True) for 1 to 18 ASCII digits, else (None, False)."""
    if 1 <= len(field) <= 18 and all(ord("0") <= b <= ord("9") for b in field):
        return int(field), True
    return None, False


def test_parse_digits_matches_the_reference():
    rng = np.random.default_rng(4)
    odd = [ord("/"), ord(":"), 0x80, 0xFF]
    fields = []
    for width in list(range(21)) * 300:
        field = rng.integers(ord("0"), ord("9") + 1, width)
        bad = rng.random(width) < 0.02
        field[bad] = rng.choice(odd, int(bad.sum()))
        fields.append(bytes(field.astype(np.uint8)))
    fields += [b"9" * width for width in (8, 9, 16, 17, 18, 19)] + [b"0" * 18, b"1" + b"0" * 17]
    data = b"\t".join(fields)
    lengths = np.array([len(f) for f in fields])
    ends = np.cumsum(lengths + 1) - 1  # the first field starts the block, the last one ends it
    values, ok = ingest._parse_digits(ingest._pad(np.frombuffer(data, dtype=np.uint8)), ends - lengths, ends)
    expected = [_reference_digits(f) for f in fields]
    assert ok.tolist() == [good for _, good in expected]
    assert values[ok].tolist() == [value for value, good in expected if good]
    assert {len(f) for f, good in zip(fields, ok.tolist()) if good} == set(range(1, 19))

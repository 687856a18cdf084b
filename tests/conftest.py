import io
import math

import numpy as np

from bllrec import _kernels
from bllrec.cli import RunConfig
from bllrec.ingest import ColumnSchema, EventLog, IdMaps, build_user_histories, load_events
from bllrec.split import split_histories
from bllrec.synth import SynthConfig, generate_synthetic

from oracles import events_by_user, split_events

PROTOCOL = RunConfig()
"""The protocol's default values; a test that does not vary a value takes it from here."""
SIMPLE_SCHEMA = ColumnSchema(user=0, artist=1, ts=2)
LFM_SCHEMA = ColumnSchema(user=0, artist=1, ts=4)
"""The LFM-1b layout, which ``write_events_tsv`` writes."""


def log_from_events(events):
    """EventLog from (user_key, artist_key, timestamp) triples, in order."""
    text = "".join(f"{u}\t{a}\t{t}\n" for u, a, t in events)
    log, skipped = load_events(io.BytesIO(text.encode()), SIMPLE_SCHEMA, "skip")
    assert skipped == 0
    return log


def histories_from_events(events, fraction=PROTOCOL.fraction, bll_d=PROTOCOL.bll_d):
    """The table of (user_key, artist_key, timestamp) triples."""
    return build_user_histories(log_from_events(events), fraction, bll_d)


def user_slice(table, user, column):
    """One user's pair rows of a ``UserHistories`` column."""
    return getattr(table, column)[table.pair_offsets[user] : table.pair_offsets[user + 1]]


def user_test_artists(split, user):
    """One user's test artists, ascending: the low words of its keys among ``split.test_keys``."""
    lo, hi = np.searchsorted(split.test_keys, np.array([user, user + 1], dtype=np.uint64) << np.uint64(32))
    return (split.test_keys[lo:hi] & np.uint64(2**32 - 1)).astype(np.int32)


def hit_points(hits, test_size):
    """One user's (recall, precision) at k = 1..len(hits), where its first k entries hold ``hits[k - 1]`` hits.

    These are the divisions evaluation makes, so a one-user group's points equal them bit for bit.
    """
    return [(h / test_size, h / (i + 1)) for i, h in enumerate(hits)]


def kernel_activations(local_idx, timestamps, ref, n_artists, d):
    """Activation of each artist by the shipped kernel at a fixed ``ref``: ln of its ``bll_sums`` entry."""
    sums = _kernels.bll_sums(
        np.asarray(local_idx, dtype=np.int64), np.asarray(timestamps, dtype=np.int64), ref, n_artists, d
    )
    return [math.log(s) for s in sums.tolist()]


def kernel_activation(timestamps, ref, d):
    """Activation of one artist's listens at the fixed reference time ``ref``."""
    return kernel_activations([0] * len(timestamps), timestamps, ref, 1, d)[0]


def histories_from_ids(users, artists, timestamps, fraction=PROTOCOL.fraction, bll_d=PROTOCOL.bll_d):
    """UserHistories from parallel user ids, artist ids and timestamps, in input order."""
    log = EventLog(
        users=np.asarray(users, dtype=np.int32),
        artists=np.asarray(artists, dtype=np.int32),
        timestamps=np.asarray(timestamps, dtype=np.int64),
        id_maps=IdMaps(),
    )
    return build_user_histories(log, fraction, bll_d)


ORACLE_FRACTION = 0.2


def oracle_instances(artist_ids=lambda artists: artists):
    """(seed, train table, training events by user) of 100 synth instances small enough for the brute-force oracle.

    The train table is a split at ``ORACLE_FRACTION`` of all users, and the
    events are the oracle's own cut of the same log. ``artist_ids`` renames
    the log's artist ids first.
    """
    for seed in range(100):
        config = SynthConfig(
            n_users=4 + seed % 6,
            n_artists=10 + seed % 21,
            events_per_user=(3, 18),
            zipf_exponent=1.0 + (seed % 5) * 0.3,
            reconsume_prob=0.5,
            recency_bias=0.7,
            time_span=100_000,
            seed=seed,
        )
        log = generate_synthetic(config)
        columns = (log.users, artist_ids(log.artists), log.timestamps)
        train, _ = split_events(events_by_user(*columns), ORACLE_FRACTION)
        histories = build_user_histories(EventLog(*columns, IdMaps()), ORACLE_FRACTION, PROTOCOL.bll_d)
        yield seed, split_histories(histories).train, train

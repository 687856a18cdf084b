import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bllrec.cli import main
from bllrec.errors import DataError
from bllrec.ingest import build_user_histories, load_events, write_events_tsv
from bllrec.synth import (
    MAX_EVENTS_PER_USER,
    SplitMix64,
    SynthConfig,
    generate_synthetic,
    user_events,
    user_stream,
)

from conftest import LFM_SCHEMA, PROTOCOL, log_from_events
from oracles import brute_force_ranking, events_by_user

SRC = Path(__file__).resolve().parent.parent / "src"
SMALL = SynthConfig(n_users=6, n_artists=25, events_per_user=(5, 30), time_span=10_000, seed=3)


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        rng = SplitMix64(42)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = SplitMix64(42)
        assert first == [rng2.next_u64() for _ in range(3)]
        assert all(0 <= v < 2**64 for v in first)

    def test_random_unit_interval(self):
        rng = SplitMix64(7)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < float(np.mean(values)) < 0.6

    def test_below_bounds(self):
        rng = SplitMix64(9)
        assert all(0 <= rng.below(13) < 13 for _ in range(1000))

    def test_user_streams_differ(self):
        a = user_stream(42, 0).next_u64()
        b = user_stream(42, 1).next_u64()
        assert a != b


class TestGenerateSynthetic:
    def test_same_seed_same_log(self):
        log1 = generate_synthetic(SMALL)
        log2 = generate_synthetic(SMALL)
        assert np.array_equal(log1.users, log2.users)
        assert np.array_equal(log1.artists, log2.artists)
        assert np.array_equal(log1.timestamps, log2.timestamps)

    def test_different_seed_differs(self):
        other = SynthConfig(**{**SMALL.__dict__, "seed": 4})
        log1 = generate_synthetic(SMALL)
        log2 = generate_synthetic(other)
        assert len(log1) != len(log2) or not np.array_equal(log1.artists, log2.artists)

    def test_per_user_generation_matches_full_log(self):
        # parallel per-user generation must equal the sequential pass
        log = generate_synthetic(SMALL)
        history = events_by_user(log.users, log.artists, log.timestamps)
        user_keys, artist_keys = log.id_maps.users.keys(), log.id_maps.artists.keys()
        for u in range(SMALL.n_users):
            timestamps, ranks = user_events(SMALL, u)
            events = history[user_keys.index(str(u))]
            assert [t for _, t in events] == timestamps
            assert [artist_keys[a] for a, _ in events] == [str(r) for r in ranks]

    def test_always_reconsume_yields_one_artist_per_user(self):
        config = SynthConfig(n_users=4, n_artists=50, events_per_user=(10, 10),
                             reconsume_prob=1.0, time_span=1000, seed=5)
        histories = build_user_histories(generate_synthetic(config), PROTOCOL.fraction, PROTOCOL.bll_d)
        assert np.diff(histories.pair_offsets).tolist() == [1] * 4

    def test_never_reconsume_spreads_over_catalog(self):
        config = SynthConfig(n_users=4, n_artists=10_000, events_per_user=(50, 50),
                             zipf_exponent=0.5, reconsume_prob=0.0, time_span=1000, seed=5)
        histories = build_user_histories(generate_synthetic(config), PROTOCOL.fraction, PROTOCOL.bll_d)
        assert (np.diff(histories.pair_offsets) > 40).all()  # fresh Zipf draws, few collisions

    def test_extreme_zipf_concentrates_on_top_artist(self):
        config = SynthConfig(n_users=20, n_artists=100, events_per_user=(50, 50),
                             zipf_exponent=5.0, reconsume_prob=0.0, time_span=1000, seed=11)
        log = generate_synthetic(config)
        top_id = log.id_maps.artists.keys().index("0")
        share = float(np.mean(log.artists == top_id))
        assert share > 0.5

    def test_zipf_rank_frequency_monotone(self):
        # 100k fresh draws over a catalog small enough that every rank
        # gets real mass: empirical frequency should track Zipf rank
        config = SynthConfig(n_users=500, n_artists=500, events_per_user=(200, 200),
                             reconsume_prob=0.0, seed=42)
        log = generate_synthetic(config)
        counts = np.zeros(config.n_artists)
        keys = log.id_maps.artists.keys()
        for artist_id, count in zip(*np.unique(log.artists, return_counts=True)):
            rank = int(keys[artist_id])
            counts[rank] = count
        rho = _spearman(np.arange(config.n_artists, dtype=float), -counts)
        assert rho >= 0.9

    def test_timestamps_within_span_and_sorted_per_user(self):
        log = generate_synthetic(SMALL)
        assert int(log.timestamps.min()) >= 0
        assert int(log.timestamps.max()) < SMALL.time_span
        assert (np.diff(log.users) >= 0).all()  # grouped by user
        for user in range(SMALL.n_users):
            assert (np.diff(log.timestamps[log.users == user]) >= 0).all()

    def test_tsv_round_trip(self, tmp_path):
        log = generate_synthetic(SMALL)
        path = tmp_path / "synth.tsv"
        write_events_tsv(log, path)
        reloaded, skipped = load_events(path, LFM_SCHEMA, "skip")
        assert skipped == 0
        assert np.array_equal(reloaded.users, log.users)
        assert np.array_equal(reloaded.artists, log.artists)
        assert np.array_equal(reloaded.timestamps, log.timestamps)

    def test_golden_digest(self, tmp_path, capsys):
        # Every byte of the written log: ids, event order, timestamps and TSV layout.
        out = tmp_path / "s.tsv"
        args = ["synth", "--users", "30", "--artists", "200", "--events", "20..40", "--seed", "1"]
        assert main([*args, "--out", str(out)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "fbd89fcde85bcc25617aa18474f2d29c439b4eec7340fe1b4c0edac5f44f0990"

    def test_import_leaves_recommenders_unloaded(self):
        # bllrec.cli imports synth on every command; generating a log needs no recommender.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        code = "import sys, bllrec.synth; print(*sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        modules = proc.stdout.split()
        assert "bllrec.synth" in modules and "bllrec.recommend" not in modules

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_users": 0},
            {"events_per_user": (0, 5)},
            {"events_per_user": (10, 5)},
            {"zipf_exponent": 0.0},
            {"reconsume_prob": 1.5},
            {"recency_bias": 0.0},
            {"time_span": 0},
        ],
    )
    def test_invalid_configs(self, overrides):
        config = SynthConfig(**{**SMALL.__dict__, **overrides})
        with pytest.raises(DataError):
            generate_synthetic(config)

    @pytest.mark.parametrize(
        "overrides",
        [{"n_users": 2**31}, {"n_artists": 2**31}, {"time_span": 2**63 + 1}],
        ids=["users-over-int32", "artists-over-int32", "time-span-over-int64"],
    )
    def test_ids_and_timestamps_must_fit_their_dtypes(self, overrides):
        # validate() alone: generating with these values would size arrays by them
        with pytest.raises(DataError):
            SynthConfig(**{**SMALL.__dict__, **overrides}).validate()

    def test_events_per_user_bound(self):
        # validate() alone: generating at the bound would draw a million events per user
        SynthConfig(**{**SMALL.__dict__, "events_per_user": (3, MAX_EVENTS_PER_USER)}).validate()
        with pytest.raises(DataError):
            SynthConfig(**{**SMALL.__dict__, "events_per_user": (3, MAX_EVENTS_PER_USER + 1)}).validate()

    def test_largest_ids_and_time_span_are_valid(self):
        SynthConfig(**{**SMALL.__dict__, "n_users": 2**31 - 1, "n_artists": 2**31 - 1}).validate()
        log = generate_synthetic(SynthConfig(**{**SMALL.__dict__, "time_span": 2**63}))
        assert log.timestamps.dtype == np.int64 and int(log.timestamps.min()) >= 0


def _spearman(x, y):
    def ranks(values):
        order = np.argsort(values, kind="stable")
        out = np.empty(len(values))
        # average ranks over ties
        sorted_vals = values[order]
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
                j += 1
            out[order[i:j + 1]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(np.asarray(x)), ranks(np.asarray(y))
    return float(np.corrcoef(rx, ry)[0, 1])


class TestBruteForceOracle:
    @staticmethod
    def _events(log):
        return events_by_user(log.users, log.artists, log.timestamps)

    def _instance(self):
        config = SynthConfig(n_users=5, n_artists=12, events_per_user=(4, 20),
                             time_span=5000, seed=8)
        return self._events(generate_synthetic(config))

    def test_bounds_enforced(self):
        big = self._events(
            generate_synthetic(SynthConfig(n_users=11, n_artists=5, events_per_user=(2, 4),
                                           time_span=100, seed=1))
        )
        with pytest.raises(DataError):
            brute_force_ranking("pop", big, 0, 3, PROTOCOL.bll_d, PROTOCOL.cf_neighbors)

    def test_single_artist_user(self):
        events = self._events(log_from_events([("u", "a", 1), ("u", "a", 2)]))
        for algorithm in ("bll", "pop", "time"):
            ranking = brute_force_ranking(algorithm, events, 0, 5, PROTOCOL.bll_d, PROTOCOL.cf_neighbors)
            assert ranking.artists.tolist() == [0]

    def test_clone_users_cf(self):
        events = self._events(log_from_events(
            [("u0", "a", 1), ("u0", "b", 2), ("u1", "a", 1), ("u1", "b", 2)]
        ))
        result = brute_force_ranking("cf", events, 0, 5, PROTOCOL.bll_d, PROTOCOL.cf_neighbors)
        assert result.artists.tolist() == [0, 1]
        assert all(s == 1.0 for _, s in result.ranked)

    def test_unknown_algorithm(self):
        with pytest.raises(DataError):
            brute_force_ranking("hot", self._instance(), 0, 3, PROTOCOL.bll_d, PROTOCOL.cf_neighbors)

    def test_params_respected(self):
        histories = self._instance()
        user = 0
        deep = brute_force_ranking("bll", histories, user, 5, 2.5, PROTOCOL.cf_neighbors)
        shallow = brute_force_ranking("bll", histories, user, 5, 1e-6, PROTOCOL.cf_neighbors)
        narrow = brute_force_ranking("cf", histories, user, 5, PROTOCOL.bll_d, 1)
        assert len(narrow.artists) <= 5

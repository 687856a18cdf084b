"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import math
import os
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bllrec.cli import main
from bllrec.evaluation import evaluate_algorithm, hits_at_k
from bllrec.ingest import build_user_histories, history_from_arrays, load_events
from bllrec.profiling import assign_groups, group_stats, score_users
from bllrec.recommend import BllParams, CfParams, bll_activation, build_recommenders, recommend_bll
from bllrec.split import n_test_events, split_histories, time_split
from bllrec.synth import SynthConfig, brute_force_ranking, generate_synthetic


def _history_from_pairs(user, pairs):
    """UserHistory from unordered (artist, timestamp) pairs."""
    pairs = sorted(pairs, key=lambda p: p[1])
    artists = np.array([a for a, _ in pairs], dtype=np.int32)
    timestamps = np.array([t for _, t in pairs], dtype=np.int64)
    return history_from_arrays(user, artists, timestamps)


def _decimal_oracle(timestamps, ref_time, d):
    """High-precision activation: 25 significant digits via stdlib decimal."""
    with localcontext() as ctx:
        ctx.prec = 25
        total = Decimal(0)
        exponent = -Decimal(d)
        for t in timestamps:
            total += Decimal(ref_time - t + 1) ** exponent
        return float(total.ln())


def test_c1_bll_arithmetic_matches_high_precision_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    elapsed = 0.0  # time in bll_activation only; the decimal oracle is not under test
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        ref = int(rng.integers(1_000_000, 2_000_000_000))
        timestamps = rng.integers(0, ref + 1, n).tolist()
        d = float(rng.uniform(0.05, 3.0))
        started = time.perf_counter()
        got = bll_activation(timestamps, ref, d)
        elapsed += time.perf_counter() - started
        worst = max(worst, abs(got - _decimal_oracle(timestamps, ref, d)))
    assert worst < 1e-9

    # worked examples at their stated precision
    assert bll_activation([100], ref_time=100, d=0.5) == 0.0
    assert round(bll_activation([100, 97], ref_time=100, d=0.5), 6) == 0.405465
    assert round(bll_activation([100, 100, 100], ref_time=100, d=0.5), 6) == 1.098612

    assert elapsed < 1.0
    print(f"criterion 1 PASS: 1000 oracle comparisons, worst |err|={worst:.2e}, {elapsed:.2f}s")


def test_c2_monotonicity_and_scaling_invariance():
    rng = np.random.default_rng(77)
    violations = 0

    for _ in range(5000):  # recency: moving one listen closer strictly raises activation
        ref = int(rng.integers(10_000, 10_000_000))
        n = int(rng.integers(1, 15))
        timestamps = rng.integers(0, ref - 1, n).tolist()
        d = float(rng.uniform(0.05, 2.5))
        pick = int(rng.integers(0, n))
        bumped = list(timestamps)
        bumped[pick] = int(rng.integers(bumped[pick] + 1, ref + 1))
        if bll_activation(bumped, ref, d) <= bll_activation(timestamps, ref, d):
            violations += 1

    for _ in range(5000):  # frequency: an extra listen strictly raises activation
        ref = int(rng.integers(10_000, 10_000_000))
        n = int(rng.integers(1, 15))
        timestamps = rng.integers(0, ref + 1, n).tolist()
        d = float(rng.uniform(0.05, 2.5))
        extra = timestamps + [int(rng.integers(0, ref + 1))]
        if bll_activation(extra, ref, d) <= bll_activation(timestamps, ref, d):
            violations += 1
    assert violations == 0

    # scaling all adjusted deltas by a constant shifts every activation equally,
    # so rankings are invariant (asserted at the ranking level)
    mismatches = 0
    for _ in range(1000):
        n_artists = int(rng.integers(2, 9))
        scale = int(rng.integers(2, 50))
        deltas = {
            a: rng.integers(1, 1_000_000, int(rng.integers(1, 6))).tolist()
            for a in range(n_artists)
        }
        ref = 10**12
        base = _history_from_pairs(0, [(a, ref + 1 - d0) for a, ds in deltas.items() for d0 in ds])
        scaled = _history_from_pairs(
            0, [(a, ref + 1 - d0 * scale) for a, ds in deltas.items() for d0 in ds]
        )
        params = BllParams(d=0.5, ref_time=ref)
        if (
            recommend_bll(base, params, n_artists).artists
            != recommend_bll(scaled, params, n_artists).artists
        ):
            mismatches += 1
    assert mismatches == 0
    print("criterion 2 PASS: 10000 monotonicity pairs, 1000 scaling instances, 0 violations")


def test_c3_all_recommenders_match_brute_force_oracle():
    started = time.perf_counter()
    checked = 0
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
        histories = build_user_histories(generate_synthetic(config))
        bll_params = BllParams()
        cf_params = CfParams()
        recommenders = build_recommenders(histories, bll_params=bll_params, cf_params=cf_params)
        for user, train in histories.items():
            for name, fn in recommenders.items():
                got = fn(user, train, 10)
                want = brute_force_ranking(
                    name, histories, user, 10, bll_params=bll_params, cf_params=cf_params
                )
                assert got.artists == want.artists, (seed, user, name)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 3 PASS: {checked} rankings equal the oracle exactly, {elapsed:.1f}s")


def test_c4_metric_identities_hold_exactly():
    rng = np.random.default_rng(55)
    events = [
        (int(rng.integers(0, 10)), int(rng.integers(0, 60)), int(rng.integers(0, 100_000)))
        for _ in range(2500)
    ]
    by_user = {}
    for user, artist, t in events:
        by_user.setdefault(user, []).append((artist, t))
    histories = {u: _history_from_pairs(u, pairs) for u, pairs in by_user.items()}
    split = split_histories(histories, 0.1)
    trains = {u: s.train for u, s in split.per_user.items()}
    k_max = 20

    checked_users = 0
    for name, fn in build_recommenders(trains).items():
        report = evaluate_algorithm(split, fn, split.per_user, k_max, name, "ALL")
        for result in report.user_results:
            test_artists = set(split.per_user[result.user].test.artist_counts)
            ranking = fn(result.user, split.per_user[result.user].train, k_max)
            assert result.hits_at_k.tolist() == hits_at_k(ranking.artists, test_artists, k_max).tolist()
            t_size = result.test_set_size
            for i in range(k_max):
                hit_count = int(result.hits_at_k[i])
                recall = hit_count / t_size
                precision = hit_count / (i + 1)
                # integer hit counts are recovered exactly from either metric
                assert round(recall * t_size) == hit_count
                assert round(precision * (i + 1)) == hit_count
                assert abs(recall * t_size - hit_count) < 1e-9
                assert abs(precision * (i + 1) - hit_count) < 1e-9
            checked_users += 1
        recalls = [r for r, _ in report.points]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
    print(f"criterion 4 PASS: identities exact on {checked_users} user evaluations")


def test_c5_split_protocol():
    for n, expected in [(2, 1), (50, 1), (100, 1), (250, 2), (1000, 10)]:
        history = _history_from_pairs(0, [(i % 7, i) for i in range(n)])
        train, test = time_split(history, 0.01)
        assert test.n_events == expected, (n, test.n_events)
        assert train.n_events == n - expected

    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 600))
        history = _history_from_pairs(
            0, [(int(rng.integers(0, 12)), int(rng.integers(0, 10_000))) for _ in range(n)]
        )
        fraction = float(rng.uniform(0.002, 0.98))
        train, test = time_split(history, fraction)
        assert train.n_events + test.n_events == n
        assert test.n_events == n_test_events(n, fraction) >= 1
        assert train.n_events >= 1
        assert int(train.timestamps.max()) <= int(test.timestamps.min())
    print("criterion 5 PASS: fixture sizes {1,1,1,2,10}; 1000 random splits hold invariants")


def test_c6_group_assignment_matches_sort_oracle():
    def oracle(scores, size):
        order = sorted(scores, key=lambda u: (scores[u], u))
        n = len(order)
        start = (n - size) // 2
        return (
            tuple(sorted(order[:size])),
            tuple(sorted(order[start:start + size])),
            tuple(sorted(order[n - size:])),
        )

    rng = np.random.default_rng(123)
    sizes = (3, 5, 10)
    for i in range(100):
        scores = {u: float(rng.random()) for u in range(30)}
        size = sizes[i % 3]
        groups = assign_groups(scores, size)
        assert (groups.low, groups.med, groups.high) == oracle(scores, size)
        means = [
            float(np.mean([scores[u] for u in g])) for g in (groups.low, groups.med, groups.high)
        ]
        assert means[0] <= means[1] <= means[2]
    print("criterion 6 PASS: 100 random assignments match the sort oracle, means monotone")


def test_c7_bll_wins_on_synthetic_groups():
    started = time.perf_counter()
    config = SynthConfig(
        n_users=500,
        n_artists=2000,
        events_per_user=(200, 400),
        zipf_exponent=1.1,
        reconsume_prob=0.7,
        recency_bias=0.8,
        seed=42,
    )
    log = generate_synthetic(config)
    histories = build_user_histories(log)
    scores = score_users(histories, min_events=2)
    groups = assign_groups(scores, 166)  # 500 users cannot fill 3 groups of 1000
    split = split_histories(histories, 0.01, users=scores.keys())
    trains = {u: s.train for u, s in split.per_user.items()}
    recommenders = build_recommenders(trains, n_artists=len(log.id_maps.artists))

    recall_at = {}
    for name in ("bll", "pop", "time", "top", "cf"):
        for group_name, members in groups.as_dict().items():
            report = evaluate_algorithm(split, recommenders[name], members, 20, name, group_name)
            recall_at[(name, group_name)] = [r for r, _ in report.points]

    for group_name in ("LowMS", "MedMS", "HighMS"):
        bll10 = recall_at[("bll", group_name)][9]
        assert bll10 > recall_at[("pop", group_name)][9], group_name
        assert bll10 > recall_at[("top", group_name)][9], group_name

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 7 PASS: BLL recall@10 beats POP and TOP in all groups, {elapsed:.1f}s")
    for group_name in ("LowMS", "MedMS", "HighMS"):
        for k in (1, 2):
            time_r = recall_at[("time", group_name)][k - 1]
            bll_r = recall_at[("bll", group_name)][k - 1]
            marker = "TIME>BLL" if time_r > bll_r else "TIME<=BLL"
            print(
                f"  report: {group_name} k={k} recall TIME={time_r:.4f} BLL={bll_r:.4f} ({marker})"
            )


def test_c8_pipeline_determinism(tmp_path):
    events_path = tmp_path / "synth.tsv"
    assert main(
        [
            "synth", "--users", "60", "--artists", "120", "--events", "20..40",
            "--seed", "42", "--out", str(events_path),
        ]
    ) == 0

    outputs = {}
    for label, extra in {
        "run1": [],
        "run2": [],
        "t1": ["--threads", "1"],
    }.items():
        out_dir = tmp_path / label
        code = main(
            [
                "run", "--events", str(events_path), "--group-size", "20",
                "--k-max", "10", "--out-dir", str(out_dir), *extra,
            ]
        )
        assert code == 0
        outputs[label] = (out_dir / "results.csv").read_bytes()

    assert outputs["run1"] == outputs["run2"] == outputs["t1"]
    print("criterion 8 PASS: repeated runs and --threads 1 are byte-identical")


LFM1B_ENV = "BLLREC_LFM1B_EVENTS"
TABLE1_EVENTS = {"LowMS": 6_915_352, "MedMS": 7_900_726, "HighMS": 8_251_022}


@pytest.mark.skipif(LFM1B_ENV not in os.environ, reason=f"set {LFM1B_ENV} to run the full-dataset check")
def test_c9_full_dataset_group_stats():
    log, _ = load_events(os.environ[LFM1B_ENV])
    histories = build_user_histories(log)
    scores = score_users(histories, min_events=2)
    groups = assign_groups(scores, 1000)
    for name, members in groups.as_dict().items():
        stats = group_stats(members, histories, scores)
        assert stats.users == 1000
        expected = TABLE1_EVENTS[name]
        deviation = abs(stats.listening_events - expected) / expected
        print(
            f"  {name}: |LE|={stats.listening_events} (reference {expected}, dev {deviation:.2%}) "
            f"|A|={stats.distinct_artists} |A/U|={stats.avg_artists_per_user:.0f} "
            f"|MS|={stats.avg_mainstreaminess:.3f}"
        )
        assert deviation <= 0.05
    print("criterion 9 PASS: full-dataset group statistics within tolerance")

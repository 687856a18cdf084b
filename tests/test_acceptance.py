"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import math
import os
import time
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bllrec.cli import main
from bllrec.evaluation import evaluate_algorithm
from bllrec.ingest import ColumnSchema, build_user_histories, load_events, n_test_events
from bllrec.profiling import assign_groups, group_stats, score_users
from bllrec.recommend import build_recommenders
from bllrec.split import split_histories
from bllrec.synth import SynthConfig, generate_synthetic

from conftest import (
    PROTOCOL,
    histories_from_ids,
    kernel_activation,
    kernel_activations,
    oracle_instances,
    user_test_artists,
)
from oracles import brute_force_ranking, events_by_user, split_events


def _decimal_oracle(timestamps, ref, d):
    """High-precision activation: 25 significant digits via stdlib decimal."""
    with localcontext() as ctx:
        ctx.prec = 25
        total = Decimal(0)
        exponent = -Decimal(d)
        for t in timestamps:
            total += Decimal(ref - t + 1) ** exponent
        return float(total.ln())


def test_c1_bll_arithmetic_matches_high_precision_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    elapsed = 0.0  # time in the kernel only; the decimal oracle is not under test
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        ref = int(rng.integers(1_000_000, 2_000_000_000))
        timestamps = rng.integers(0, ref + 1, n).tolist()
        d = float(rng.uniform(0.05, 3.0))
        started = time.perf_counter()
        got = kernel_activation(timestamps, ref, d)
        elapsed += time.perf_counter() - started
        worst = max(worst, abs(got - _decimal_oracle(timestamps, ref, d)))
    assert worst < 1e-9

    # worked examples at their stated precision
    assert kernel_activation([100], 100, 0.5) == 0.0
    assert round(kernel_activation([100, 97], 100, 0.5), 6) == 0.405465
    assert round(kernel_activation([100, 100, 100], 100, 0.5), 6) == 1.098612

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
        if kernel_activation(bumped, ref, d) <= kernel_activation(timestamps, ref, d):
            violations += 1

    for _ in range(5000):  # frequency: an extra listen strictly raises activation
        ref = int(rng.integers(10_000, 10_000_000))
        n = int(rng.integers(1, 15))
        timestamps = rng.integers(0, ref + 1, n).tolist()
        d = float(rng.uniform(0.05, 2.5))
        extra = timestamps + [int(rng.integers(0, ref + 1))]
        if kernel_activation(extra, ref, d) <= kernel_activation(timestamps, ref, d):
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
        artists = [a for a, ds in deltas.items() for _ in ds]
        base = kernel_activations(
            artists, [ref + 1 - d0 for ds in deltas.values() for d0 in ds], ref, n_artists, PROTOCOL.bll_d
        )
        scaled = kernel_activations(
            artists, [ref + 1 - d0 * scale for ds in deltas.values() for d0 in ds], ref, n_artists, PROTOCOL.bll_d
        )
        if sorted(range(n_artists), key=lambda a: (-base[a], a)) != sorted(
            range(n_artists), key=lambda a: (-scaled[a], a)
        ):
            mismatches += 1
    assert mismatches == 0
    print("criterion 2 PASS: 10000 monotonicity pairs, 1000 scaling instances, 0 violations")


def test_c3_all_recommenders_match_brute_force_oracle():
    started = time.perf_counter()
    checked = 0
    for seed, train, events in oracle_instances():
        cf_neighbors = 20
        recommenders = build_recommenders(train, PROTOCOL.algorithms, cf_neighbors)
        for user in np.flatnonzero(train.n_events).tolist():
            for name, fn in recommenders.items():
                got = fn(user, train, 10)
                want = brute_force_ranking(name, events, user, 10, PROTOCOL.bll_d, cf_neighbors)
                assert got.artists.tolist() == want.artists.tolist(), (seed, user, name)
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
    histories = histories_from_ids(*zip(*events), fraction=0.1)
    split = split_histories(histories)
    k_max = 20

    checked_users = 0
    for name, fn in build_recommenders(split.train, PROTOCOL.algorithms, PROTOCOL.cf_neighbors).items():
        users = split.per_user
        report = evaluate_algorithm(split, fn, users, k_max, name, "ALL")
        assert report.hits.shape == (len(users), k_max)
        for user, hits in zip(users.tolist(), report.hits.tolist()):
            test_artists = set(user_test_artists(split, user).tolist())
            ranked = fn(user, split.train, k_max).artists.tolist()
            # the cumulative hit count of each top-k prefix, counted by hand
            assert hits == [sum(a in test_artists for a in ranked[: i + 1]) for i in range(k_max)]
            t_size = len(test_artists)
            for i in range(k_max):
                hit_count = hits[i]
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


def _time_split(pairs, fraction):
    """The split of one user's (artist, timestamp) pairs, the table it selects from, and the user's test events
    by the split rule."""
    columns = ([0] * len(pairs), *zip(*pairs))
    histories = histories_from_ids(*columns, fraction=fraction)
    _, test = split_events(events_by_user(*columns), fraction)
    return split_histories(histories), histories, test[0]


def test_c5_split_protocol():
    for n, expected in [(2, 1), (50, 1), (100, 1), (250, 2), (1000, 10)]:
        split, _, _ = _time_split([(i % 7, i) for i in range(n)], 0.01)
        assert split.test_events[0] == expected, (n, split.test_events[0])
        assert split.train.n_events[0] == n - expected

    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 600))
        pairs = [(int(rng.integers(0, 12)), int(rng.integers(0, 10_000))) for _ in range(n)]
        fraction = float(rng.uniform(0.002, 0.98))
        split, histories, test_events = _time_split(pairs, fraction)
        train = split.train
        assert train.n_events[0] + split.test_events[0] == n
        assert split.test_events[0] == n_test_events(n, fraction) >= 1
        assert train.n_events[0] >= 1
        # The test plays that the split selects from are exactly the latest events, the test keys hold their
        # artists, and no training play is later than any of them.
        tested = histories.pair_test_counts > 0
        test_plays = dict(zip(histories.pair_artists[tested].tolist(), histories.pair_test_counts[tested].tolist()))
        assert test_plays == Counter(a for a, _ in test_events)
        assert user_test_artists(split, 0).tolist() == sorted(test_plays)
        assert int(train.pair_last.max()) <= min(t for _, t in test_events)
    print("criterion 5 PASS: fixture sizes {1,1,1,2,10}; 1000 random splits hold invariants")


def test_c6_group_assignment_matches_sort_oracle():
    def oracle(scores, size):
        order = sorted(scores, key=lambda u: (scores[u], u))
        n = len(order)
        start = (n - size) // 2
        return (
            sorted(order[:size]),
            sorted(order[start:start + size]),
            sorted(order[n - size:]),
        )

    rng = np.random.default_rng(123)
    sizes = (3, 5, 10)
    for i in range(100):
        scores = {u: float(rng.random()) for u in range(30)}
        size = sizes[i % 3]
        groups = assign_groups(np.array([scores[u] for u in range(30)]), size)
        assert list(groups) == ["LowMS", "MedMS", "HighMS"]
        assert [g.tolist() for g in groups.values()] == list(oracle(scores, size))
        means = [float(np.mean([scores[u] for u in g.tolist()])) for g in groups.values()]
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
    histories = build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d)
    scores = score_users(histories, min_events=2)
    groups = assign_groups(scores, 166)  # 500 users cannot fill 3 groups of 1000
    split = split_histories(histories, np.flatnonzero(~np.isnan(scores)))
    recommenders = build_recommenders(split.train, PROTOCOL.algorithms, PROTOCOL.cf_neighbors)

    recall_at = {}
    for name in ("bll", "pop", "time", "top", "cf"):
        for group_name, members in groups.items():
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
    log, _ = load_events(os.environ[LFM1B_ENV], ColumnSchema.parse(PROTOCOL.schema), PROTOCOL.on_error)
    histories = build_user_histories(log, PROTOCOL.fraction, PROTOCOL.bll_d)
    scores = score_users(histories, min_events=2)
    groups = assign_groups(scores, 1000)
    for name, members in groups.items():
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

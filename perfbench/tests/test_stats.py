"""Checks on the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from stats import covered, ops_failed_frac, percentile, self_time, summarize, tail_percentile  # noqa: E402


def test_self_time_without_children_is_the_duration():
    assert self_time(10, 25, []) == 15


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Two pool threads: [2, 6] and [4, 8] overlap, [9, 10] is separate.
    assert self_time(0, 12, [(2, 6), (4, 8), (9, 10)]) == 12 - 7


def test_self_time_clips_children_to_the_parent():
    assert self_time(5, 10, [(0, 6), (9, 20)]) == 5 - 2


def test_covered_handles_nested_and_touching_intervals():
    assert covered([(0, 10), (2, 3), (10, 12)], 0, 100) == 12
    assert covered([], 0, 5) == 0


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 50) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_summarize_reports_a_tail_only_when_supported():
    small = summarize([3.0, 1.0, 2.0])
    assert small == {"median": 2.0, "n": 3, "tail_p": None, "tail": None}
    big = summarize(range(1, 101))
    assert (big["median"], big["n"], big["tail_p"], big["tail"]) == (50.5, 100, 90.0, 90)


def test_ops_failed_frac():
    assert ops_failed_frac(0, 8) == 0.0
    assert ops_failed_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        ops_failed_frac(0, 0)
    with pytest.raises(ValueError):
        ops_failed_frac(3, 2)


def fake_trace():
    """A traced run by hand: times in ns, one cf evaluation on two threads."""
    ms = 1_000_000
    spans = [
        # id, parent, name, start, end, on-CPU ns
        (1, None, "cli.main", 0, 1000 * ms, 1000 * ms),
        (2, 1, "ingest.load_events", 0, 400 * ms, 400 * ms),
        (3, 1, "evaluation.cf", 500 * ms, 900 * ms, 50 * ms),
        (4, 3, "recommend.cf.user", 500 * ms, 800 * ms, 200 * ms),
        (5, 3, "recommend.cf.user", 600 * ms, 850 * ms, 100 * ms),
        (6, 4, "kernels.overlap_counts", 500 * ms, 700 * ms, 150 * ms),
    ]
    counters = {"ingest.events": 90, "ingest.skipped_lines": 10, "kernels.overlap_counts.postings": 1000,
                "recommend.cf.empty_lists": 1}
    return {"run_id": "t", "spans": spans, "counters": counters, "exit_code": 0}


def layer_metrics():
    meta = {"input_bytes": 500, "generate_s": 2.0, "synth_events": 100}
    traced = {"run_s": 1.5, "cpu_s": 1.4, "read_bytes": 1000}
    return run.layer_metrics(fake_trace(), traced, meta, untraced_cpu_s=1.1, tracebacks=2)


def test_layer_metrics_from_spans():
    m = {name: value for name, (value, unit) in layer_metrics().items()}
    assert m["cli.self_s"] == pytest.approx(1.0 - 0.4 - 0.4)
    assert m["ingest.load_events_s"] == pytest.approx(0.4)
    assert m["ingest.lines"] == 100
    assert m["ingest.ns_per_line"] == pytest.approx(0.4e9 / 100)
    assert m["evaluation.cf.wall_s"] == pytest.approx(0.4)
    assert m["evaluation.cf.self_s"] == pytest.approx(0.4 - 0.35)
    assert m["recommend.cf.calls"] == 2
    assert m["recommend.cf.busy_s"] == pytest.approx(0.3)
    assert m["evaluation.cf.busy_over_wall"] == pytest.approx(0.3 / 0.4)
    assert m["recommend.cf.empty_lists"] == 1
    assert m["recommend.top.calls"] == 0 and m["recommend.top.busy_s"] == 0
    assert m["kernels.overlap_counts.calls"] == 1
    assert m["kernels.overlap_counts.ns_per_posting"] == pytest.approx(0.15e9 / 1000)
    assert m["cli.input_read_ratio"] == 2.0
    assert m["synth.events_per_s"] == 50.0
    assert m["trace.overhead_s"] == pytest.approx(0.3)
    assert m["ingest.probe_tracebacks"] == 2


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = layer_metrics()
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

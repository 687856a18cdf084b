"""The benchmark's tracer still finds the layer functions it wraps.

perfbench/tracer.py patches functions of bllrec by name. This runs one
traced `run` through perfbench/child.py, so a rename under src/ that
would break the benchmark's per-layer metrics fails here.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from bllrec.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_records_layer_spans(tmp_path, capsys):
    events = tmp_path / "events.tsv"
    assert main(["synth", "--users", "30", "--artists", "80", "--events", "20..40", "--out", str(events)]) == 0
    capsys.readouterr()
    report, trace = tmp_path / "report.json", tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), "run",
            "--report", str(report), "--trace", str(trace), "--",
            "run", "--events", str(events), "--threads", "1", "--group-size", "10",
            "--out-dir", str(tmp_path / "out"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace.read_text())
    names = {span[2] for span in trace["spans"]}
    for name in (
        "ingest.build_user_histories",
        "profiling.score_users",
        "profiling.group_stats",
        "split.split_histories",
        "evaluation.bll",
        "recommend.build_recommenders",
        "recommend.top.build",
        "recommend.cf.build",
        "kernels.bll_sums",
        "kernels.overlap_counts",
    ):
        assert name in names
    # The tracer reads the split's user count and test event count.
    assert trace["counters"]["split.users"] == 30
    assert trace["counters"]["split.test_events"] >= 30
    # recommend.*.calls, user_p50_ms and busy_over_wall read one span per user call:
    # 3 groups of 10 users, each evaluated by every algorithm.
    calls = Counter(span[2] for span in trace["spans"] if span[2].endswith(".user"))
    assert calls == {f"recommend.{algorithm}.user": 30 for algorithm in ("bll", "cf", "pop", "time", "top")}

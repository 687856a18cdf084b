"""Pipeline benchmark: times `bllrec run` end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--append FILE]
    python3 perfbench/run.py --workload NAME --seed N --record-reference

One invocation generates the workload's input (in a child process),
then launches one fresh `run` process after another for the given number
of seconds and reports medians over those runs. The seed selects one of
INPUT_SEEDS inputs per workload (seed modulo INPUT_SEEDS), each with its
output digests recorded in reference.json, so that every seed is gated
against a reference. Each run is gated on its outputs: exit code 0, the
skipped-line count equal to the number of lines the generator corrupted,
well-formed CSVs, and SHA-256 digests equal to the recorded ones (or,
where none are recorded, equal across every run of the invocation).
With --trace 1 a further, traced run gives the per-layer metrics, and a
probe counts ingest tracebacks on two tiny bad inputs. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.

`--workload all` runs every workload, traced, prints every metric, and
with --append adds the result as a point to a trajectory file such as
perfbench/BENCH_pipeline.json.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import ops_failed_frac, percentile, self_time, summarize, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

# Distinct inputs per workload, each with recorded output digests.
INPUT_SEEDS = 40
MIN_RUNS = 3
RUN_TIMEOUT_S = 150
# Stop starting runs once the invocation could no longer end within this.
INVOCATION_BUDGET_S = 165
OUTPUTS = ("groups.csv", "stats.csv", "results.csv")
GROUPS = ("LowMS", "MedMS", "HighMS")
# bllrec.recommend.ALGORITHMS; run.py does not import bllrec (see child.py).
ALGORITHMS = ("bll", "cf", "pop", "time", "top")
K_MAX = 20
# `bllrec run --threads` for every workload. With the evaluation thread
# pool on 2 cores, wall time spread 22% between invocations (the
# interpreter lock hands over slowly on a contended host) while CPU time
# spread 6%, too noisy for a 25% bound.
THREADS = 1

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def spawn(argv, stdout, stderr, timeout_s: float = RUN_TIMEOUT_S):
    """Run argv to completion; return (exit code, spawn time ns, wall s, rusage of that child alone)."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall_s = (time.monotonic_ns() - t0) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, wall_s, rusage


def generate_input(workload, seed: int, run_dir: Path) -> dict:
    out = run_dir / "gen.json"
    with open(out, "w") as stdout, open(run_dir / "gen.err", "w") as stderr:
        code, _, _, _ = spawn(
            [sys.executable, str(HERE / "child.py"), "gen", "--workload", workload.name,
             "--seed", str(seed), "--dir", str(run_dir)],
            stdout, stderr,
        )
    if code != 0:
        raise BenchError(f"input generation failed:\n{(run_dir / 'gen.err').read_text()}")
    return json.loads(out.read_text())


def check_outputs(out_dir: Path, workload) -> str | None:
    """Structural checks on one run's CSVs; returns a reason or None."""
    group_size = int(workload.flags[workload.flags.index("--group-size") + 1])
    algorithms = workload.flags[workload.flags.index("--algo") + 1].split(",")
    groups = (out_dir / "groups.csv").read_text().splitlines()
    if len(groups) != 1 + 3 * group_size:
        return f"groups.csv has {len(groups) - 1} rows, expected {3 * group_size}"
    stats_rows = (out_dir / "stats.csv").read_text().splitlines()[1:]
    if [row.split(",")[0] for row in stats_rows] != list(GROUPS):
        return "stats.csv does not list LowMS, MedMS, HighMS"
    if any(int(row.split(",")[1]) != group_size for row in stats_rows):
        return "stats.csv group sizes differ from --group-size"
    results = (out_dir / "results.csv").read_text().splitlines()[1:]
    if len(results) != len(algorithms) * len(GROUPS) * K_MAX:
        return f"results.csv has {len(results)} rows"
    for row in results:
        algorithm, group, k, recall, precision, users = row.split(",")
        if algorithm not in algorithms or group not in GROUPS or not 1 <= int(k) <= K_MAX:
            return f"results.csv row out of place: {row}"
        if not (0.0 <= float(recall) <= 1.0 and 0.0 <= float(precision) <= 1.0):
            return f"results.csv metric outside [0, 1]: {row}"
        if int(users) > group_size:
            return f"results.csv user count above group size: {row}"
    return None


def digests(out_dir: Path) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUTS}


def one_run(workload, meta: dict, run_dir: Path, expected: dict | None, trace: bool = False) -> dict:
    """One `bllrec run` process, gated on its outputs."""
    out_dir = run_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    report_path = run_dir / "report.json"
    report_path.unlink(missing_ok=True)
    trace_path = run_dir / "trace.json"
    argv = [sys.executable, str(HERE / "child.py"), "run", "--report", str(report_path)]
    if trace:
        argv += ["--trace", str(trace_path)]
    argv += ["--", "run", "--events", meta["path"], "--out-dir", str(out_dir), "--threads", str(THREADS),
             *workload.flags]
    with open(run_dir / "run.err", "w") as stderr:
        code, t_spawn, wall_s, rusage = spawn(argv, subprocess.DEVNULL, stderr)
    run = {
        "run_s": wall_s,
        "cpu_s": rusage.ru_utime + rusage.ru_stime,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "exit_code": code,
        "error": None,
    }
    if code != 0 or not report_path.exists():
        run["error"] = f"exit code {code}: {(run_dir / 'run.err').read_text()[-2000:]}"
        return run
    report = json.loads(report_path.read_text())
    # CPU time of the child until main is entered, so that waiting for a
    # core does not count; the wall time is reported alongside.
    run["setup_s"] = report["cpu_main_s"]
    run["setup_wall_s"] = (report["t_main_ns"] - t_spawn) / 1e9
    run["read_bytes"] = report["read_bytes"]
    run["events_per_s"] = meta["events"] / wall_s
    skipped = json.loads((out_dir / "manifest.json").read_text())["skipped_lines"]
    run["digests"] = digests(out_dir)
    if trace:
        run["trace"] = json.loads(trace_path.read_text())
    if skipped != meta["corrupted"]:
        run["error"] = f"skipped {skipped} lines, the generator corrupted {meta['corrupted']}"
    elif (reason := check_outputs(out_dir, workload)) is not None:
        run["error"] = reason
    elif expected is not None and run["digests"] != expected:
        run["error"] = f"output digests {run['digests']} differ from {expected}"
    return run


def probe_tracebacks(run_dir: Path) -> int:
    """Count `run --on-error skip` processes that die with a traceback on known-bad input.

    Both inputs are valid apart from one line: a timestamp beyond int64 and
    an artist key that is not UTF-8. Ingest should skip either line; a
    traceback is the defect this keeps visible. Untimed.
    """
    good = b"".join(f"u{u}\ta{a}\t0\t0\t{100 + 10 * a}\n".encode() for u in range(3) for a in range(3))
    bad_lines = {
        "int64-overflow": b"u0\ta9\t0\t0\t99999999999999999999\n",
        "invalid-utf8": b"u0\ta\xff\xfe\t0\t0\t150\n",
    }
    count = 0
    for name, bad in bad_lines.items():
        path = run_dir / f"probe-{name}.tsv"
        path.write_bytes(good + bad)
        err = run_dir / f"probe-{name}.err"
        with open(err, "w") as stderr:
            spawn([sys.executable, str(HERE / "child.py"), "run", "--report", str(run_dir / "probe.json"), "--",
                   "run", "--events", str(path), "--on-error", "skip", "--group-size", "1", "--algo", "pop",
                   "--threads", "1", "--out-dir", str(run_dir / "probe-out")],
                  subprocess.DEVNULL, stderr, timeout_s=60)
        count += "Traceback (most recent call last)" in err.read_text(errors="replace")
    return count


def layer_metrics(trace: dict, run: dict, meta: dict, untraced_cpu_s: float, tracebacks: int) -> dict:
    """Per-layer metrics from one traced run: name -> (value, unit)."""
    spans = trace["spans"]
    counters = trace["counters"]
    children: dict[int, list] = {}
    for span_id, parent, name, t0, t1, cpu in spans:
        children.setdefault(parent, []).append((t0, t1))

    def named(name):
        return [s for s in spans if s[2] == name]

    def wall_s(name):
        return sum(s[4] - s[3] for s in named(name)) / 1e9

    def busy_s(name):
        return sum(s[5] for s in named(name)) / 1e9

    def self_s(name):
        return sum(self_time(s[3], s[4], children.get(s[0], ())) for s in named(name)) / 1e9

    def per(total, count, scale):
        return total * scale / count if count else 0.0

    m = {}
    lines = counters.get("ingest.events", 0) + counters.get("ingest.skipped_lines", 0)
    m["ingest.load_events_s"] = (wall_s("ingest.load_events"), "s")
    m["ingest.ns_per_line"] = (per(wall_s("ingest.load_events"), lines, 1e9), "ns")
    m["ingest.lines"] = (lines, "count")
    m["ingest.skipped_lines"] = (counters.get("ingest.skipped_lines", 0), "count")
    m["ingest.peak_rss_mb"] = (counters.get("ingest.peak_rss_mb", 0.0), "MB")
    m["ingest.build_user_histories_s"] = (wall_s("ingest.build_user_histories"), "s")
    m["ingest.probe_tracebacks"] = (tracebacks, "count")
    m["cli.input_read_ratio"] = (run["read_bytes"] / meta["input_bytes"], "ratio")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    for name in ("score_users", "assign_groups", "group_stats"):
        m[f"profiling.{name}_s"] = (wall_s(f"profiling.{name}"), "s")
    m["profiling.scored_users"] = (counters.get("profiling.scored_users", 0), "count")
    m["split.split_histories_s"] = (wall_s("split.split_histories"), "s")
    m["split.users"] = (counters.get("split.users", 0), "count")
    m["split.test_events"] = (counters.get("split.test_events", 0), "count")
    m["recommend.build_recommenders_s"] = (wall_s("recommend.build_recommenders"), "s")
    m["recommend.top.build_s"] = (wall_s("recommend.top.build"), "s")
    m["recommend.cf.build_s"] = (wall_s("recommend.cf.build"), "s")
    for algo in ALGORITHMS:
        users = [(s[4] - s[3]) / 1e6 for s in named(f"recommend.{algo}.user")]
        tail = tail_percentile(len(users))
        m[f"recommend.{algo}.calls"] = (len(users), "count")
        m[f"recommend.{algo}.busy_s"] = (busy_s(f"recommend.{algo}.user"), "s")
        m[f"recommend.{algo}.user_p50_ms"] = (percentile(users, 50) if users else 0.0, "ms")
        m[f"recommend.{algo}.user_tail_ms"] = (percentile(users, tail) if tail else 0.0, "ms")
        m[f"recommend.{algo}.empty_lists"] = (counters.get(f"recommend.{algo}.empty_lists", 0), "count")
    for algo in ALGORITHMS:
        wall = wall_s(f"evaluation.{algo}")
        m[f"evaluation.{algo}.wall_s"] = (wall, "s")
        m[f"evaluation.{algo}.self_s"] = (self_s(f"evaluation.{algo}"), "s")
        m[f"evaluation.{algo}.busy_over_wall"] = (per(busy_s(f"recommend.{algo}.user"), wall, 1), "ratio")
    m["evaluation.emit_report_s"] = (wall_s("evaluation.emit_report"), "s")
    for kernel, work, unit in (("bll_sums", "events", "ns_per_event"), ("overlap_counts", "postings", "ns_per_posting")):
        busy = busy_s(f"kernels.{kernel}")
        amount = counters.get(f"kernels.{kernel}.{work}", 0)
        m[f"kernels.{kernel}.calls"] = (len(named(f"kernels.{kernel}")), "count")
        m[f"kernels.{kernel}.busy_s"] = (busy, "s")
        m[f"kernels.{kernel}.{work}"] = (amount, "count")
        m[f"kernels.{kernel}.{unit}"] = (per(busy, amount, 1e9), "ns")
    m["synth.generate_s"] = (meta["generate_s"], "s")
    m["synth.events_per_s"] = (meta["synth_events"] / meta["generate_s"], "1/s")
    m["trace.overhead_s"] = (run["cpu_s"] - untraced_cpu_s, "s")
    return m


def measure(workload, seed: int, seconds: float, trace: bool, min_runs: int = MIN_RUNS) -> dict:
    """One benchmark invocation on one workload; see the module docstring."""
    cores = usable_cores()
    if THREADS > cores:
        raise BenchError(f"refusing to launch {THREADS} threads on {cores} usable cores")
    input_seed = seed % INPUT_SEEDS
    recorded = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(str(input_seed))
    run_dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        t_start = time.monotonic()
        meta = generate_input(workload, input_seed, run_dir)
        expected = recorded
        runs = []
        deadline = time.monotonic() + seconds
        while len(runs) < min_runs or time.monotonic() < deadline:
            if runs and time.monotonic() - t_start + runs[-1]["run_s"] * (2 + trace) > INVOCATION_BUDGET_S:
                break
            runs.append(one_run(workload, meta, run_dir, expected))
            if expected is None and runs[-1]["error"] is None:
                expected = runs[-1]["digests"]
        traced = tracebacks = None
        if trace:
            traced = one_run(workload, meta, run_dir, expected, trace=True)
            if expected is None and traced["error"] is None:
                # No untraced run passed; the traced run must still agree with them.
                traced["error"] = "no untraced run to compare the traced outputs with"
            tracebacks = probe_tracebacks(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = runs + ([traced] if traced else [])
    failed = sum(r["error"] is not None for r in attempted)
    # Failed runs count against correctness; timings come from the runs that
    # passed, or else from those that at least completed.
    good = [r for r in runs if r["error"] is None] or [r for r in runs if "setup_s" in r]
    if not good:
        raise BenchError(f"{workload.name}: no run completed: {runs[0]['error']}")
    if trace and "trace" not in traced:
        raise BenchError(f"{workload.name}: the traced run did not complete: {traced['error']}")
    end_to_end = {
        name: {**summarize([r[name] for r in good]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    result = {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "ops_failed_frac": ops_failed_frac(failed, len(attempted)),
        "errors": [r["error"] for r in attempted if r["error"]],
        "env": {
            "workload": workload.name,
            "seed": seed,
            "input_seed": input_seed,
            "seconds": seconds,
            "kernel_backend": meta["kernel_backend"],
            "usable_cores": cores,
            "threads": THREADS,
            "python": meta["python"],
            "numpy": meta["numpy"],
            "input_bytes": meta["input_bytes"],
            "input_lines": meta["lines"],
            "corrupted_lines": meta["corrupted"],
            "events": meta["events"],
            "users": meta["users"],
            "artists": meta["artists"],
            "reference_digests": "recorded" if recorded else "unrecorded",
            "parent_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "end_to_end": end_to_end,
        "run_s_samples": [r["run_s"] for r in good],
        "setup_wall_s": summarize([r["setup_wall_s"] for r in good]),
        "digests": expected,
    }
    if trace:
        layers = layer_metrics(traced["trace"], traced, meta, end_to_end["cpu_s"]["median"], tracebacks)
        result["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        result["traced_run_s"] = traced["run_s"]
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for metric, s in result["end_to_end"].items():
        tail = (f"p{s['tail_p']:g}={_fmt(s['tail'])}" if s["tail_p"] is not None
                else "no tail percentile (needs >= 20 runs)")
        print(f"{name} {metric} = {_fmt(s['median'])} {s['unit']} (median of n={s['n']} runs; {tail})")
    print(f"{name} run_s samples: {' '.join(f'{v:.3f}' for v in result['run_s_samples'])}")
    print(f"{name} setup wall time (spawn until main) = {_fmt(result['setup_wall_s']['median'])} s (median)")
    print(f"{name} ops_failed_frac = {_fmt(result['ops_failed_frac'])} "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for error in result["errors"]:
        print(f"{name} failed run: {error}")
    layers = result.get("per_layer")
    if layers:
        traced_s = result["traced_run_s"]
        print(f"{name} per-layer metrics from one traced run of {_fmt(traced_s)} s:")
        for metric, v in layers.items():
            share = (f"  ({100 * v['value'] / traced_s:.1f}% of traced run)"
                     if v["unit"] == "s" and not metric.startswith(("synth.", "trace.")) else "")
            print(f"{name} {metric} = {_fmt(v['value'])} {v['unit']}{share}")


def end_to_end_metrics(result: dict) -> dict:
    return {name: {"value": s["median"], "unit": s["unit"]} for name, s in result["end_to_end"].items()}


def result_line(result: dict, trace: bool) -> str:
    metrics = result["per_layer"] if trace else end_to_end_metrics(result)
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def record_reference(workload, seed: int) -> None:
    """Run once and store the output digests for this workload and input seed.

    Refuses to replace digests already recorded: a change of outputs is
    what the gate exists to catch.
    """
    result = measure(workload, seed, 0, trace=False, min_runs=1)
    if not result["correct"]:
        raise BenchError(f"not recording a failed run: {result['errors']}")
    table = json.loads(REFERENCE.read_text())
    entries = table.setdefault(workload.name, {})
    input_seed = result["env"]["input_seed"]
    old = entries.get(str(input_seed))
    if old is not None and old != result["digests"]:
        raise BenchError(f"{workload.name} input seed {input_seed}: recorded digests differ from this run's")
    entries[str(input_seed)] = result["digests"]
    table[workload.name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{workload.name} input seed {input_seed}: {result['digests']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", help="with --workload all: trajectory file to add this point to")
    parser.add_argument("--label", default="", help="with --append: what this point measures")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the output digests for this workload and seed in reference.json")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn() so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (ROOT / "src" / "bllrec" / "cli.py").is_file():
            raise BenchError(f"no bllrec sources under {ROOT / 'src'}")
        if args.record_reference:
            if args.workload == "all":
                raise BenchError("--record-reference needs one workload")
            record_reference(WORKLOADS[args.workload], args.seed)
            return 0
        if args.workload != "all":
            result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
            print_report(result)
            print(result_line(result, bool(args.trace)))
            return 0
        results = {}
        for name, workload in WORKLOADS.items():
            results[name] = measure(workload, args.seed, args.seconds, trace=True)
            print_report(results[name])
        if args.append:
            append_point(Path(args.append), args, results)
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {name: end_to_end_metrics(r) for name, r in results.items()},
        }))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def append_point(path: Path, args, results: dict) -> None:
    trajectory = json.loads(path.read_text()) if path.exists() else {"points": []}
    trajectory["points"].append({
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {
            name: {key: r[key] for key in ("env", "end_to_end", "run_s_samples", "setup_wall_s", "per_layer", "attempted",
                                            "failed", "ops_failed_frac", "digests", "traced_run_s")}
            for name, r in results.items()
        },
    })
    path.write_text(json.dumps(trajectory, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())

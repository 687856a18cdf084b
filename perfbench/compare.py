"""Compare two points of the benchmark trajectory, workload by workload.

    python3 perfbench/compare.py perfbench/BENCH_pipeline.json            # last two points
    python3 perfbench/compare.py OLD.json NEW.json                        # last point of each

A point is what `run.py --workload all --append FILE` adds. Prints each
end-to-end metric's medians and change, flags a change beyond the bound
in BENCHMARK.json, then the per-layer metrics that moved by more than 5%.
Refuses (exit code 2) to compare points made under different kernel
backends or workload inputs, since their numbers measure different code
or different data.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAYER_NOTE = 0.05


def load_points(paths: list[str]) -> tuple[dict, dict]:
    if len(paths) == 1:
        points = json.loads(Path(paths[0]).read_text())["points"]
        if len(points) < 2:
            raise SystemExit(f"{paths[0]} holds fewer than two points")
        return points[-2], points[-1]
    old, new = (json.loads(Path(p).read_text())["points"][-1] for p in paths)
    return old, new


def refusal(old: dict, new: dict) -> str | None:
    for name in sorted(old["workloads"].keys() & new["workloads"].keys()):
        a, b = old["workloads"][name]["env"], new["workloads"][name]["env"]
        if a["kernel_backend"] != b["kernel_backend"]:
            return f"{name}: kernel backend {a['kernel_backend']} vs {b['kernel_backend']}"
        for key in ("input_seed", "input_bytes", "events", "users", "artists", "threads"):
            if a[key] != b[key]:
                return f"{name}: {key} {a[key]} vs {b[key]}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    old, new = load_points(argv)
    reason = refusal(old, new)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for name in sorted(old["workloads"].keys() & new["workloads"].keys()):
        a, b = old["workloads"][name], new["workloads"][name]
        print(f"== {name}  ({old.get('label') or 'old'} -> {new.get('label') or 'new'})")
        for metric, (bound, better) in bounds.items():
            x, y = a["end_to_end"][metric]["median"], b["end_to_end"][metric]["median"]
            change = (y - x) / x
            worse = change if better == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > bound else ""
            print(f"  {metric:<14} {x:12.6g} -> {y:12.6g}  {change:+7.1%}{flag}")
        for metric, old_value in a["per_layer"].items():
            x, y = old_value["value"], b["per_layer"].get(metric, {}).get("value")
            if y is None or x == y == 0:
                continue
            if x == 0 or abs(y - x) / abs(x) > LAYER_NOTE:
                change = f"{(y - x) / x:+7.1%}" if x else "    new"
                print(f"  {metric:<40} {x:12.6g} -> {y:12.6g}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

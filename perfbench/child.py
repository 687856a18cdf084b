"""Code that runs in the benchmark's child processes, one process per call.

    child.py gen --workload NAME --seed N --dir DIR
        Generate the workload's input file in DIR with bllrec.synth and
        print a JSON description of it (sizes, corrupted lines, versions).

    child.py run --report FILE [--trace FILE] -- <bllrec cli arguments>
        Import bllrec.cli from src/, note the moment main is entered and
        the CPU time this process has used by then, run main, and write
        the exit code, those two figures and the bytes this process read
        during main (from /proc/self/io) to the report file.
        With --trace, the layer spans of tracer.py are recorded and
        written to the trace file.

Input generation runs here rather than in run.py so that run.py stays
small: a child's peak RSS as reported by wait4 includes its parent's
high-water mark from before the exec.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Malformed lines that ingest skips under --on-error skip, by kind.
CORRUPTIONS = (
    lambda fields: fields[:-1],  # too few columns
    lambda fields: fields[:-1] + [fields[-1] + "x"],  # non-integer timestamp
    lambda fields: fields[:-1] + [f"-{int(fields[-1]) + 1}"],  # negative timestamp
)


def read_rchar() -> int:
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("rchar missing from /proc/self/io")


def generate(workload_name: str, seed: int, out_dir: Path) -> dict:
    import gzip
    import random

    import numpy as np

    from bllrec import _kernels
    from bllrec.ingest import write_events_tsv
    from bllrec.synth import SynthConfig, generate_synthetic
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    t0 = time.perf_counter()
    log = generate_synthetic(SynthConfig(seed=seed, **workload.synth))
    generate_s = time.perf_counter() - t0

    tsv = out_dir / "events.tsv"
    write_events_tsv(log, tsv)
    keep = np.ones(len(log), dtype=bool)
    path = tsv
    if workload.corrupt_rate or workload.gzip:
        lines = tsv.read_text(encoding="utf-8").splitlines(keepends=True)
        tsv.unlink()
        rng = random.Random(seed)
        kind = 0
        for i, line in enumerate(lines):
            if rng.random() < workload.corrupt_rate:
                fields = line.rstrip("\n").split("\t")
                lines[i] = "\t".join(CORRUPTIONS[kind % len(CORRUPTIONS)](fields)) + "\n"
                keep[i] = False
                kind += 1
        data = "".join(lines).encode("utf-8")
        if workload.gzip:
            path = out_dir / "events.tsv.gz"
            with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=6, mtime=0) as gz:
                gz.write(data)
        else:
            path.write_bytes(data)
    return {
        "path": str(path),
        "input_bytes": path.stat().st_size,
        "lines": len(log),
        "corrupted": int(len(log) - keep.sum()),
        "events": int(keep.sum()),
        "users": int(np.unique(log.users[keep]).size),
        "artists": int(np.unique(log.artists[keep]).size),
        "synth_events": len(log),
        "generate_s": generate_s,
        "kernel_backend": getattr(_kernels, "BACKEND_NAME", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def run(report_path: str, trace_path: str | None, argv: list[str]) -> int:
    from bllrec import cli

    t_main = time.monotonic_ns()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_main_s = usage.ru_utime + usage.ru_stime
    rchar0 = read_rchar()
    if trace_path is None:
        code = cli.main(argv)
    else:
        import tracer

        spans = tracer.Tracer()
        tracer.install(spans)
        code = spans.call("cli.main", cli.main, (argv,))
    read_bytes = read_rchar() - rchar0
    if trace_path is not None:
        spans.dump(trace_path, {"exit_code": code})
    report = {"exit_code": code, "t_main_ns": t_main, "cpu_main_s": cpu_main_s, "read_bytes": read_bytes}
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("gen")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("run")
    p.add_argument("--report", required=True)
    p.add_argument("--trace")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "gen":
        print(json.dumps(generate(args.workload, args.seed, Path(args.dir))))
        return 0
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    return run(args.report, args.trace, cli_args)


if __name__ == "__main__":
    sys.exit(main())

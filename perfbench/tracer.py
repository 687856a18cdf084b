"""In-memory spans around the public calls of each bllrec layer.

Used only in the traced child (see child.py). `install` replaces the
functions that the pipeline calls through module attributes with wrappers
that record a span per call; nothing under src/ is edited, and
`bllrec.cli.main` itself then runs the pipeline as shipped.

A span is (id, parent id, name, start ns, end ns, on-CPU ns of the calling
thread). Wall times give latencies and self times; on-CPU time gives
"busy" time, which under the interpreter lock differs from wall time
once the evaluation thread pool runs. Every span of one run shares the
run id written next to them.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import threading
import time


def read_hwm_mb() -> float:
    """This process's resident-memory high-water mark (VmHWM) in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Tracer:
    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> int | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def call(self, name: str, fn, args=(), kwargs=None, parent: int | None = None):
        """Run fn inside a span; parent defaults to this thread's open span."""
        if parent is None:
            parent = self.current()
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        cpu0 = time.thread_time_ns()
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter_ns()
            cpu1 = time.thread_time_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, t0, t1, cpu1 - cpu0))

    def wrap(self, name: str, fn, after=None):
        """A traced stand-in for fn; after(result, args, kwargs) records counters."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counters": self.counters, **extra}, handle)


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries that `bllrec.cli.cmd_run` goes through.

    cli.py binds its imports by name, so the pipeline's top-level calls are
    patched on `bllrec.cli`; calls made inside recommend.py go through the
    `recommend` and `_kernels` module attributes and are patched there.
    """
    from bllrec import _kernels, cli, recommend

    def after_load(result, args, kwargs):
        log, skipped = result
        tracer.add("ingest.events", len(log))
        tracer.add("ingest.skipped_lines", skipped)
        tracer.counters["ingest.peak_rss_mb"] = read_hwm_mb()

    def after_score(result, args, kwargs):
        tracer.add("profiling.scored_users", len(result))

    def after_split(result, args, kwargs):
        tracer.add("split.users", len(result.per_user))
        tracer.add("split.test_events", result.test_event_count())

    def after_bll(result, args, kwargs):
        tracer.add("kernels.bll_sums.events", len(args[0]))

    def after_overlap(result, args, kwargs):
        query, indptr = args[0], args[1]
        tracer.add("kernels.overlap_counts.postings", int((indptr[query + 1] - indptr[query]).sum()))

    for attr, name, after in (
        ("load_events", "ingest.load_events", after_load),
        ("build_user_histories", "ingest.build_user_histories", None),
        ("score_users", "profiling.score_users", after_score),
        ("assign_groups", "profiling.assign_groups", None),
        ("group_stats", "profiling.group_stats", None),
        ("split_histories", "split.split_histories", after_split),
        ("build_recommenders", "recommend.build_recommenders", None),
        ("emit_report", "evaluation.emit_report", None),
    ):
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), after))

    recommend.global_train_counts = tracer.wrap("recommend.top.build", recommend.global_train_counts)
    recommend.CfIndex.__init__ = tracer.wrap("recommend.cf.build", recommend.CfIndex.__init__)
    _kernels.bll_sums = tracer.wrap("kernels.bll_sums", _kernels.bll_sums, after_bll)
    _kernels.overlap_counts = tracer.wrap("kernels.overlap_counts", _kernels.overlap_counts, after_overlap)

    evaluate = cli.evaluate_algorithm
    signature = inspect.signature(evaluate)

    def traced_evaluate(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        algorithm = bound.arguments.get("algorithm", "")
        recommend_fn = bound.arguments["recommend_fn"]
        span_name = f"evaluation.{algorithm}"
        user_name = f"recommend.{algorithm}.user"
        parent_of_users = []

        # Per-user calls may run on pool threads, whose span stacks are
        # empty, so they name the evaluation span as parent explicitly.
        def traced_user(user, train, k):
            result = tracer.call(user_name, recommend_fn, (user, train, k), parent=parent_of_users[0])
            if not result.ranked:
                tracer.add(f"recommend.{algorithm}.empty_lists", 1)
            return result

        def run():
            parent_of_users.append(tracer.current())
            bound.arguments["recommend_fn"] = traced_user
            return evaluate(*bound.args, **bound.kwargs)

        return tracer.call(span_name, run)

    cli.evaluate_algorithm = traced_evaluate

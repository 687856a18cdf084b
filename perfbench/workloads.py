"""The benchmark's workloads: one synthetic input each, plus the `run` flags.

Every input comes from `bllrec.synth` with the workload seed, so the same
seed always gives the same bytes. Each workload exists to load one part
of the pipeline and to bypass another; the comment on each says which.
Sizes are scaled so that one `run` takes a few seconds on a 2-core box,
which leaves room for several runs (and a median) in one measurement
window.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # bllrec.synth.SynthConfig fields (the seed is added per run).
    synth: dict
    # Flags passed to `bllrec run` after --events/--out-dir/--threads.
    flags: tuple[str, ...]
    gzip: bool = False
    # Share of input lines replaced by malformed lines that ingest skips.
    corrupt_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's protocol in small form: all five algorithms over three
        # mainstreaminess groups. `top` re-sorts the global count table per
        # user and dominates, `cf` is second. Like every workload it runs on
        # one thread (run.THREADS).
        Workload(
            name="paper-protocol",
            why="all five algorithms over three groups; top then cf dominate",
            synth=dict(n_users=600, n_artists=10_000, events_per_user=(200, 400)),
            flags=("--group-size", "200", "--algo", "bll,cf,pop,time,top"),
        ),
        # Few users with long histories in plain TSV: ingest (per-line parsing
        # and id interning) and history building dominate, and bll_sums sees
        # the most events. `top` and `cf` are bypassed. Largest peak RSS, so
        # ingest memory shows here.
        Workload(
            name="long-histories",
            why="ingest-bound: long histories in plain TSV; top and cf bypassed",
            synth=dict(n_users=250, n_artists=3_000, events_per_user=(3_000, 5_000)),
            flags=("--group-size", "50", "--algo", "bll,pop,time"),
        ),
        # A wide long-tail catalogue through gzip with skipped malformed
        # lines: `cf` alone, where overlap counting over the inverted index
        # dominates and the per-user dense scan over the catalogue grows with
        # the artist count. Exercises the gzip reader and the skip path.
        Workload(
            name="longtail-cf",
            why="cf over a wide long-tail catalogue; gzip input with skipped bad lines",
            synth=dict(n_users=1_000, n_artists=400_000, zipf_exponent=0.6, reconsume_prob=0.5, events_per_user=(100, 200)),
            flags=("--group-size", "300", "--algo", "cf"),
            gzip=True,
            corrupt_rate=0.005,
        ),
    )
}

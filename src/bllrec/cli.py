"""Command-line entry point wiring ingest -> profile -> split -> evaluate -> report.

Subcommands: ingest, profile, stats, split, eval, synth, run. The run
subcommand executes the whole pipeline and writes groups.csv, stats.csv,
results.csv and a manifest.json that records the normalized config, the
input checksum and the package version, so a run is fully reproducible
from manifest plus input bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from ._kernels import BACKEND_NAME
from .errors import BllrecError, DataError, UsageError
from .ingest import (
    ColumnSchema,
    DEFAULT_SCHEMA_SPEC,
    EventLog,
    build_user_histories,
    load_events,
    write_events_tsv,
)
from .evaluation import emit_plot_data, emit_report, evaluate_algorithm
from .profiling import GROUP_NAMES, assign_groups, group_stats, score_users
from .recommend import ALGORITHMS, BllParams, CfParams, build_recommenders
from .split import split_histories
from .synth import DEFAULT_TIME_SPAN, SynthConfig, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Normalized pipeline configuration; defaults follow the evaluation protocol."""

    events: str | None = None
    schema: str = DEFAULT_SCHEMA_SPEC
    on_error: str = "skip"
    group_size: int = 1000
    min_events: int = 2
    fraction: float = 0.01
    k_max: int = 20
    bll_d: float = 0.5
    cf_neighbors: int = 20
    algorithms: tuple[str, ...] = ALGORITHMS
    threads: int = 1  # evaluation is serial; the key is accepted for old configs
    out_dir: str = "out"


def _to_int(key, value):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {value!r}") from None


def _to_float(key, value):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {value!r}") from None


def parse_algorithms(value) -> tuple[str, ...]:
    if isinstance(value, (tuple, list)):
        names = [str(v) for v in value]
    else:
        names = [part.strip() for part in str(value).split(",") if part.strip()]
    unknown = set(names) - set(ALGORITHMS)
    if unknown:
        raise UsageError(
            f"algorithms must be a subset of {{{','.join(ALGORITHMS)}}}, got {','.join(sorted(unknown))}"
        )
    if not names:
        raise UsageError("algorithms must not be empty")
    seen = []
    for name in names:
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def validate_config(raw: dict) -> RunConfig:
    """Range-check raw key/value pairs and fill defaults."""
    config = RunConfig()
    known = set(asdict(config))
    unknown = set(raw) - known
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    if "events" in raw and raw["events"] is not None:
        config.events = str(raw["events"])
    if "schema" in raw:
        ColumnSchema.parse(str(raw["schema"]))  # validates; raises UsageError
        config.schema = str(raw["schema"])
    if "on_error" in raw:
        value = str(raw["on_error"])
        if value not in ("skip", "fail"):
            raise UsageError(f"on_error must be 'skip' or 'fail', got {value!r}")
        config.on_error = value
    if "group_size" in raw:
        config.group_size = _to_int("group_size", raw["group_size"])
        if config.group_size < 1:
            raise UsageError("group_size must be >= 1")
    if "min_events" in raw:
        config.min_events = _to_int("min_events", raw["min_events"])
        if config.min_events < 1:
            raise UsageError("min_events must be >= 1")
    if "fraction" in raw:
        config.fraction = _to_float("fraction", raw["fraction"])
        if not 0.0 < config.fraction < 1.0:
            raise UsageError("fraction must be in (0,1)")
    if "k_max" in raw:
        config.k_max = _to_int("k_max", raw["k_max"])
        if config.k_max < 1:
            raise UsageError("k_max must be >= 1")
    if "bll_d" in raw:
        config.bll_d = _to_float("bll_d", raw["bll_d"])
        if not config.bll_d > 0:
            raise UsageError("bll_d must be > 0")
    if "cf_neighbors" in raw:
        config.cf_neighbors = _to_int("cf_neighbors", raw["cf_neighbors"])
        if config.cf_neighbors < 1:
            raise UsageError("cf_neighbors must be >= 1")
    if "algorithms" in raw:
        config.algorithms = parse_algorithms(raw["algorithms"])
    if "threads" in raw:
        config.threads = _to_int("threads", raw["threads"])
        if config.threads != 1:
            raise UsageError(f"threads must be 1 (evaluation runs on one thread), got {config.threads}")
    if "out_dir" in raw:
        config.out_dir = str(raw["out_dir"])
    return config


def read_config_file(path) -> dict[str, str]:
    """Plain-text key=value config; '#' starts a comment."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"config line {line_no}: expected key=value, got {line!r}")
            raw[key.strip()] = value.strip()
    return raw


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _load(config: RunConfig) -> tuple[EventLog, int]:
    if not config.events:
        raise UsageError("an events file is required (--events or config key 'events')")
    schema = ColumnSchema.parse(config.schema)
    return load_events(config.events, schema, on_error=config.on_error)


def _write_groups_csv(path, assignment, scores, id_maps) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["user_key", "score", "group"])
        for name, members in assignment.as_dict().items():
            for user in members:
                writer.writerow([id_maps.users.key_of(user), f"{scores[user]:.6f}", name])


def _read_groups_csv(path, id_maps) -> tuple[dict[str, list[int]], dict[int, float]]:
    groups: dict[str, list[int]] = {name: [] for name in GROUP_NAMES}
    scores: dict[int, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"user_key", "score", "group"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{path}: expected columns user_key,score,group")
        for row in reader:
            key = row["user_key"]
            if key not in id_maps.users:
                raise DataError(f"{path}: user key {key!r} not present in the events file")
            if row["group"] not in groups:
                raise DataError(f"{path}: unknown group {row['group']!r}")
            user = id_maps.users.id_of(key)
            groups[row["group"]].append(user)
            scores[user] = float(row["score"])
    if not scores:
        raise DataError(f"{path}: no group rows found")
    return groups, scores


def _write_stats_csv(path_or_handle, named_groups, histories, scores) -> None:
    own = isinstance(path_or_handle, (str, Path))
    handle = open(path_or_handle, "w", encoding="utf-8", newline="") if own else path_or_handle
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["group", "users", "artists", "events", "avg_artists_per_user", "avg_mainstreaminess"]
        )
        for name, members in named_groups.items():
            stats = group_stats(members, histories, scores)
            writer.writerow(
                [
                    name,
                    stats.users,
                    stats.distinct_artists,
                    stats.listening_events,
                    f"{stats.avg_artists_per_user:.6f}",
                    f"{stats.avg_mainstreaminess:.6f}",
                ]
            )
    finally:
        if own:
            handle.close()


def _evaluate_groups(split, named_groups, config: RunConfig, n_artists: int):
    train_histories = {u: s.train for u, s in split.per_user.items()}
    recommenders = build_recommenders(
        train_histories,
        algorithms=config.algorithms,
        bll_params=BllParams(d=config.bll_d),
        cf_params=CfParams(neighborhood_size=config.cf_neighbors),
        n_artists=n_artists,
    )
    reports = []
    for algorithm in config.algorithms:
        for group_name, members in named_groups.items():
            reports.append(
                evaluate_algorithm(
                    split,
                    recommenders[algorithm],
                    members,
                    config.k_max,
                    algorithm=algorithm,
                    group=group_name,
                )
            )
    return reports


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _config_from_args(args) -> RunConfig:
    """Config file values (``run`` only), overridden by every config flag the subcommand set."""
    raw = {}
    if getattr(args, "config", None):
        raw.update(read_config_file(args.config))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            raw[f.name] = value
    config = validate_config(raw)
    if "out_dir" not in raw and os.environ.get("BLLREC_OUT_DIR"):
        config.out_dir = os.environ["BLLREC_OUT_DIR"]
    return config


def cmd_ingest(args) -> int:
    config = _config_from_args(args)
    log, skipped = _load(config)
    print(f"events={len(log)}")
    print(f"users={len(log.id_maps.users)}")
    print(f"artists={len(log.id_maps.artists)}")
    print(f"skipped={skipped}")
    return EXIT_OK


def cmd_profile(args) -> int:
    config = _config_from_args(args)
    log, _ = _load(config)
    histories = build_user_histories(log)
    scores = score_users(histories, min_events=config.min_events)
    assignment = assign_groups(scores, config.group_size)
    _write_groups_csv(args.out, assignment, scores, log.id_maps)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    config = _config_from_args(args)
    log, _ = _load(config)
    histories = build_user_histories(log)
    named_groups, scores = _read_groups_csv(args.groups, log.id_maps)
    if args.out:
        _write_stats_csv(args.out, named_groups, histories, scores)
        print(f"wrote {args.out}")
    else:
        _write_stats_csv(sys.stdout, named_groups, histories, scores)
    return EXIT_OK


def cmd_split(args) -> int:
    config = _config_from_args(args)
    log, _ = _load(config)
    histories = build_user_histories(log)
    eligible = [u for u, h in histories.items() if h.n_events >= config.min_events]
    split = split_histories(histories, config.fraction, users=eligible)
    if args.groups:
        named_groups, _ = _read_groups_csv(args.groups, log.id_maps)
    else:
        named_groups = {"ALL": sorted(split.per_user)}
    for name, members in named_groups.items():
        count = split.test_event_count(members)
        evaluable = sum(1 for u in members if u in split.per_user)
        print(f"group={name} users={evaluable} test_events={count}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["user_key", "n_train", "n_test"])
            for user in sorted(split.per_user):
                user_split = split.per_user[user]
                writer.writerow(
                    [log.id_maps.users.key_of(user), user_split.train.n_events, user_split.test.n_events]
                )
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _config_from_args(args)
    log, _ = _load(config)
    histories = build_user_histories(log)
    named_groups, _ = _read_groups_csv(args.groups, log.id_maps)
    eligible = [u for u, h in histories.items() if h.n_events >= config.min_events]
    split = split_histories(histories, config.fraction, users=eligible)
    reports = _evaluate_groups(split, named_groups, config, len(log.id_maps.artists))
    emit_report(reports, args.out)
    print(f"wrote {args.out}")
    if args.plot_data:
        for path in emit_plot_data(reports, args.plot_data):
            print(f"wrote {path}")
    return EXIT_OK


def _parse_event_range(value: str) -> tuple[int, int]:
    lo, sep, hi = str(value).partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(lo), int(lo)
    except ValueError:
        raise UsageError(f"events range must look like 200..400, got {value!r}") from None


def cmd_synth(args) -> int:
    config = SynthConfig(
        n_users=args.users,
        n_artists=args.artists,
        events_per_user=_parse_event_range(args.events),
        zipf_exponent=args.zipf,
        reconsume_prob=args.reconsume,
        recency_bias=args.recency,
        time_span=args.time_span,
        seed=args.seed,
    )
    config.validate()
    log = generate_synthetic(config)
    write_events_tsv(log, args.out)
    print(f"wrote {args.out} ({len(log)} events, {len(log.id_maps.users)} users, "
          f"{len(log.id_maps.artists)} artists)")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _config_from_args(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stage = "ingest"
    try:
        log, skipped = _load(config)

        stage = "profile"
        histories = build_user_histories(log)
        scores = score_users(histories, min_events=config.min_events)
        assignment = assign_groups(scores, config.group_size)
        named_groups = assignment.as_dict()

        stage = "split"
        split = split_histories(histories, config.fraction, users=scores.keys())
        for name, members in named_groups.items():
            print(f"group={name} test_events={split.test_event_count(members)}")

        stage = "evaluate"
        reports = _evaluate_groups(split, named_groups, config, len(log.id_maps.artists))

        stage = "report"
        groups_path = out_dir / "groups.csv"
        _write_groups_csv(groups_path, assignment, scores, log.id_maps)
        written.append(groups_path)

        stats_path = out_dir / "stats.csv"
        _write_stats_csv(stats_path, named_groups, histories, scores)
        written.append(stats_path)

        results_path = out_dir / "results.csv"
        emit_report(reports, results_path)
        written.append(results_path)

        if getattr(args, "plot_data", False):
            written.extend(emit_plot_data(reports, out_dir / "curves"))

        manifest = {
            "version": __version__,
            "kernel_backend": BACKEND_NAME,
            "config": {**asdict(config), "algorithms": list(config.algorithms)},
            "input": {
                "path": str(config.events),
                "sha256": _sha256_file(config.events),
            },
            "skipped_lines": skipped,
            "dropped_users": split.dropped,
            "outputs": [p.name for p in written],
        }
        manifest_path = out_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(manifest_path)
    except (BllrecError, OSError) as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        if isinstance(exc, BllrecError):
            raise type(exc)(f"{stage}: {exc}") from exc
        raise
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_input_flags(parser, with_min_events=False):
    parser.add_argument("--events", help="listening-events TSV file (.gz supported)")
    parser.add_argument("--schema", help=f"column layout, default {DEFAULT_SCHEMA_SPEC}")
    parser.add_argument("--on-error", dest="on_error", choices=("skip", "fail"),
                        help="malformed-line policy (default skip)")
    if with_min_events:
        parser.add_argument("--min-events", dest="min_events", type=int,
                            help="minimum events per scored user (default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bllrec", description="Time-aware music artist preference modeling and evaluation.")
    parser.add_argument("--version", action="version", version=f"bllrec {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", parents=[], help="parse an events file and print summary counts")
    _add_input_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("profile", help="score mainstreaminess and assign user groups")
    _add_input_flags(p, with_min_events=True)
    p.add_argument("--group-size", dest="group_size", type=int, help="users per group (default 1000)")
    p.add_argument("--out", default="groups.csv", help="output CSV (user_key,score,group)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("stats", help="per-group dataset statistics from a groups CSV")
    _add_input_flags(p)
    p.add_argument("--groups", required=True, help="groups.csv from the profile subcommand")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="time-based train/test split summary")
    _add_input_flags(p, with_min_events=True)
    p.add_argument("--fraction", type=float, help="test fraction per user (default 0.01)")
    p.add_argument("--groups", help="optional groups.csv for per-group counts")
    p.add_argument("--out", help="optional split manifest CSV (user_key,n_train,n_test)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("eval", help="evaluate recommenders over the groups")
    _add_input_flags(p, with_min_events=True)
    p.add_argument("--groups", required=True, help="groups.csv from the profile subcommand")
    p.add_argument("--fraction", type=float, help="test fraction per user (default 0.01)")
    p.add_argument("--algo", dest="algorithms", help="comma-separated subset of bll,cf,pop,time,top")
    p.add_argument("--k-max", dest="k_max", type=int, help="largest list length k (default 20)")
    p.add_argument("--bll-d", dest="bll_d", type=float, help="decay exponent (default 0.5)")
    p.add_argument("--cf-neighbors", dest="cf_neighbors", type=int, help="neighborhood size (default 20)")
    p.add_argument("--out", default="results.csv", help="output CSV")
    p.add_argument("--plot-data", dest="plot_data", help="directory for per-curve recall,precision files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a deterministic synthetic events TSV")
    p.add_argument("--users", type=int, default=500)
    p.add_argument("--artists", type=int, default=2000)
    p.add_argument("--events", default="200..400", help="events per user, lo..hi")
    p.add_argument("--zipf", type=float, default=1.1, help="global popularity skew exponent")
    p.add_argument("--reconsume", type=float, default=0.7, help="probability an event repeats a past artist")
    p.add_argument("--recency", type=float, default=0.8, help="power-law bias toward recent repeats")
    p.add_argument("--time-span", dest="time_span", type=int, default=DEFAULT_TIME_SPAN,
                   help="timestamp range in seconds")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="full pipeline: ingest, profile, split, evaluate, report")
    _add_input_flags(p, with_min_events=True)
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--group-size", dest="group_size", type=int)
    p.add_argument("--fraction", type=float)
    p.add_argument("--algo", dest="algorithms", help="comma-separated subset of bll,cf,pop,time,top")
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--bll-d", dest="bll_d", type=float)
    p.add_argument("--cf-neighbors", dest="cf_neighbors", type=int)
    p.add_argument("--threads", type=int, help="must be 1; evaluation runs on one thread")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default: out)")
    p.add_argument("--plot-data", dest="plot_data", action="store_true",
                   help="also write per-curve files under <out-dir>/curves")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

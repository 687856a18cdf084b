"""Command-line entry point wiring ingest -> profile -> split -> evaluate -> report.

Subcommands: ingest, profile, stats, split, eval, synth, run. All but
synth run ``run_stages`` up to the stage they need. The run subcommand
executes the whole pipeline and writes groups.csv, stats.csv,
results.csv and a manifest.json that records the normalized config, the
input checksum and the package version, so a run is fully reproducible
from manifest plus input bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

# The pipeline calls no BLAS; an OpenBLAS worker would only spin at numpy's import. Must precede it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from ._kernels import BACKEND_NAME
from .errors import BllrecError, DataError, UsageError
from .ingest import (
    ColumnSchema,
    EventLog,
    UserHistories,
    build_user_histories,
    load_events,
    write_events_tsv,
)
from .evaluation import EvalReport, evaluate_algorithm
from .profiling import GROUP_NAMES, GroupStats, assign_groups, eligible_users, group_stats, score_users
from .recommend import ALGORITHMS, build_recommenders
from .split import SplitDataset, split_histories
from .synth import SynthConfig, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

MAX_K = 1000
"""The largest ``k_max``. One evaluation call builds users x k_max matrices (the
ranked artist ids, their keys, the cumulative hits), so this bounds each to 8 KB
per user while the call runs; a report keeps only its k_max points."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


def _checked(kind: type, ok, rule: str):
    """A config value parser ``(key, value) -> kind(value)`` that accepts only values for which ``ok`` holds.

    A value ``kind`` cannot convert, or one ``ok`` rejects, raises
    ``UsageError("<key> must <what>, got <value>")`` with ``value`` as given.
    """

    def parse(key, value):
        try:
            parsed = kind(value)
        except (TypeError, ValueError):
            raise UsageError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from None
        if not ok(parsed):
            raise UsageError(f"{key} must {rule}, got {value!r}")
        return parsed

    return parse


def _schema(key, value) -> str:
    try:
        ColumnSchema.parse(str(value))
    except UsageError as exc:
        raise UsageError(f"{exc}, got {value!r}") from None
    return str(value)


def parse_algorithms(key, value) -> tuple[str, ...]:
    names = [part.strip() for part in str(value).split(",") if part.strip()]
    if set(names) - set(ALGORITHMS):
        raise UsageError(f"{key} must be a subset of {{{','.join(ALGORITHMS)}}}, got {value!r}")
    if not names:
        raise UsageError(f"{key} must not be empty, got {value!r}")
    return tuple(dict.fromkeys(names))


_POSITIVE = _checked(int, lambda n: n >= 1, "be >= 1")


def _option(default, flag: str, text: str, parse):
    """A RunConfig field: its default, and the flag, help text and parser ``(key, value)`` of its option.

    A config file value and a flag go through the same parser.
    """
    return field(default=default, metadata={"flag": flag, "help": text, "parse": parse})


@dataclass
class RunConfig:
    """Normalized pipeline configuration; defaults follow the evaluation protocol.

    These are the protocol's only defaults: the library functions take
    each of these values from their caller. Each field is one option, a
    config file key and a flag alike.
    """

    events: str | None = _option(None, "--events", "listening-events TSV file (.gz supported)",
                                 lambda key, value: None if value is None else str(value))
    # The LFM-1b layout, which write_events_tsv writes.
    schema: str = _option("user=0,artist=1,ts=4", "--schema", "column layout", _schema)
    on_error: str = _option("skip", "--on-error", "malformed-line policy, skip or fail",
                            _checked(str, lambda v: v in ("skip", "fail"), "be 'skip' or 'fail'"))
    group_size: int = _option(1000, "--group-size", "users per group", _POSITIVE)
    min_events: int = _option(2, "--min-events", "minimum events per scored user", _POSITIVE)
    fraction: float = _option(0.01, "--fraction", "test fraction per user",
                              _checked(float, lambda x: 0.0 < x < 1.0, "be in (0,1)"))
    k_max: int = _option(20, "--k-max", "largest list length k",
                         _checked(int, lambda n: 1 <= n <= MAX_K, f"be in 1..{MAX_K}"))
    bll_d: float = _option(0.5, "--bll-d", "decay exponent",
                           _checked(float, lambda x: 0 < x < math.inf, "be finite and > 0"))
    cf_neighbors: int = _option(20, "--cf-neighbors", "neighborhood size", _POSITIVE)
    algorithms: tuple[str, ...] = _option(ALGORITHMS, "--algo", f"comma-separated subset of {','.join(ALGORITHMS)}",
                                          parse_algorithms)
    # Evaluation is serial; the key is accepted for old configs.
    threads: int = _option(1, "--threads", "must be 1; evaluation runs on one thread",
                           _checked(int, lambda n: n == 1, "be 1 (evaluation runs on one thread)"))
    out_dir: str = _option("out", "--out-dir", "output directory", _checked(str, bool, "not be empty"))


def validate_config(raw: dict) -> RunConfig:
    """The RunConfig of raw key/value pairs, with defaults for the keys not given.

    Each value goes through its field's parser, so a config file value and a
    flag are checked alike. An unknown key, or a value its parser rejects,
    raises ``UsageError``.
    """
    parsers = {option.name: option.metadata["parse"] for option in fields(RunConfig)}
    unknown = set(raw) - set(parsers)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return RunConfig(**{key: parse(key, raw[key]) for key, parse in parsers.items() if key in raw})


def _read_utf8(path, error: type[BllrecError]) -> str:
    """The file's text; bytes that are not UTF-8 raise ``error`` naming the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line_no}: not valid UTF-8") from None


_COMMENT = re.compile(r"(?:^|\s)#.*")


def read_config_file(path) -> dict[str, str]:
    """Plain-text key=value config; '#' starts a comment at the start of a line or after whitespace.

    So ``events=a#1.tsv`` names that file, and ``k_max=5  # note`` sets 5.
    """
    raw: dict[str, str] = {}
    for line_no, line in enumerate(_read_utf8(path, UsageError).splitlines(), start=1):
        line = _COMMENT.sub("", line, count=1).strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"config line {line_no}: expected key=value, got {line!r}")
        if key in raw:
            raise UsageError(f"config line {line_no}: key {key!r} is set twice")
        raw[key] = value.strip()
    return raw


def _read_groups_csv(path, id_maps) -> dict[str, np.ndarray]:
    """Each group's members as an ascending id array, keyed by ``GROUP_NAMES``; each score is checked, not kept."""
    groups: dict[str, list[int]] = {name: [] for name in GROUP_NAMES}
    listed: set[int] = set()
    ids = {key: user for user, key in enumerate(id_maps.users.keys())}
    reader = csv.DictReader(io.StringIO(_read_utf8(path, DataError), newline=""))
    required = {"user_key", "score", "group"}
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{path}: expected columns user_key,score,group")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            key = row["user_key"]
            user = ids.get(key)
            if user is None:
                raise DataError(f"{where}: user key {key!r} not present in the events file")
            if row["group"] not in groups:
                raise DataError(f"{where}: unknown group {row['group']!r}")
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                raise DataError(f"{where}: score {row['score']!r} is not a number") from None
            if not math.isfinite(score):
                raise DataError(f"{where}: score {row['score']!r} is not finite")
            if user in listed:
                raise DataError(f"{where}: user key {key!r} is listed twice")
            groups[row["group"]].append(user)
            listed.add(user)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit(), from a stray '"'
        # reader.line_num is the last line of the last whole record; the bad one starts after it.
        raise DataError(f"{path} line {reader.line_num + 1}: {exc}") from None
    if not listed:
        raise DataError(f"{path}: no group rows found")
    return {name: np.sort(np.array(members, dtype=np.int64)) for name, members in groups.items()}


@dataclass
class Staged:
    """What the stages of one ``run_stages`` call produced; the fields of stages not run stay None."""

    log: EventLog
    skipped: int
    histories: UserHistories | None = None  # the built table, dropped when evaluation starts
    groups: dict[str, np.ndarray] | None = None  # each group's ascending user ids
    scores: np.ndarray | None = None  # float64 per user id, NaN for an unscored user
    stats: dict[str, GroupStats] | None = None
    split: SplitDataset | None = None
    reports: list[EvalReport] | None = None


def run_stages(config: RunConfig, until: str, groups_csv=None, stats: bool = False) -> Staged:
    """Run ingest -> profile -> split -> evaluate, stopping after the stage named ``until``; write nothing.

    The groups come from ``groups_csv`` when given, else from scoring, which a
    split summary without a groups file skips. ``stats`` adds each group's
    statistics to the profile stage. A ``BllrecError`` is re-raised prefixed
    with the name of the stage it came from.
    """
    stage = "ingest"
    try:
        if not config.events:
            raise UsageError("an events file is required (--events or config key 'events')")
        # A regular file grouped by user is reduced to the history table as it is read, whatever the stage.
        log, skipped = load_events(config.events, ColumnSchema.parse(config.schema), config.on_error,
                                   (config.fraction, config.bll_d))
        out = Staged(log, skipped)
        if until == stage:
            return out

        stage = "profile"
        out.histories = build_user_histories(log, config.fraction, config.bll_d)
        if groups_csv is not None:
            out.groups = _read_groups_csv(groups_csv, log.id_maps)
        elif until != "split":
            out.scores = score_users(out.histories, min_events=config.min_events)
            out.groups = assign_groups(out.scores, config.group_size)
        if stats:
            if out.scores is None:  # a file's members may be below min_events, and no score depends on it
                out.scores = score_users(out.histories, min_events=1)
            out.stats = {name: group_stats(users, out.histories, out.scores) for name, users in out.groups.items()}
        if until == stage:
            return out

        stage = "split"
        users = eligible_users(out.histories, config.min_events)
        if not len(users):
            raise DataError(f"no user has at least {config.min_events} events (min_events={config.min_events})")
        out.split = split_histories(out.histories, users)
        if until == stage:
            return out

        stage = "evaluate"
        out.histories = None  # only the split reads the built table
        recommenders = build_recommenders(out.split.train, config.algorithms, config.cf_neighbors)
        out.reports = [
            evaluate_algorithm(
                out.split, recommenders[algorithm], members, config.k_max, algorithm=algorithm, group=group_name
            )
            for algorithm in config.algorithms
            for group_name, members in out.groups.items()
        ]
        return out
    except BllrecError as exc:
        raise type(exc)(f"{stage}: {exc}") from exc


def _groups_rows(out: Staged) -> list[list]:
    rows = [["user_key", "score", "group"]]
    keys = out.log.id_maps.users.keys()
    for name, members in out.groups.items():
        scores = out.scores[members].tolist()
        rows.extend([keys[user], f"{score:.6f}", name] for user, score in zip(members.tolist(), scores))
    return rows


def _stats_rows(out: Staged) -> list[list]:
    rows = [["group", "users", "artists", "events", "avg_artists_per_user", "avg_mainstreaminess"]]
    for name, stats in out.stats.items():
        rows.append(
            [
                name,
                stats.users,
                stats.distinct_artists,
                stats.listening_events,
                f"{stats.avg_artists_per_user:.6f}",
                f"{stats.avg_mainstreaminess:.6f}",
            ]
        )
    return rows


def _write_csv(path, rows) -> None:
    """Write ``rows`` to the CSV file ``path``, or to stdout when ``path`` is None."""
    if path is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def emit_report(reports: list[EvalReport], path) -> None:
    """Write `algorithm,group,k,recall,precision,users` rows, sorted, 6 decimals."""
    if not reports:
        raise DataError("no reports to emit")
    rows = [
        [report.algorithm, report.group, k, f"{recall:.6f}", f"{precision:.6f}", report.users_evaluated]
        for report in reports
        for k, (recall, precision) in enumerate(report.points, start=1)
    ]
    rows.sort(key=lambda row: row[:3])
    _write_csv(path, [["algorithm", "group", "k", "recall", "precision", "users"], *rows])


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
    return validate_config(raw)


def cmd_ingest(args) -> int:
    out = run_stages(_config_from_args(args), "ingest")
    print(f"events={len(out.log)}")
    print(f"users={len(out.log.id_maps.users)}")
    print(f"artists={len(out.log.id_maps.artists)}")
    print(f"skipped={out.skipped}")
    return EXIT_OK


def cmd_profile(args) -> int:
    out = run_stages(_config_from_args(args), "profile")
    _write_csv(args.out, _groups_rows(out))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    out = run_stages(_config_from_args(args), "profile", groups_csv=args.groups, stats=True)
    _write_csv(args.out, _stats_rows(out))
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_split(args) -> int:
    out = run_stages(_config_from_args(args), "split", groups_csv=args.groups)
    train_events = out.split.train.n_events
    for name, members in (out.groups or {"ALL": out.split.per_user}).items():
        count = out.split.test_event_count(members)
        evaluable = int((train_events[members] > 0).sum())
        print(f"group={name} users={evaluable} test_events={count}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = run_stages(_config_from_args(args), "evaluate", groups_csv=args.groups)
    emit_report(out.reports, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_event_range(value: str) -> tuple[int, int]:
    lo, sep, hi = value.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"events range must look like 200..400, got {value!r}") from None


def cmd_synth(args) -> int:
    try:
        log = generate_synthetic(SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)}))
    except DataError as exc:  # from SynthConfig.validate: a flag out of range
        raise UsageError(str(exc)) from None
    write_events_tsv(log, args.out)
    print(f"wrote {args.out} ({len(log)} events, {len(log.id_maps.users)} users, "
          f"{len(log.id_maps.artists)} artists)")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _config_from_args(args)
    out = run_stages(config, "evaluate", stats=True)
    for name, members in out.groups.items():
        print(f"group={name} test_events={out.split.test_event_count(members)}")
    tables = {"groups.csv": _groups_rows(out), "stats.csv": _stats_rows(out)}
    manifest = {
        "version": __version__,
        "kernel_backend": BACKEND_NAME,
        "config": {**asdict(config), "algorithms": list(config.algorithms)},
        "input": {
            "path": str(config.events),
            "sha256": out.log.sha256,
        },
        "skipped_lines": out.skipped,
        "dropped_users": out.split.dropped,
        "outputs": [*tables, "results.csv"],
    }

    out_dir = Path(config.out_dir)
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # Each path joins written before its write, so a write that fails is removed too.
        for name, rows in tables.items():
            written.append(out_dir / name)
            _write_csv(written[-1], rows)
        written.append(out_dir / "results.csv")
        emit_report(out.reports, written[-1])
        written.append(out_dir / "manifest.json")
        written[-1].write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    except OSError:
        for path in written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        raise
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


_INPUT_FLAGS = ("events", "schema", "on_error")


def _add_config_flags(parser, *names) -> None:
    options = {option.name: option for option in fields(RunConfig)}
    for name in names:
        option = options[name]
        text, default = option.metadata["help"], option.default
        if default is not None:
            text += f" (default {','.join(default) if isinstance(default, tuple) else default})"
        parser.add_argument(option.metadata["flag"], dest=name, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bllrec", description="Time-aware music artist preference modeling and evaluation.")
    parser.add_argument("--version", action="version", version=f"bllrec {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="parse an events file and print summary counts")
    _add_config_flags(p, *_INPUT_FLAGS)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("profile", help="score mainstreaminess and assign user groups")
    _add_config_flags(p, *_INPUT_FLAGS, "min_events", "group_size")
    p.add_argument("--out", default="groups.csv", help="output CSV (user_key,score,group)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("stats", help="per-group dataset statistics from a groups CSV")
    _add_config_flags(p, *_INPUT_FLAGS)
    p.add_argument("--groups", required=True, help="groups.csv from the profile subcommand")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="time-based train/test split summary")
    _add_config_flags(p, *_INPUT_FLAGS, "min_events", "fraction")
    p.add_argument("--groups", help="optional groups.csv for per-group counts")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("eval", help="evaluate recommenders over the groups")
    _add_config_flags(p, *_INPUT_FLAGS, "min_events", "fraction", "algorithms", "k_max", "bll_d", "cf_neighbors")
    p.add_argument("--groups", required=True, help="groups.csv from the profile subcommand")
    p.add_argument("--out", default="results.csv", help="output CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a deterministic synthetic events TSV")
    for flag, field, kind, text in (
        ("--users", "n_users", int, None),
        ("--artists", "n_artists", int, None),
        ("--events", "events_per_user", _parse_event_range, "events per user, lo..hi"),
        ("--zipf", "zipf_exponent", float, "global popularity skew exponent"),
        ("--reconsume", "reconsume_prob", float, "probability an event repeats a past artist"),
        ("--recency", "recency_bias", float, "power-law bias toward recent repeats"),
        ("--time-span", "time_span", int, "timestamp range in seconds"),
        ("--seed", "seed", int, None),
    ):
        p.add_argument(flag, dest=field, type=kind, default=getattr(SynthConfig, field), help=text,
                       metavar=flag[2:].upper().replace("-", "_"))
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="full pipeline: ingest, profile, split, evaluate, report")
    _add_config_flags(p, *_INPUT_FLAGS, "min_events", "group_size", "fraction", "algorithms", "k_max", "bll_d",
                      "cf_neighbors", "threads", "out_dir")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except SystemExit as exc:  # --help / --version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
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

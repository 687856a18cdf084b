import builtins
import errno
import gzip
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from bllrec import cli
from bllrec.cli import MAX_K, main, validate_config
from bllrec.errors import UsageError
from bllrec.evaluation import evaluate_algorithm
from bllrec.ingest import build_user_histories, load_events, write_events_tsv
from bllrec.profiling import eligible_users
from bllrec.recommend import CfIndex, recommend_bll
from bllrec.split import split_histories
from bllrec.synth import SynthConfig, generate_synthetic

from conftest import LFM_SCHEMA, PROTOCOL

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def synth_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.tsv"
    code = main(
        [
            "synth",
            "--users", "60",
            "--artists", "120",
            "--events", "20..40",
            "--zipf", "1.1",
            "--reconsume", "0.7",
            "--recency", "0.8",
            "--seed", "42",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestValidateConfig:
    def test_defaults_follow_protocol(self):
        config = validate_config({})
        assert config.group_size == 1000
        assert config.fraction == 0.01
        assert config.k_max == 20
        assert config.bll_d == 0.5
        assert config.cf_neighbors == 20
        assert config.min_events == 2
        assert set(config.algorithms) == {"bll", "cf", "pop", "time", "top"}

    def test_fraction_out_of_range(self):
        with pytest.raises(UsageError, match=r"fraction must be in \(0,1\)"):
            validate_config({"fraction": "1.5"})

    def test_group_size_zero(self):
        with pytest.raises(UsageError, match="group_size"):
            validate_config({"group_size": 0})

    def test_unknown_key(self):
        for key in ("grop_size", "seed"):
            with pytest.raises(UsageError, match="unknown config key"):
                validate_config({key: 3})

    def test_every_run_config_field_has_one_config_key(self, capsys):
        # Each field declares its option, so run takes every field as a flag.
        assert main(["run", "--help"]) == 0
        usage = capsys.readouterr().out
        for option in fields(cli.RunConfig):
            assert f" {option.metadata['flag']} " in usage

    def test_every_default_written_to_a_config_file_parses_back(self, tmp_path):
        # events defaults to None, which a file says by leaving the key out.
        written = {
            option.name: ",".join(option.default) if isinstance(option.default, tuple) else str(option.default)
            for option in fields(cli.RunConfig)
            if option.default is not None
        }
        assert set(written) == {option.name for option in fields(cli.RunConfig)} - {"events"}
        config = tmp_path / "defaults.cfg"
        config.write_text("".join(f"{key}={value}\n" for key, value in written.items()))
        assert validate_config(cli.read_config_file(config)) == cli.RunConfig()

    def test_algorithm_subset(self):
        assert validate_config({"algorithms": "bll,cf"}).algorithms == ("bll", "cf")
        with pytest.raises(UsageError):
            validate_config({"algorithms": "bll,magic"})


class TestSubcommands:
    @pytest.mark.parametrize(
        "flag",
        [
            ["--users", "0"],
            ["--events", "5..2"],
            ["--zipf", "0"],
            ["--time-span", "0"],
            ["--time-span", "100000000000000000000"],
            ["--artists", "100000000000"],
            ["--events", "3..100000000000"],
        ],
        ids=["users", "events", "zipf", "time-span", "time-span-over-int64", "artists-over-int32", "events-too-many"],
    )
    def test_bad_synth_flag_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "x.tsv"
        assert main(["synth", *flag, "--out", str(out)]) == 1
        assert "usage error: " in capsys.readouterr().err
        assert not out.exists()

    def test_synth_flags_map_onto_synth_config(self):
        def config(*flags):
            args = cli.build_parser().parse_args(["synth", *flags, "--out", "x"])
            return SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})

        assert config() == SynthConfig()
        assert config(
            "--users", "7", "--artists", "9", "--events", "3..5", "--zipf", "1.5", "--reconsume", "0.25",
            "--recency", "2", "--time-span", "1000", "--seed", "3",
        ) == SynthConfig(7, 9, (3, 5), 1.5, 0.25, 2.0, 1000, 3)

    def test_ingest_summary(self, synth_tsv, capsys):
        assert main(["ingest", "--events", str(synth_tsv)]) == 0
        out = capsys.readouterr().out
        assert "users=60" in out and "skipped=0" in out

    def test_profile_stats_split_eval_chain(self, synth_tsv, tmp_path, capsys):
        groups = tmp_path / "groups.csv"
        assert main(
            ["profile", "--events", str(synth_tsv), "--group-size", "20", "--out", str(groups)]
        ) == 0
        lines = groups.read_text().splitlines()
        assert lines[0] == "user_key,score,group"
        assert len(lines) == 1 + 60  # every user grouped when 3 * G == n

        stats = tmp_path / "stats.csv"
        assert main(
            ["stats", "--events", str(synth_tsv), "--groups", str(groups), "--out", str(stats)]
        ) == 0
        stats_lines = stats.read_text().splitlines()
        assert stats_lines[0].startswith("group,users,artists,events")
        assert len(stats_lines) == 4
        assert all(line.split(",")[1] == "20" for line in stats_lines[1:])

        capsys.readouterr()
        assert main(
            ["split", "--events", str(synth_tsv), "--fraction", "0.1", "--groups", str(groups)]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in out] == [
            [f"group={name}", "users=20"] for name in ("LowMS", "MedMS", "HighMS")
        ]
        assert all(line.split()[2].startswith("test_events=") for line in out)

        results = tmp_path / "results.csv"
        assert main(
            [
                "eval", "--events", str(synth_tsv), "--groups", str(groups),
                "--algo", "bll,pop", "--k-max", "5", "--out", str(results),
            ]
        ) == 0
        lines = results.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3 * 5

    def test_schema_reaches_ingest(self, synth_tsv, tmp_path, capsys):
        # The log with its columns reordered reads, under a schema naming them, as the log itself does.
        moved = tmp_path / "moved.tsv"
        rows = [line.split("\t") for line in synth_tsv.read_text(encoding="utf-8").splitlines()]
        moved.write_text("".join(f"{ts}\t{artist}\t{user}\n" for user, artist, _, _, ts in rows), encoding="utf-8")
        outputs = []
        for events, flags in ((synth_tsv, []), (moved, ["--schema", "user=2,artist=1,ts=0"])):
            capsys.readouterr()
            assert main(["ingest", "--events", str(events), *flags]) == 0
            counts = capsys.readouterr().out
            groups = tmp_path / f"{events.stem}.csv"
            assert main(["profile", "--events", str(events), *flags, "--group-size", "20", "--out", str(groups)]) == 0
            outputs.append((counts, groups.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_min_events_filtering_out_every_user_names_min_events(self, synth_tsv, tmp_path, capsys):
        groups = tmp_path / "groups.csv"
        assert main(["profile", "--events", str(synth_tsv), "--group-size", "20", "--out", str(groups)]) == 0
        capsys.readouterr()
        results = tmp_path / "results.csv"
        for args in (["split"], ["eval", "--groups", str(groups), "--out", str(results)]):
            assert main([*args, "--events", str(synth_tsv), "--min-events", "1000"]) == 2
            err = capsys.readouterr().err
            assert err == "data error: split: no user has at least 1000 events (min_events=1000)\n"
        assert not results.exists()

    def test_min_events_reaches_scoring(self, synth_tsv, tmp_path):
        # 22 of the log's 60 users have at least 35 events: profile lists only them, so its groups differ.
        per_user = Counter(line.split("\t")[0] for line in synth_tsv.read_text(encoding="utf-8").splitlines())
        written = {}
        for min_events in (None, "35"):
            groups = tmp_path / f"groups-{min_events}.csv"
            flags = [] if min_events is None else ["--min-events", min_events]
            assert main(["profile", "--events", str(synth_tsv), "--group-size", "5", *flags, "--out", str(groups)]) == 0
            written[min_events] = groups.read_text(encoding="utf-8")
        listed = [row.split(",")[0] for row in written["35"].splitlines()[1:]]
        assert len(listed) == 15 and min(per_user[key] for key in listed) >= 35
        assert min(per_user[row.split(",")[0]] for row in written[None].splitlines()[1:]) < 35
        assert written["35"] != written[None]

    def test_split_without_groups_reports_all(self, synth_tsv, capsys):
        assert main(["split", "--events", str(synth_tsv), "--fraction", "0.05"]) == 0
        per_user = Counter(line.split("\t")[0] for line in synth_tsv.read_text(encoding="utf-8").splitlines())
        test_events = sum(max(1, math.floor(0.05 * n)) for n in per_user.values())
        assert capsys.readouterr().out == f"group=ALL users={len(per_user)} test_events={test_events}\n"

    def test_split_counts_only_split_members(self, tmp_path, capsys):
        # "solo" has one event, so it has a group under --min-events 1 but the split drops it.
        events, groups = tmp_path / "events.tsv", tmp_path / "groups.csv"
        plays = [("u1", "a", 1), ("u1", "b", 2), ("u1", "a", 3), ("solo", "a", 4), ("u2", "b", 5), ("u2", "c", 6)]
        events.write_text("".join(f"{u}\t{a}\t0\t0\t{t}\n" for u, a, t in plays), encoding="utf-8")
        groups.write_text("user_key,score,group\nu1,0.1,LowMS\nsolo,0.2,LowMS\nu2,0.9,HighMS\n", encoding="utf-8")
        args = ["split", "--events", str(events), "--groups", str(groups), "--min-events", "1", "--fraction", "0.5"]
        assert main(args) == 0
        assert capsys.readouterr().out == (
            "group=LowMS users=1 test_events=1\ngroup=MedMS users=0 test_events=0\ngroup=HighMS users=1 test_events=1\n"
        )

    def test_stats_defaults_to_stdout(self, synth_tsv, tmp_path, capsys):
        groups = tmp_path / "groups.csv"
        assert main(
            ["profile", "--events", str(synth_tsv), "--group-size", "20", "--out", str(groups)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "--events", str(synth_tsv), "--groups", str(groups)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("group,users,artists,events")
        assert "LowMS,20," in out


class TestBadGroupsAndConfigFiles:
    @pytest.fixture()
    def groups_rows(self, synth_tsv, tmp_path):
        groups = tmp_path / "groups.csv"
        assert main(["profile", "--events", str(synth_tsv), "--group-size", "5", "--out", str(groups)]) == 0
        return groups.read_text().splitlines()

    def _stats(self, synth_tsv, tmp_path, data: bytes):
        path = tmp_path / "edited.csv"
        path.write_bytes(data)
        return main(["stats", "--events", str(synth_tsv), "--groups", str(path)])

    @pytest.mark.parametrize("score", ["abc", "", "nan", "inf", "-inf"])
    def test_bad_score_is_data_error(self, synth_tsv, tmp_path, groups_rows, capsys, score):
        key, _, group = groups_rows[3].split(",")
        groups_rows[3] = f"{key},{score},{group}"
        capsys.readouterr()
        assert self._stats(synth_tsv, tmp_path, "\n".join(groups_rows).encode()) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "edited.csv line 4" in err and "score" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: ["user_key,score,grp", *rows[1:]], "expected columns user_key,score,group"),
            (lambda rows: [*rows, "nobody,0.5,LowMS"], "user key 'nobody' not present in the events file"),
            (lambda rows: [rows[0], rows[1].rsplit(",", 1)[0] + ",MidMS", *rows[2:]], "unknown group 'MidMS'"),
            (lambda rows: rows[:1], "no group rows found"),
        ],
        ids=["no-group-column", "unknown-user", "unknown-group", "header-only"],
    )
    def test_groups_file_rejections(self, synth_tsv, tmp_path, groups_rows, capsys, edit, message):
        capsys.readouterr()
        assert self._stats(synth_tsv, tmp_path, "".join(f"{row}\n" for row in edit(groups_rows)).encode()) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: profile: ") and err.count("\n") == 1
        assert "edited.csv" in err and message in err

    def test_undecodable_groups_file_is_data_error(self, synth_tsv, tmp_path, groups_rows, capsys):
        data = "\n".join(groups_rows).encode().replace(b"\n", b"\n\xff", 1)
        capsys.readouterr()
        assert self._stats(synth_tsv, tmp_path, data) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "edited.csv line 2: not valid UTF-8" in err

    def test_over_long_field_is_data_error(self, synth_tsv, tmp_path, groups_rows, capsys):
        # A stray '"' opens a field that runs to the end of the file, past csv.field_size_limit().
        key, score, group = groups_rows[3].split(",")
        groups_rows[3] = f'{key},"{score},{group}'
        groups_rows.append("x" * 140_000)
        capsys.readouterr()
        assert self._stats(synth_tsv, tmp_path, "\n".join(groups_rows).encode()) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "edited.csv line 4: field larger than field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("other_group", [False, True], ids=["same-group", "two-groups"])
    def test_duplicate_user_is_data_error(self, synth_tsv, tmp_path, groups_rows, capsys, other_group):
        key, score, group = groups_rows[1].split(",")
        if other_group:
            group = next(g for g in ("LowMS", "MedMS", "HighMS") if g != group)
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(groups_rows + [f"{key},{score},{group}"]) + "\n")
        capsys.readouterr()
        code = main(
            ["eval", "--events", str(synth_tsv), "--groups", str(path), "--algo", "pop",
             "--out", str(tmp_path / "results.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"dup.csv line {len(groups_rows) + 1}" in err and "twice" in err
        assert err.startswith("data error: profile: ")  # reading a groups file is the profile stage
        assert not (tmp_path / "results.csv").exists()

    def test_stats_with_an_empty_group_writes_nothing(self, synth_tsv, tmp_path, groups_rows, capsys):
        path = tmp_path / "no-med.csv"
        path.write_text("\n".join(row for row in groups_rows if not row.endswith(",MedMS")) + "\n")
        out = tmp_path / "stats.csv"
        capsys.readouterr()
        assert main(["stats", "--events", str(synth_tsv), "--groups", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: profile: ") and "empty group" in err
        assert not out.exists()

    def test_undecodable_config_file_is_usage_error(self, synth_tsv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(f"events={synth_tsv}\ngroup_size=20\nalgorithms=b\xe9ll\n".encode("latin-1"))
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "usage error: " in (err := capsys.readouterr().err)
        assert "run.cfg line 3: not valid UTF-8" in err

    def test_repeated_config_key_is_usage_error(self, synth_tsv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"events={synth_tsv}\ngroup_size=20\n# group_size=5\ngroup_size=1000\n")
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "line 4" in err and "'group_size'" in err
        assert not (tmp_path / "o").exists()

    def test_config_line_without_key_is_usage_error(self, synth_tsv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"events={synth_tsv}\n=5\n")
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "usage error: config line 2: expected key=value, got '=5'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--k-max", "k_max", "abc"),
            ("--on-error", "on_error", "sometimes"),
            ("--fraction", "fraction", "half"),
            ("--group-size", "group_size", "1.5"),
            ("--bll-d", "bll_d", "x"),
            ("--k-max", "k_max", "0"),
            ("--k-max", "k_max", "1001"),
            ("--group-size", "group_size", "0"),
            ("--min-events", "min_events", "0"),
            ("--cf-neighbors", "cf_neighbors", "0"),
            ("--fraction", "fraction", "1.0"),
            ("--bll-d", "bll_d", "inf"),
            ("--threads", "threads", "2"),
            ("--schema", "schema", "user=0,artist=0,ts=4"),
            ("--schema", "schema", "user=0,artist=1"),
            ("--schema", "schema", "user=0,artist=1,ts=x"),
            ("--schema", "schema", "foo"),
            ("--algo", "algorithms", "bll,foo"),
            ("--algo", "algorithms", ","),
        ],
    )
    def test_flag_and_config_file_values_fail_alike(self, synth_tsv, tmp_path, capsys, flag, key, value):
        base = ["run", "--events", str(synth_tsv), "--out-dir", str(tmp_path / "o")]
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={value}\n")
        capsys.readouterr()
        assert main([*base, flag, value]) == 1
        from_flag = capsys.readouterr().err
        assert main([*base, "--config", str(config)]) == 1
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith(f"usage error: {key} ") and from_flag.endswith(f", got {value!r}\n")
        assert not (tmp_path / "o").exists()


class TestRunPipeline:
    def test_full_run_outputs(self, synth_tsv, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "run", "--events", str(synth_tsv), "--group-size", "20",
                "--k-max", "10", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        for name in ("groups.csv", "stats.csv", "results.csv", "manifest.json"):
            assert (out_dir / name).exists()
        results = (out_dir / "results.csv").read_text().splitlines()
        assert len(results) == 1 + 5 * 3 * 10  # algorithms x groups x k
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["group_size"] == 20
        assert manifest["input"]["sha256"] == hashlib.sha256(synth_tsv.read_bytes()).hexdigest()
        assert manifest["version"]

    def test_stats_and_eval_over_run_groups_equal_run_outputs(self, tmp_path):
        # groups.csv keeps 6 decimals of each score; stats must average the scores themselves, whatever
        # the order of the file's rows. On this log, averaging the rounded scores gives HighMS 0.431206.
        events, out = tmp_path / "s.tsv", tmp_path / "out"
        synth = ["synth", "--users", "30", "--artists", "200", "--events", "20..40", "--seed", "1", "--out"]
        assert main([*synth, str(events)]) == 0
        assert main(["run", "--events", str(events), "--group-size", "5", "--out-dir", str(out)]) == 0
        header, *rows = (out / "groups.csv").read_text(encoding="utf-8").splitlines()
        groups = tmp_path / "g.csv"
        groups.write_text("\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8")
        stats, results = tmp_path / "stats.csv", tmp_path / "results.csv"
        assert main(["stats", "--events", str(events), "--groups", str(groups), "--out", str(stats)]) == 0
        assert main(["eval", "--events", str(events), "--groups", str(groups), "--out", str(results)]) == 0
        assert stats.read_bytes() == (out / "stats.csv").read_bytes()
        assert results.read_bytes() == (out / "results.csv").read_bytes()

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    def test_run_reads_the_events_file_once(self, synth_tsv, tmp_path, monkeypatch, compress):
        path = synth_tsv
        if compress:
            path = tmp_path / "synth.tsv.gz"
            path.write_bytes(gzip.compress(synth_tsv.read_bytes()))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        code = main(["run", "--events", str(path), "--group-size", "20", "--algo", "pop", "--out-dir", str(tmp_path / "o")])
        monkeypatch.undo()
        assert code == 0
        assert len(opened) == 1

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(), parse_constant=reject)
        assert manifest["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_non_finite_bll_d_is_usage_error(self, synth_tsv, tmp_path, capsys):
        base = ["run", "--events", str(synth_tsv), "--group-size", "20", "--out-dir", str(tmp_path / "o")]
        config = tmp_path / "inf.cfg"
        config.write_text("bll_d=inf\n")
        for extra in (["--bll-d", "inf"], ["--bll-d", "nan"], ["--config", str(config)]):
            assert main(base + extra) == 1
            err = capsys.readouterr().err
            assert "usage error" in err and "bll_d must be finite" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_runs_are_byte_identical(self, synth_tsv, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for out_dir in dirs:
            assert main(
                [
                    "run", "--events", str(synth_tsv), "--group-size", "20",
                    "--k-max", "10", "--out-dir", str(out_dir),
                ]
            ) == 0
        a = (dirs[0] / "results.csv").read_bytes()
        b = (dirs[1] / "results.csv").read_bytes()
        assert a == b

    def test_config_file_with_flag_override(self, synth_tsv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"events={synth_tsv}\ngroup_size=20\nk_max=3\nalgorithms=bll  # comment\n"
        )
        out_dir = tmp_path / "cfg_out"
        assert main(
            ["run", "--config", str(config), "--k-max", "4", "--out-dir", str(out_dir)]
        ) == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 * 3 * 4  # flag k_max=4 overrides file value 3

    def test_hash_inside_a_config_value_is_not_a_comment(self, synth_tsv, tmp_path):
        # '#' starts a comment only at the start of a line or after whitespace, so a path may hold one.
        events = tmp_path / "a#1.tsv"
        events.write_bytes(synth_tsv.read_bytes())
        config = tmp_path / "run.cfg"
        config.write_text(
            f"# a log named with '#'\nevents={events}\ngroup_size=20\nalgorithms=bll  # comment\nk_max=3\t#3\n"
        )
        assert cli.read_config_file(config) == {
            "events": str(events), "group_size": "20", "algorithms": "bll", "k_max": "3"
        }
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        assert len((out_dir / "results.csv").read_text().splitlines()) == 1 + 1 * 3 * 3

    def test_missing_events_file_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--events", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "nope.tsv" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert main(["run", "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("usage error: ingest: an events file is required")
        assert not (tmp_path / "o").exists()

    def test_empty_out_dir_is_usage_error(self, synth_tsv, tmp_path, monkeypatch, capsys):
        # An empty out_dir would write the four outputs into the working directory.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"events={synth_tsv}\ngroup_size=20\nk_max=3\nout_dir=\n")
        for args in (["--events", str(synth_tsv), "--group-size", "20", "--k-max", "3", "--out-dir", ""],
                     ["--config", str(config)]):
            assert main(["run", *args]) == 1
            assert capsys.readouterr().err == "usage error: out_dir must not be empty, got ''\n"
            assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    def test_failed_write_leaves_no_output(self, synth_tsv, tmp_path, monkeypatch, capsys):
        def full_disk(reports, path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("algorithm,gro")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "emit_report", full_disk)
        out_dir = tmp_path / "out"
        code = main(["run", "--events", str(synth_tsv), "--group-size", "20", "--k-max", "3", "--out-dir", str(out_dir)])
        assert code == 3
        assert "No space left on device" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_bad_fraction_is_usage_error(self, synth_tsv, capsys):
        code = main(["run", "--events", str(synth_tsv), "--fraction", "1.5"])
        assert code == 1
        assert "fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", [str(MAX_K + 1), "100000000000", "100000000000000000000"])
    def test_k_max_above_bound_is_usage_error(self, synth_tsv, tmp_path, capsys, k_max):
        groups = tmp_path / "groups.csv"
        assert main(["profile", "--events", str(synth_tsv), "--group-size", "20", "--out", str(groups)]) == 0
        assert main(["run", "--events", str(synth_tsv), "--group-size", "20", "--k-max", str(MAX_K),
                     "--algo", "pop", "--out-dir", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        for args in (["run", "--group-size", "20", "--out-dir", str(tmp_path / "o")],
                     ["eval", "--groups", str(groups), "--out", str(tmp_path / "results.csv")]):
            assert main([*args, "--events", str(synth_tsv), "--k-max", k_max]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and "k_max" in err and "Traceback" not in err
        assert not (tmp_path / "results.csv").exists()

    def test_malformed_line_under_fail_policy_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u\ta\t0\t0\t10\nu\ta\t0\t0\tnot-a-number\n")
        code = main(["ingest", "--events", str(bad), "--on-error", "fail"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_overflow_and_undecodable_lines(self, tmp_path, capsys):
        good = b"".join(f"u{u}\ta{a}\t0\t0\t{100 + 10 * a}\n".encode() for u in range(3) for a in range(3))
        for bad in (b"u0\ta9\t0\t0\t99999999999999999999\n", b"u0\ta\xff\xfe\t0\t0\t150\n"):
            path = tmp_path / "bad.tsv"
            path.write_bytes(good + bad)
            base = ["run", "--events", str(path), "--group-size", "1", "--algo", "pop", "--out-dir", str(tmp_path / "o")]
            assert main(base + ["--on-error", "skip"]) == 0
            assert json.loads((tmp_path / "o" / "manifest.json").read_text())["skipped_lines"] == 1
            assert main(base + ["--on-error", "fail"]) == 2
            assert "line 10" in capsys.readouterr().err

    def test_too_small_dataset_is_data_error(self, synth_tsv, tmp_path, capsys):
        # default group size 1000 cannot be satisfied by 60 users
        code = main(["run", "--events", str(synth_tsv), "--out-dir", str(tmp_path / "o2")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: profile: ")
        assert not (tmp_path / "o2").exists()  # no out dir before every stage has run

    def test_threads_do_not_change_results(self, synth_tsv, tmp_path, capsys):
        base = ["run", "--events", str(synth_tsv), "--group-size", "20", "--k-max", "10"]
        outputs = []
        for extra in ([], ["--threads", "1"]):
            out_dir = tmp_path / f"t{len(extra)}"
            assert main(base + extra + ["--out-dir", str(out_dir)]) == 0
            outputs.append((out_dir / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()
        config = tmp_path / "threads.conf"
        config.write_text("threads=8\n")
        for extra in (["--threads", "0"], ["--threads", "2"], ["--config", str(config)]):
            assert main(base + extra + ["--out-dir", str(tmp_path / "bad")]) == 1
            err = capsys.readouterr().err
            assert "usage error" in err and "one thread" in err

    def test_bll_with_timestamps_at_int64_max(self, tmp_path):
        top = 9223372036854775807
        path = tmp_path / "edge.tsv"
        lines = [f"u0\ta{a}\t0\t0\t{t}\n" for a, t in ((0, 0), (1, top), (1, top))]
        lines += [f"u{u}\ta{a}\t0\t0\t{100 + 10 * a}\n" for u in (1, 2) for a in range(3)]
        path.write_text("".join(lines))
        code = main(["run", "--events", str(path), "--group-size", "1", "--algo", "bll", "--out-dir", str(tmp_path / "o")])
        assert code == 0

    @pytest.mark.parametrize("subcommand", ["run", "profile", "split"])
    @pytest.mark.parametrize("events", ["", "u0\ta0\t0\t0\t10\nu1\ta0\t0\t0\t11\nu2\ta1\t0\t0\t12\n"],
                             ids=["empty", "one-event-per-user"])
    def test_degenerate_log_is_data_error(self, tmp_path, capsys, subcommand, events):
        path = tmp_path / "events.tsv"
        path.write_text(events)
        args = {
            "run": ["--group-size", "1", "--out-dir", str(tmp_path / "o")],
            "profile": ["--group-size", "1", "--out", str(tmp_path / "groups.csv")],
            "split": [],
        }[subcommand]
        assert main([subcommand, "--events", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert not (tmp_path / "o" / "groups.csv").exists() and not (tmp_path / "groups.csv").exists()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["run", "--bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(["run", "--help"]) == 0
        assert "--k-max K_MAX largest list length k (default 20)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "users, events_per_user, group_size, per_event, bound",
    [
        # 3.77 bytes per added event, the pair rows' share: ingest reduces a grouped file as it reads, so
        # no column as long as the log exists. With the built table kept through evaluation and a latest
        # play of all plays in it it took 4.40, and with the log's columns (12 bytes an event) held until
        # the build 13.07.
        ((40, 80), (2000, 3000), 10, True, 4.34),
        # 237 bytes per added user; with the test side a table of its own it took 260, with the built table
        # kept through evaluation and a latest play in the test table 354, with the log's columns held until
        # the build 441, with the events kept to the end of the run 565, and with a dict of Python float
        # scores and tuple groups 731.
        ((5000, 10_000), (15, 30), 100, False, 273),
    ],
    ids=["long-histories", "many-users"],
)
def test_whole_run_allocates_with_the_data(tmp_path, users, events_per_user, group_size, per_event, bound):
    # The tracemalloc peak of a whole run up to evaluation, at two sizes of one shape: what each added
    # event or user costs. This bounds allocation, not RSS: room from np.empty that no page backs counts.
    sizes, peaks = [], []
    for n_users in users:
        path = tmp_path / f"{n_users}.tsv"
        log = generate_synthetic(SynthConfig(n_users=n_users, n_artists=5000, events_per_user=events_per_user, seed=3))
        write_events_tsv(log, path)
        sizes.append(len(log) if per_event else n_users)
        del log
        tracemalloc.start()
        try:
            out = cli.run_stages(validate_config({"events": path, "group_size": group_size}), "evaluate")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(out.reports) == 5 * 3
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < bound


def test_no_array_as_long_as_the_log_outlives_the_build(tmp_path):
    # Ingest reduces a file grouped by user to pair rows as it reads, so the log never has columns, and
    # after the split every array is per user or per pair row: on this log of long histories over 50
    # artists, far fewer.
    path = tmp_path / "events.tsv"
    write_events_tsv(generate_synthetic(SynthConfig(n_users=20, n_artists=50, events_per_user=(100, 200), seed=2)), path)
    out = cli.run_stages(validate_config({"events": path, "fraction": 0.3}), "split")
    n = int(out.histories.n_events.sum())
    assert n == len(path.read_text().splitlines())
    assert (out.log.users, out.log.artists, out.log.timestamps, out.log.reduced) == (None, None, None, None)
    for table in (out.histories, out.split.train):
        for field in fields(table):
            column = getattr(table, field.name)
            assert column is None or len(column) < n / 2, field.name
    assert len(out.split.test_keys) < n / 2 and len(out.split.test_events) < n / 2


def test_len_of_the_log_holds_at_every_stage(tmp_path):
    # The log keeps its event count when the build drops its columns, or when a grouped path is
    # reduced as it is read and never has any; the same lines shuffled are read whole and sorted.
    path, shuffled = tmp_path / "events.tsv", tmp_path / "shuffled.tsv"
    write_events_tsv(generate_synthetic(SynthConfig(n_users=20, n_artists=50, events_per_user=(20, 40), seed=2)), path)
    lines = path.read_text().splitlines(keepends=True)
    random.Random(1).shuffle(lines)
    shuffled.write_text("".join(lines))
    for events in (path, shuffled):
        for stage in ("ingest", "profile", "split", "evaluate"):
            out = cli.run_stages(validate_config({"events": events, "group_size": 5}), stage)
            assert len(out.log) == len(lines), (events.name, stage)


def test_both_model_parameters_reach_the_evaluation(synth_tsv):
    # On this log bll_d and cf_neighbors each change the reports, so run_stages must pass both on: bll's
    # reports equal those over a table built apart at d=1.7, and cf's those of a 1-neighbour index.
    def reports(**raw):
        config = validate_config({"events": synth_tsv, "group_size": 20, "algorithms": "bll,cf", **raw})
        out = cli.run_stages(config, "evaluate")
        return out, {(r.algorithm, r.group): (r.points, r.users_evaluated) for r in out.reports}

    out, got = reports(bll_d=1.7, cf_neighbors=1)
    _, defaults = reports()
    table = build_user_histories(load_events(synth_tsv, LFM_SCHEMA, "skip")[0], PROTOCOL.fraction, 1.7)
    bll_split = split_histories(table, eligible_users(table, PROTOCOL.min_events))
    index = CfIndex(out.split.train, 1)
    recommenders = {"bll": (bll_split, recommend_bll), "cf": (out.split, lambda user, train, k: index.recommend(user, k))}
    want = {}
    for group, members in out.groups.items():
        for algorithm, (split, fn) in recommenders.items():
            report = evaluate_algorithm(split, fn, members, 20, algorithm, group)
            want[algorithm, group] = (report.points, report.users_evaluated)
    assert got == want
    for key in got:
        assert got[key][0] != defaults[key][0], key


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_keeps_numpy_on_one_thread_unless_the_caller_set_it():
    # bllrec calls no BLAS, so an OpenBLAS worker thread would only burn CPU at start-up.
    code = "import os, bllrec.cli; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for preset, expected in ((None, "1"), ("2", "2")):
        run_env = env if preset is None else {**env, "OPENBLAS_NUM_THREADS": preset}
        proc = subprocess.run([sys.executable, "-c", code], env=run_env, capture_output=True, text=True, check=True)
        value, threads = proc.stdout.split()
        assert value == expected
        if preset is None:
            assert threads == "1"

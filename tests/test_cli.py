import hashlib
import json

import pytest

from bllrec.cli import main, validate_config
from bllrec.errors import UsageError


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

    def test_algorithm_subset(self):
        assert validate_config({"algorithms": "bll,cf"}).algorithms == ("bll", "cf")
        with pytest.raises(UsageError):
            validate_config({"algorithms": "bll,magic"})


class TestSubcommands:
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

        manifest = tmp_path / "split.csv"
        assert main(
            [
                "split", "--events", str(synth_tsv), "--fraction", "0.1",
                "--groups", str(groups), "--out", str(manifest),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "group=LowMS" in out and "test_events=" in out
        assert manifest.read_text().splitlines()[0] == "user_key,n_train,n_test"

        results = tmp_path / "results.csv"
        curves = tmp_path / "curves"
        assert main(
            [
                "eval", "--events", str(synth_tsv), "--groups", str(groups),
                "--algo", "bll,pop", "--k-max", "5", "--out", str(results),
                "--plot-data", str(curves),
            ]
        ) == 0
        lines = results.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3 * 5
        assert sorted(p.name for p in curves.iterdir()) == [
            f"curve_{algo}_{grp}.csv" for algo in ("bll", "pop") for grp in ("HighMS", "LowMS", "MedMS")
        ]

    def test_split_without_groups_reports_all(self, synth_tsv, capsys):
        assert main(["split", "--events", str(synth_tsv), "--fraction", "0.05"]) == 0
        assert "group=ALL" in capsys.readouterr().out

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

    def test_missing_events_file_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--events", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "nope.tsv" in capsys.readouterr().err

    def test_bad_fraction_is_usage_error(self, synth_tsv, capsys):
        code = main(["run", "--events", str(synth_tsv), "--fraction", "1.5"])
        assert code == 1
        assert "fraction" in capsys.readouterr().err

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
        assert "profile" in err
        assert not (tmp_path / "o2" / "results.csv").exists()  # partial outputs removed

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

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["run", "--bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

import csv
import json

import pytest

from driftlab.cli import build_parser, main
from driftlab.experiments import GridSpec
from driftlab.hybrid import StepRecord
from driftlab.streams import parse_stream_spec

TINY = "gen:family=gaussian-clusters,kind=sudden,n=200,seed=5,name=tiny"


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_prints_one_result_line(self, capsys):
        assert run_cli("run", "--stream", TINY) == 0
        out = capsys.readouterr().out
        assert out.startswith("tiny: accuracy=")
        assert "queried=" in out

    def test_summary_embeds_resolved_config(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        code = run_cli(
            "run",
            "--stream", TINY,
            "--learner", "ht",
            "--budget", "0.25",
            "--summary-out", str(summary_path),
        )
        assert code == 0
        payload = json.loads(summary_path.read_text())
        assert payload["config"]["learner"] == "ht"
        assert payload["config"]["budget"] == 0.25
        assert payload["config"]["self_label"] == "none"
        assert payload["config"]["stream"]["name"] == "tiny"
        assert payload["summary"]["instances"] == 200

    def test_series_rows_follow_stride(self, tmp_path):
        series = tmp_path / "series.csv"
        run_cli("run", "--stream", TINY, "--stride", "50", "--series-out", str(series))
        with open(series, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(StepRecord._fields)
        assert len(rows) == 1 + 4  # indices 50, 100, 150, 200
        index_col = rows[0].index("index")
        assert [r[index_col] for r in rows[1:]] == ["50", "100", "150", "200"]
        meta = json.loads((tmp_path / "series.csv.meta.json").read_text())
        assert meta["config"]["stride"] == 50

    def test_zero_budget_buys_no_labels(self, tmp_path):
        summary_path = tmp_path / "s.json"
        run_cli(
            "run", "--stream", TINY, "--budget", "0", "--summary-out", str(summary_path)
        )
        payload = json.loads(summary_path.read_text())
        assert payload["summary"]["queried"] == 0
        assert payload["summary"]["final_spend"] == 0.0

    def test_invunc_requires_adaptive_query_flag(self, capsys):
        code = run_cli("run", "--stream", TINY, "--al", "random", "--sl", "invunc")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --learner/--al/--sl/--budget/--seed/--window:")
        assert "invunc" in err

    def test_window_below_one_names_the_window_flag(self, capsys):
        assert run_cli("run", "--stream", TINY, "--window", "0") == 2
        assert capsys.readouterr().err == (
            "error: --learner/--al/--sl/--budget/--seed/--window: window must be at least 1\n"
        )

    def test_negative_seed_names_the_seed_flag(self, capsys):
        # the runner's default_rng used to end this in a bare ValueError, exit 1
        assert run_cli("run", "--stream", TINY, "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --learner/--al/--sl/--budget/--seed/--window: seed must be at least 0\n"
        assert captured.out == ""

    def test_missing_stream_file_is_io_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.csv"
        code = run_cli("run", "--stream", str(missing))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error")
        assert str(missing) in err

    @pytest.mark.parametrize("learner", ["nb", "ht", "awe"])
    def test_huge_finite_cells_are_an_error_not_a_crash(self, learner, capsys, tmp_path):
        # a class whose values reach +-1e200 overflows its running M2,
        # its scores turn NaN, and the run must end with exit 2 and a
        # message that names the overflowing attribute; awe predicts
        # from members only once its first 500-instance chunk closes
        rows = ["a,b,class"]
        for i in range(1200 if learner == "awe" else 60):
            big = (1e200, -1e200, None)[i % 3]
            a = repr(big) if big is not None else repr(0.1 * i)
            rows.append(f"{a},{0.05 * i!r},{'xy'[i % 2]}")
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        code = run_cli("run", "--stream", str(path), "--learner", learner, "--al", "random", "--budget", "1.0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: probability entry")
        assert "attribute 'a'" in err

    def test_stream_flag_required(self, capsys):
        # argparse rejects the missing flag before any handler runs
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--budget", "0.2")
        assert exc.value.code == 2
        assert "the following arguments are required: --stream" in capsys.readouterr().err

    @pytest.mark.parametrize("stride", ["0", "-1"])
    @pytest.mark.parametrize("with_series", [True, False])
    def test_stride_below_one_rejected(self, stride, with_series, capsys, tmp_path):
        series = tmp_path / "s.csv"
        argv = ["run", "--stream", TINY, "--stride", stride]
        if with_series:
            argv += ["--series-out", str(series)]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --stride must be at least 1\n"
        assert captured.out == ""
        assert not series.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        paths = {}
        for tag in ("a", "b"):
            series = tmp_path / f"{tag}.csv"
            summary = tmp_path / f"{tag}.json"
            run_cli(
                "run",
                "--stream", TINY,
                "--sl", "randuni",
                "--series-out", str(series),
                "--summary-out", str(summary),
            )
            paths[tag] = (series.read_bytes(), summary.read_bytes())
        assert paths["a"] == paths["b"]


class TestCompare:
    ARGS = (
        "compare",
        "--streams", TINY,
        "--al", "random,randvar",
        "--sl", "fixed",
        "--budgets", "0.1,0.5",
        "--seeds", "1",
    )

    def test_table_on_stdout(self, capsys):
        assert run_cli(*self.ARGS) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "randvar+fixed" in out
        assert "Acc=" in out and "Fh=" in out

    def test_table_out_matches_stdout(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        run_cli(*self.ARGS, "--table-out", str(table))
        assert table.read_text() == capsys.readouterr().out

    def test_records_jsonl(self, tmp_path):
        records_path = tmp_path / "cells.jsonl"
        run_cli(*self.ARGS, "--records-out", str(records_path))
        lines = records_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {r["kind"] for r in records}
        assert kinds == {"cell", "aggregate"}
        assert records[-1]["kind"] == "aggregate"
        cells = [r for r in records if r["kind"] == "cell"]
        assert len(cells) == 2 * 3  # 2 budgets x (2 baselines + 1 hybrid)

    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            records_path = tmp_path / f"{tag}.jsonl"
            run_cli(*self.ARGS, "--records-out", str(records_path))
            blobs.append(records_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_jobs_env_var(self, capsys, tmp_path, monkeypatch):
        records_path = tmp_path / "serial.jsonl"
        run_cli(*self.ARGS, "--records-out", str(records_path))
        monkeypatch.setenv("DRIFTLAB_JOBS", "2")
        parallel_path = tmp_path / "parallel.jsonl"
        run_cli(*self.ARGS, "--records-out", str(parallel_path))
        assert records_path.read_bytes() == parallel_path.read_bytes()

    def test_bad_jobs_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("DRIFTLAB_JOBS", "many")
        assert run_cli(*self.ARGS) == 2
        assert "DRIFTLAB_JOBS" in capsys.readouterr().err

    def test_bad_budget_list(self, capsys):
        code = run_cli("compare", "--streams", TINY, "--budgets", "0.1,lots")
        assert code == 2
        assert "--budgets" in capsys.readouterr().err

    def test_unknown_strategy_names_flags(self, capsys):
        code = run_cli("compare", "--streams", TINY, "--sl", "oracle")
        assert code == 2
        err = capsys.readouterr().err
        assert "--streams/--learners/--al/--sl/--budgets/--seeds/--window:" in err
        # only the policies compare accepts are offered: no 'none'
        assert "'oracle'" in err
        assert err.rpartition("choose from ")[2].strip().split(", ") == list(GridSpec.self_label)

    def test_window_below_one_fails_before_any_run(self, capsys):
        # compare used to run every cell, record each as failed and exit 0
        code = run_cli(*self.ARGS, "--window", "0")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --streams/--learners/--al/--sl/--budgets/--seeds/--window: window must be at least 1\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, values, message",
        [
            (
                "--streams",
                (TINY, TINY.replace("seed=5", "seed=6")),
                "stream name 'tiny' is given twice; give each stream its own name= (for files, rename one)",
            ),
            ("--learners", ("nb,nb",), "learner 'nb' is given twice"),
            ("--al", ("random,random",), "query strategy 'random' is given twice"),
            ("--sl", ("fixed,fixed",), "self-label policy 'fixed' is given twice"),
            ("--budgets", ("0.1,0.10",), "budget 0.1 is given twice"),
            ("--seeds", ("0",), "grid needs at least one seed"),
            ("--seeds", ("-1",), "grid needs at least one seed"),
        ],
        ids=["streams", "learners", "al", "sl", "budgets", "no-seeds", "negative-seeds"],
    )
    def test_grid_error_names_every_grid_flag_before_any_run(self, flag, values, message, capsys, tmp_path):
        # a repeated value would run, record and count each of its cells twice
        argv = {
            "--streams": ("gen:n=300,seed=1",),
            "--learners": ("nb",),
            "--al": ("random",),
            "--sl": ("fixed",),
            "--budgets": ("0.1",),
        }
        argv[flag] = values
        records = tmp_path / "cells.jsonl"
        args = [arg for name, given in argv.items() for arg in (name, *given)]
        assert run_cli("compare", *args, "--records-out", str(records)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --streams/--learners/--al/--sl/--budgets/--seeds/--window: {message}\n"
        assert captured.out == ""
        assert not records.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_missing_stream_file_is_io_error(self, jobs, capsys, tmp_path):
        missing = tmp_path / "absent.csv"
        code = run_cli(
            "compare", "--streams", TINY, str(missing), "--sl", "fixed", "--budgets", "0.1", "--jobs", jobs
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"i/o error ({missing}): ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gen:kind=gradual,n=1200,changes=600", "gradual drift needs a transition width >= 1"),
            ("gen:n=1200,classes=1", "gaussian-clusters needs at least 2 classes"),
            ("gen:n=500,changes=600", "change point 600 outside stream of 500 instances"),
            ("gen:n=0", "stream length must be at least 1"),
            ("gen:n=300,seed=-1", "generator seed must be at least 0, got -1"),
            # compare used to name run's flag: "unknown generator key 'wobble' in --stream"
            ("gen:wobble=1", "unknown key 'wobble' in gen: spec"),
        ],
        ids=["gradual-without-width", "one-class", "change-past-end", "empty", "negative-seed", "unknown-key"],
    )
    def test_unloadable_generator_spec_fails_before_any_run(self, spec, message, capsys, tmp_path):
        # compare used to run every cell, record each as failed and exit 0;
        # each command names its own flag before the generator's message
        out = tmp_path / "x.csv"
        for flag, argv in (
            ("--streams", ("compare", "--streams", spec, "--budgets", "0.1")),
            ("--stream", ("run", "--stream", spec)),
            ("--stream", ("generate", "--stream", spec, "--out", str(out))),
        ):
            assert run_cli(*argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {flag}: {message}\n"
            assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_generator_spec_that_overflows_when_it_generates_ends_the_sweep(self, jobs, capsys):
        # the parse-time checks pass; compare used to record every cell as
        # failed and exit 0, where run exits 2
        spec = "gen:n=300,seed=1,spread=1e308"
        message = (
            "error: gaussian-clusters parameters {'classes': 2, 'dims': 2, 'radius': 3.0,"
            " 'spread': 1e+308, 'rotation': 0.8} overflow to non-finite features\n"
        )
        for argv in (
            ("compare", "--streams", TINY, spec, "--sl", "fixed", "--budgets", "0.1", "--jobs", jobs),
            ("run", "--stream", spec),
        ):
            assert run_cli(*argv) == 2
            captured = capsys.readouterr()
            assert captured.err == message
            assert captured.out == ""


class TestGenerate:
    def test_writes_csv_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "stream.csv"
        spec = "gen:kind=sudden,n=120,seed=7"
        code = run_cli("generate", "--stream", spec, "--out", str(out))
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        loaded = parse_stream_spec(str(out)).load()
        assert len(loaded.instances) == 120
        meta = json.loads((tmp_path / "stream.csv.meta.json").read_text())
        # the stream entry run embeds, the seed used and the class names
        assert meta == {
            "stream": parse_stream_spec(spec).describe(),
            "seed": 7,
            "class_names": ["c0", "c1"],
        }
        assert meta["stream"]["generator"]["change_points"] == []  # no default change

    def test_sidecar_seed_is_zero_when_the_spec_sets_none(self, tmp_path):
        out = tmp_path / "stream.csv"
        assert run_cli("generate", "--stream", "gen:n=50", "--out", str(out)) == 0
        meta = json.loads((tmp_path / "stream.csv.meta.json").read_text())
        assert meta["seed"] == 0
        assert meta["stream"]["generator"]["seed"] is None
        pinned = tmp_path / "pinned.csv"
        assert run_cli("generate", "--stream", "gen:n=50,seed=0", "--out", str(pinned)) == 0
        assert out.read_bytes() == pinned.read_bytes()

    def test_writes_the_stream_run_reads_from_the_same_spec(self, capsys, tmp_path):
        spec = "gen:family=gaussian-clusters,kind=incremental,n=300,changes=100,width=50,classes=3,dims=4,seed=2"
        out = tmp_path / "stream.csv"
        assert run_cli("generate", "--stream", spec, "--out", str(out)) == 0
        rows = []
        for stream in (parse_stream_spec(str(out)).load(), parse_stream_spec(spec).load()):
            names = stream.schema.class_names
            rows.append([(inst.features, names[inst.label]) for inst in stream.instances])
        assert len(rows[0][0][0]) == 4
        assert {name for _, name in rows[0]} == {"c0", "c1", "c2"}
        assert rows[0] == rows[1]

    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            run_cli("generate", "--stream", "gen:kind=gradual,n=150,changes=75,width=40", "--out", str(out))
            blobs.append(out.read_bytes() + (tmp_path / f"{tag}.csv.meta.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_sudden_kind_rejects_width(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code = run_cli("generate", "--stream", "gen:kind=sudden,n=100,width=100", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: --stream: transition width must be 0 for sudden drift\n"
        assert not out.exists()

    def test_bad_changes_list(self, capsys, tmp_path):
        code = run_cli("generate", "--stream", "gen:n=100,changes=50|mid", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err == "error: --stream: bad value for generator key 'changes': '50|mid'\n"

    def test_file_path_is_rejected(self, capsys, tmp_path):
        source = tmp_path / "source.csv"
        source.write_text("x,class\n1.0,a\n")
        out = tmp_path / "x.csv"
        code = run_cli("generate", "--stream", str(source), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: --stream: generate needs a gen: spec, got {str(source)!r}\n"
        assert not out.exists()

    def test_negative_seed_is_a_setting_error(self, capsys, tmp_path):
        # numpy's default_rng used to end this in a bare ValueError, exit 1
        out = tmp_path / "x.csv"
        assert run_cli("generate", "--stream", "gen:n=300,seed=-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --stream: generator seed must be at least 0, got -1\n"
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = run_cli("generate", "--stream", "gen:n=50", "--out", str(out))
        assert code == 3
        assert "i/o error" in capsys.readouterr().err


class TestParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "--streams", "x"])
        assert args.budgets == "0.01,0.05,0.10,0.20,0.50"
        assert args.learners == "nb"
        assert args.sl == "fixed,uni,randuni,invunc,cddm,ceddm,winerr"
        assert args.seeds == 1

    def test_streams_takes_multiple_values(self):
        args = build_parser().parse_args(
            ["compare", "--streams", "a.csv", "b.csv", TINY]
        )
        assert args.streams == ["a.csv", "b.csv", TINY]

    def test_run_flag_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--stream", "x", "--learner", "xgb"])

import pytest

from driftlab import experiments
from driftlab.core import ConfigError
from driftlab.evaluation import ComparisonReport
from driftlab.experiments import GridSpec, resolve_jobs, run_grid
from driftlab.hybrid import HybridConfig, run_stream
from driftlab.streams import StreamSpec, parse_stream_spec


def tiny_stream(n=60, seed=11, name=None):
    text = f"gen:family=gaussian-clusters,kind=sudden,n={n},seed={seed}"
    if name:
        text += f",name={name}"
    return parse_stream_spec(text)


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec(streams=(tiny_stream(),))
        assert spec.learners == ("nb",)
        assert spec.active == ("random", "sampling", "randvar")
        assert len(spec.self_label) == 7
        assert spec.budgets == (0.01, 0.05, 0.10, 0.20, 0.50)

    def test_validation(self):
        stream = tiny_stream()
        with pytest.raises(ConfigError):
            GridSpec(streams=())
        with pytest.raises(ConfigError):
            GridSpec(streams=(stream,), seeds=())
        with pytest.raises(ConfigError):
            GridSpec(streams=(stream,), learners=("gbm",))
        with pytest.raises(ConfigError):
            GridSpec(streams=(stream,), active=("margin",))
        with pytest.raises(ConfigError):
            GridSpec(streams=(stream,), self_label=("none",))
        with pytest.raises(ConfigError):
            GridSpec(streams=(stream,), budgets=(1.5,))
        # no rows would leave the unknown learner unchecked
        with pytest.raises(ConfigError, match="no rows"):
            GridSpec(streams=(stream,), learners=("gbm",), budgets=())
        with pytest.raises(ConfigError, match="no rows"):
            GridSpec(streams=(stream,), active=(), self_label=())

    def test_streams_differing_only_in_seed_get_distinct_names(self):
        first, second = tiny_stream(seed=1), tiny_stream(seed=2)
        assert first.name == "gaussian-clusters-sudden-60-seed=1"
        assert second.name == "gaussian-clusters-sudden-60-seed=2"
        spec = GridSpec(streams=(first, second), active=("random",), self_label=())
        assert [row.stream for row in spec.rows] == [first] * 5 + [second] * 5

    def test_equal_names_are_rejected(self):
        with pytest.raises(ConfigError, match="name="):
            GridSpec(streams=(tiny_stream(seed=1, name="s"), tiny_stream(seed=2, name="s")))

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("learners", ("nb", "ht", "nb"), "learner 'nb' is given twice"),
            ("active", ("random", "random"), "query strategy 'random' is given twice"),
            ("self_label", ("fixed", "cddm", "fixed"), "self-label policy 'fixed' is given twice"),
            ("budgets", (0.1, 0.10), "budget 0.1 is given twice"),
            ("seeds", (0, 1, 0), "seed 0 is given twice"),
        ],
        ids=["learners", "active", "self_label", "budgets", "seeds"],
    )
    def test_repeated_axis_values_are_rejected(self, axis, values, message):
        # a repeat would add a second copy of every cell on its axis
        with pytest.raises(ConfigError, match=f"^{message}$"):
            GridSpec(streams=(tiny_stream(),), **{axis: values})


class TestGridRows:
    def test_baseline_only_row_count(self):
        spec = GridSpec(
            streams=(tiny_stream(name="s1"), tiny_stream(seed=12, name="s2")),
            self_label=(),
            budgets=(0.1, 0.5),
            seeds=(0, 1, 2),
        )
        rows = spec.rows
        assert len(rows) == 12  # 2 streams x 1 learner x 2 budgets x 3 query rows
        assert all(row.config.self_label == "none" for row in rows)
        assert all(row.config.seed == HybridConfig.seed for row in rows)

    def test_row_labels(self):
        spec = GridSpec(
            streams=(tiny_stream(),),
            self_label=("fixed", "cddm"),
            budgets=(0.2,),
        )
        rows = spec.rows
        labels = [row.strategy for row in rows]
        assert labels == ["random", "sampling", "randvar", "randvar+fixed", "randvar+cddm"]
        assert rows[-1].config == HybridConfig("nb", "randvar", "cddm", 0.2)

    def test_run_grid_reads_the_rows_the_spec_built(self, monkeypatch):
        spec = GridSpec(streams=(tiny_stream(),), active=("random",), self_label=(), budgets=(0.2,))

        def rebuilt(spec):
            raise AssertionError("run_grid rebuilt the rows")

        monkeypatch.setattr(experiments, "grid_rows", rebuilt)
        report = run_grid(spec)
        assert [cell.strategy for cell in report.cells] == ["random"]


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("DRIFTLAB_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv("DRIFTLAB_JOBS", "2")
        assert resolve_jobs(8) == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("DRIFTLAB_JOBS", "fast")
        with pytest.raises(ConfigError, match="DRIFTLAB_JOBS"):
            resolve_jobs(None)

    def test_floor_at_one(self, monkeypatch):
        monkeypatch.delenv("DRIFTLAB_JOBS", raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestRunGrid:
    def test_run_count_and_cells(self):
        spec = GridSpec(
            streams=(tiny_stream(name="s1"), tiny_stream(seed=12, name="s2")),
            self_label=(),
            budgets=(0.1, 0.5),
            seeds=(0, 1, 2),
        )
        report = run_grid(spec)
        assert isinstance(report, ComparisonReport)
        assert len(report.cells) == 12
        assert all(cell.error is None for cell in report.cells)
        assert all(cell.seeds == 3 for cell in report.cells)

    def test_failure_cell_recorded_not_fatal(self, tmp_path):
        # a stream with no data rows fails inside its own cells only
        empty = tmp_path / "empty.csv"
        empty.write_text("a,b,class\n")
        spec = GridSpec(
            streams=(tiny_stream(), parse_stream_spec(str(empty))),
            self_label=("fixed", "invunc"),
            budgets=(0.1,),
        )
        report = run_grid(spec)
        failed = [c for c in report.cells if c.error is not None]
        assert [c.stream for c in failed] == ["empty"] * 5
        assert all(c.error.startswith("SchemaMismatch: ") for c in failed)
        assert all("no data rows" in c.error for c in failed)
        assert all(c.error is None for c in report.cells if c.stream != "empty")
        assert report.failures == failed

    def test_unreadable_stream_file_ends_the_grid(self, tmp_path):
        missing = parse_stream_spec(str(tmp_path / "gone.csv"))
        spec = GridSpec(
            streams=(tiny_stream(), missing), active=("random",), self_label=(), budgets=(0.1,)
        )
        with pytest.raises(FileNotFoundError):
            run_grid(spec)
        assert experiments._stream_cache == {}

    @pytest.mark.parametrize("seeded", [True, False], ids=["pinned", "unpinned"])
    def test_fractional_seed_ends_the_grid(self, seeded):
        # every cell used to fail with numpy's "seed must be integer"; an
        # unpinned generator spec met the bad seed first, when it loaded
        stream = tiny_stream() if seeded else parse_stream_spec("gen:n=60")
        spec = GridSpec(
            streams=(stream,), active=("random",), self_label=(), budgets=(0.1,), seeds=(0.5,)
        )
        with pytest.raises(ConfigError, match="^seed must be an integer, got 0.5$"):
            run_grid(spec)

    def test_stream_cache_is_emptied_after_a_grid(self):
        spec = GridSpec(
            streams=(tiny_stream(),), active=("random",), self_label=(), budgets=(1.0,)
        )
        run_grid(spec)
        assert experiments._stream_cache == {}

    def test_each_spec_loads_once_and_the_cache_holds_one_spec(self, tmp_path, monkeypatch):
        # rows are stream-major, so a new spec may drop the old one's
        # streams without loading any spec twice
        csv_path = tmp_path / "c.csv"
        csv_path.write_text("".join(f"{i * 0.1!r},{(i % 7) * 0.3!r},{'xy'[i % 2]}\n" for i in range(80)))
        arff_path = tmp_path / "a.arff"
        arff_path.write_text(
            "@relation a\n@attribute v numeric\n@attribute class {p,q}\n@data\n"
            + "".join(f"{i * 0.2!r},{'pq'[i % 3 == 0]}\n" for i in range(80))
        )
        streams = (
            parse_stream_spec(str(csv_path)),
            parse_stream_spec(str(arff_path)),
            parse_stream_spec("gen:family=gaussian-clusters,kind=sudden,n=80,name=open"),
        )
        load = StreamSpec.load
        loads, specs_held = [], []

        def counted(spec, seed_fallback=None):
            loads.append((spec.name, seed_fallback))
            specs_held.append({cached for cached, _ in experiments._stream_cache})
            return load(spec, seed_fallback=seed_fallback)

        monkeypatch.setattr(StreamSpec, "load", counted)
        spec = GridSpec(
            streams=streams, active=("random",), self_label=("fixed",), budgets=(0.1, 0.5), seeds=(0, 1)
        )
        report = run_grid(spec)
        assert all(cell.error is None for cell in report.cells)
        assert loads == [("c", 0), ("a", 0), ("open", 0), ("open", 1)]
        assert [len(held) for held in specs_held] == [0, 0, 0, 1]

    def test_deterministic_across_calls(self):
        spec = GridSpec(
            streams=(tiny_stream(n=120),),
            self_label=("fixed",),
            budgets=(0.2,),
            seeds=(0, 1),
        )
        first = run_grid(spec)
        second = run_grid(spec)
        assert first == second

    def test_parallel_matches_serial(self):
        spec = GridSpec(
            streams=(tiny_stream(n=120),),
            active=("random", "randvar"),
            self_label=("uni",),
            budgets=(0.1, 0.5),
        )
        serial = run_grid(spec, jobs=1)
        parallel = run_grid(spec, jobs=2)
        assert serial == parallel

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """Record each pool's ``max_workers`` and run its tasks in-process,
        so no worker process is ever started."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.delenv("DRIFTLAB_JOBS", raising=False)
        return sizes

    def test_worker_count_is_clamped(self, fake_pool, monkeypatch):
        spec = GridSpec(
            streams=(tiny_stream(n=40),),
            active=("random",),
            self_label=("fixed",),
            budgets=(0.5,),
            seeds=(0, 1, 2),
        )  # two rows x three seeds = 6 tasks
        serial = run_grid(spec)
        for jobs, cpus, workers in (
            (10_000, 4, 4),  # at most one worker per CPU
            (10_000, 64, 6),  # at most one worker per task
            (3, 64, 3),
            (5, None, None),  # CPU count unknown: stays in-process
            (4, 1, None),
        ):
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
            fake_pool.clear()
            assert run_grid(spec, jobs=jobs) == serial
            assert fake_pool == ([] if workers is None else [workers]), (jobs, cpus)

    def test_env_jobs_still_win_before_the_clamp(self, fake_pool, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("DRIFTLAB_JOBS", "10000")
        spec = GridSpec(
            streams=(tiny_stream(n=40),),
            active=("random",),
            self_label=(),
            budgets=(0.5,),
            seeds=(0, 1, 2),
        )
        run_grid(spec, jobs=resolve_jobs(1))
        assert fake_pool == [2]

    def test_unpinned_generator_varies_with_seed(self):
        # without a pinned generator seed, each run seed gets its own
        # stream; with one, all runs share a single materialized stream
        unpinned = parse_stream_spec(
            "gen:family=gaussian-clusters,kind=sudden,n=80,name=open"
        )
        spec = GridSpec(
            streams=(unpinned,),
            active=("random",),
            self_label=(),
            budgets=(1.0,),
            seeds=(0, 1, 2, 3),
        )
        (cell,) = run_grid(spec).cells
        assert cell.seeds == 4

    def test_distinct_names_give_distinct_streams(self):
        spec = GridSpec(
            streams=(tiny_stream(n=300, seed=1, name="a"), tiny_stream(n=300, seed=2, name="b")),
            active=("random",),
            self_label=(),
            budgets=(1.0,),
        )
        first, second = run_grid(spec).cells
        assert (first.stream, second.stream) == ("a", "b")
        assert first.accuracy != second.accuracy

    def test_reused_name_does_not_reuse_stream(self):
        # one display name, two different specs, two successive grids
        for seed in (1, 2):
            spec = tiny_stream(n=300, seed=seed, name="same")
            grid = GridSpec(
                streams=(spec,), active=("random",), self_label=(), budgets=(1.0,)
            )
            (cell,) = run_grid(grid).cells
            config = HybridConfig(learner="nb", active="random", budget=1.0)
            _, direct = run_stream(spec.load(), config)
            assert cell.accuracy == direct.accuracy, seed

    def test_report_aggregates_present(self):
        spec = GridSpec(
            streams=(tiny_stream(n=150),),
            self_label=("fixed", "winerr"),
            budgets=(0.1,),
        )
        report = run_grid(spec)
        assert report.hybrid_cells == 2
        assert 0.0 <= report.acc <= 1.0
        assert 0.0 <= report.fh <= 1.0

import pytest

from driftlab.core import ConfigError
from driftlab.experiments import (
    GridResult,
    GridSpec,
    grid_rows,
    resolve_jobs,
    run_grid,
)
from driftlab.hybrid import HybridConfig, run_stream
from driftlab.streams import parse_stream_spec


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
            GridSpec(streams=(stream,), base_active="bayes")
        with pytest.raises(ConfigError):
            GridSpec(streams=(stream,), budgets=(1.5,))

    def test_streams_differing_only_in_seed_need_names(self):
        # both specs get the default name gaussian-clusters-sudden-60
        with pytest.raises(ConfigError, match="name="):
            GridSpec(streams=(tiny_stream(seed=1), tiny_stream(seed=2)))


class TestGridRows:
    def test_baseline_only_row_count(self):
        spec = GridSpec(
            streams=(tiny_stream(name="s1"), tiny_stream(seed=12, name="s2")),
            self_label=(),
            budgets=(0.1, 0.5),
            seeds=(0, 1, 2),
        )
        rows = grid_rows(spec)
        assert len(rows) == 12  # 2 streams x 1 learner x 2 budgets x 3 query rows
        assert all(row.self_label == "none" for row in rows)

    def test_row_labels(self):
        spec = GridSpec(
            streams=(tiny_stream(),),
            self_label=("fixed", "cddm"),
            budgets=(0.2,),
        )
        labels = [row.strategy for row in grid_rows(spec)]
        assert labels == ["random", "sampling", "randvar", "randvar+fixed", "randvar+cddm"]

    def test_base_active_override(self):
        spec = GridSpec(
            streams=(tiny_stream(),),
            active=("random",),
            self_label=("fixed",),
            budgets=(0.1,),
            base_active="sampling",
        )
        hybrid = grid_rows(spec)[-1]
        assert hybrid.strategy == "sampling+fixed"
        assert hybrid.active == "sampling"


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("DRIFTLAB_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(3) == 3

    def test_env_overrides_argument(self, monkeypatch):
        monkeypatch.setenv("DRIFTLAB_JOBS", "2")
        assert resolve_jobs(8) == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("DRIFTLAB_JOBS", "fast")
        with pytest.raises(ConfigError, match="DRIFTLAB_JOBS"):
            resolve_jobs()

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
        result = run_grid(spec)
        assert isinstance(result, GridResult)
        assert result.runs == 36
        assert len(result.cells) == 12
        assert all(cell.error is None for cell in result.cells)
        assert all(cell.seeds == 3 for cell in result.cells)

    def test_failure_cell_recorded_not_fatal(self):
        # invunc needs the adaptive query strategy; pairing it with a
        # different base must fail inside its own cell only
        spec = GridSpec(
            streams=(tiny_stream(),),
            self_label=("fixed", "invunc"),
            budgets=(0.1,),
            base_active="sampling",
        )
        result = run_grid(spec)
        failed = [c for c in result.cells if c.error is not None]
        assert len(failed) == 1
        assert failed[0].strategy == "sampling+invunc"
        assert "ConfigError" in failed[0].error
        assert list(result.report.failures) == failed

    def test_deterministic_across_calls(self):
        spec = GridSpec(
            streams=(tiny_stream(n=120),),
            self_label=("fixed",),
            budgets=(0.2,),
            seeds=(0, 1),
        )
        first = run_grid(spec)
        second = run_grid(spec)
        assert first.cells == second.cells

    def test_parallel_matches_serial(self):
        spec = GridSpec(
            streams=(tiny_stream(n=120),),
            active=("random", "randvar"),
            self_label=("uni",),
            budgets=(0.1, 0.5),
        )
        serial = run_grid(spec, jobs=1)
        parallel = run_grid(spec, jobs=2)
        assert serial.cells == parallel.cells

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
        result = run_grid(spec)
        assert result.cells[0].seeds == 4
        assert result.runs == 4

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
        result = run_grid(spec)
        report = result.report
        assert report.hybrid_cells == 2
        assert 0.0 <= report.acc <= 1.0
        assert 0.0 <= report.fh <= 1.0

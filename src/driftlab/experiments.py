"""Experiment grids: strategy-by-budget sweeps over streams and seeds.

A grid row is one table row: either a label-buying-only baseline (one
per query strategy) or a hybrid pairing of the adaptive query strategy
with one self-labeling policy. Every row runs once per seed and per
budget; seed results average into one cell. Cells run independently,
optionally across processes, and a failed cell is reported inside the
result table instead of aborting the sweep.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .core import ConfigError
from .evaluation import CellResult, ComparisonReport, build_report
from .hybrid import ACTIVE, LEARNERS, SELF_LABEL, HybridConfig, run_stream
from .streams import StreamSpec


@dataclass(frozen=True)
class GridRow:
    stream: StreamSpec
    learner: str
    strategy: str
    active: str
    self_label: str
    budget: float


@dataclass(frozen=True)
class GridSpec:
    """Cartesian description of a comparison sweep."""

    streams: tuple
    learners: tuple = ("nb",)
    active: tuple = tuple(ACTIVE)
    self_label: tuple = tuple(name for name, make in SELF_LABEL.items() if make)
    budgets: tuple = (0.01, 0.05, 0.10, 0.20, 0.50)
    seeds: tuple = (0,)
    base_active: str = "randvar"
    window: int = 1000

    def __post_init__(self):
        if not self.streams:
            raise ConfigError("grid needs at least one stream")
        if not self.seeds:
            raise ConfigError("grid needs at least one seed")
        for kind, names, registry in (
            ("learner", self.learners, LEARNERS),
            ("active strategy", (*self.active, self.base_active), ACTIVE),
            ("self-label strategy", self.self_label, SELF_LABEL),
        ):
            for name in names:
                if registry.get(name) is None:
                    raise ConfigError(f"unknown {kind} {name!r}")
        for budget in self.budgets:
            if not 0.0 <= budget <= 1.0:
                raise ConfigError("budgets must lie in [0, 1]")
        names = [stream.name for stream in self.streams]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(
                    f"two streams are named {name!r}; give each its own"
                    " name= (for files, rename one)"
                )


def grid_rows(spec: GridSpec) -> list:
    """All table rows: baselines per query strategy, then hybrids."""
    rows = []
    for stream in spec.streams:
        for learner in spec.learners:
            for budget in spec.budgets:
                for active in spec.active:
                    rows.append(
                        GridRow(stream, learner, active, active, "none", budget)
                    )
                for sl in spec.self_label:
                    rows.append(
                        GridRow(
                            stream,
                            learner,
                            f"{spec.base_active}+{sl}",
                            spec.base_active,
                            sl,
                            budget,
                        )
                    )
    return rows


_stream_cache: dict = {}


def _load_stream(spec: StreamSpec, seed: int):
    # keyed on the full description, since display names can collide;
    # generator specs without a pinned seed produce one stream per run
    # seed, everything else is shared across the grid
    pinned = spec.generator is None or spec.generator.get("seed") is not None
    key = (json.dumps(spec.describe(), sort_keys=True), None if pinned else seed)
    stream = _stream_cache.get(key)
    if stream is None:
        stream = spec.load(seed_fallback=seed)
        _stream_cache[key] = stream
    return stream


def _run_cell(task):
    """One (row, seed) execution; returns accuracy and spend or an error."""
    row, seed, window = task
    try:
        config = HybridConfig(
            learner=row.learner,
            active=row.active,
            self_label=row.self_label,
            budget=row.budget,
            seed=seed,
            window=window,
        )
        stream = _load_stream(row.stream, seed)
        _, summary = run_stream(stream, config)
        return (summary.accuracy, summary.final_spend, None)
    except Exception as exc:  # cell failures land in the report
        return (0.0, 0.0, f"{type(exc).__name__}: {exc}")


def resolve_jobs(jobs=None) -> int:
    """Worker count: DRIFTLAB_JOBS wins over the argument, floor 1."""
    env = os.environ.get("DRIFTLAB_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(f"DRIFTLAB_JOBS must be an integer, got {env!r}")
    if jobs is None:
        jobs = 1
    return max(1, int(jobs))


@dataclass
class GridResult:
    report: ComparisonReport
    cells: list = field(default_factory=list)
    runs: int = 0


def run_grid(spec: GridSpec, jobs: int = 1) -> GridResult:
    """Execute every row for every seed and assemble the report.

    ``jobs`` > 1 spreads (row, seed) tasks over worker processes; the
    default stays fully in-process.
    """
    rows = grid_rows(spec)
    tasks = [(row, seed, spec.window) for row in rows for seed in spec.seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, tasks, chunksize=4))
    else:
        outcomes = [_run_cell(task) for task in tasks]

    n_seeds = len(spec.seeds)
    cells = []
    for i, row in enumerate(rows):
        chunk = outcomes[i * n_seeds : (i + 1) * n_seeds]
        errors = [e for _, _, e in chunk if e is not None]
        cells.append(
            CellResult(
                stream=row.stream.name,
                learner=row.learner,
                strategy=row.strategy,
                hybrid=row.self_label != "none",
                budget=row.budget,
                accuracy=0.0 if errors else sum(a for a, _, _ in chunk) / n_seeds,
                spend=0.0 if errors else sum(s for _, s, _ in chunk) / n_seeds,
                seeds=n_seeds,
                error=errors[0] if errors else None,
            )
        )
    return GridResult(report=build_report(cells), cells=cells, runs=len(tasks))

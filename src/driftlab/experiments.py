"""Experiment grids: strategy-by-budget sweeps over streams and seeds.

A grid row is one table row: either a label-buying-only baseline (one
per query strategy) or a hybrid pairing of the adaptive query strategy
with one self-labeling policy. Every row runs once per seed and per
budget; seed results average into one cell. Cells run independently,
optionally across processes, and a failed cell is reported inside the
result table instead of aborting the sweep; only a stream file that
cannot be read ends it.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .core import ConfigError
from .evaluation import CellResult, ComparisonReport, build_report
from .hybrid import ACTIVE, SELF_LABEL, HybridConfig, run_stream
from .streams import StreamSpec


@dataclass(frozen=True)
class GridRow:
    """One table row: a stream, its strategy label and the run it makes.

    ``config`` leaves the seed at its default; each run sets its own.
    """

    stream: StreamSpec
    strategy: str
    config: HybridConfig


#: Self-labeling policies a hybrid row can pair with: all but ``none``.
HYBRID_POLICIES = tuple(name for name, make in SELF_LABEL.items() if make)


@dataclass(frozen=True)
class GridSpec:
    """Cartesian description of a comparison sweep.

    ``rows`` holds every table row (:func:`grid_rows`), built once here.
    Names, budgets and the window are checked by each row's
    ``HybridConfig``, so a bad setting fails before any run starts; a
    grid with no rows would check none of them and is rejected.
    """

    streams: tuple
    learners: tuple = ("nb",)
    active: tuple = tuple(ACTIVE)
    self_label: tuple = HYBRID_POLICIES
    budgets: tuple = (0.01, 0.05, 0.10, 0.20, 0.50)
    seeds: tuple = (0,)
    window: int = HybridConfig.window
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.streams:
            raise ConfigError("grid needs at least one stream")
        if not self.seeds:
            raise ConfigError("grid needs at least one seed")
        for name in self.self_label:
            if name not in HYBRID_POLICIES:
                raise ConfigError(
                    f"unknown hybrid self-label strategy {name!r};"
                    f" choose from {', '.join(HYBRID_POLICIES)}"
                )
        names = [stream.name for stream in self.streams]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(
                    f"two streams are named {name!r}; give each its own"
                    " name= (for files, rename one)"
                )
        object.__setattr__(self, "rows", grid_rows(self))
        if not self.rows:
            raise ConfigError("grid has no rows: give a learner, a budget and a strategy")


def grid_rows(spec: GridSpec) -> tuple:
    """All table rows: baselines per query strategy, then hybrids.

    Hybrids pair with ``randvar``: ``invunc`` reads the adaptive
    threshold that only ``randvar`` publishes.
    """
    rows = []
    for stream in spec.streams:
        for learner in spec.learners:
            for budget in spec.budgets:
                for active in spec.active:
                    config = HybridConfig(learner, active, "none", budget, window=spec.window)
                    rows.append(GridRow(stream, active, config))
                for sl in spec.self_label:
                    config = HybridConfig(learner, "randvar", sl, budget, window=spec.window)
                    rows.append(GridRow(stream, f"randvar+{sl}", config))
    return tuple(rows)


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
    """One (row, seed) run; returns accuracy and spend or an error.

    An unreadable stream file ends the sweep, as it ends ``run``.
    """
    row, seed = task
    try:
        stream = _load_stream(row.stream, seed)
        _, summary = run_stream(stream, replace(row.config, seed=seed))
        return (summary.accuracy, summary.final_spend, None)
    except OSError:
        raise
    except Exception as exc:  # cell failures land in the report
        return (0.0, 0.0, f"{type(exc).__name__}: {exc}")


def resolve_jobs(jobs) -> int:
    """Worker count: DRIFTLAB_JOBS wins over ``jobs``; None means 1, floor 1."""
    env = os.environ.get("DRIFTLAB_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(f"DRIFTLAB_JOBS must be an integer, got {env!r}")
    if jobs is None:
        jobs = 1
    return max(1, int(jobs))


def run_grid(spec: GridSpec, jobs: int = 1) -> ComparisonReport:
    """Execute every row for every seed and assemble the report.

    ``jobs`` > 1 spreads (row, seed) tasks over worker processes, at most
    one per task and per CPU; the default stays fully in-process.
    """
    tasks = [(row, seed) for row in spec.rows for seed in spec.seeds]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, tasks, chunksize=4))
    else:
        try:
            outcomes = [_run_cell(task) for task in tasks]
        finally:
            # the cache serves one grid; workers' caches die with the pool
            _stream_cache.clear()

    n_seeds = len(spec.seeds)
    cells = []
    for i, row in enumerate(spec.rows):
        chunk = outcomes[i * n_seeds : (i + 1) * n_seeds]
        errors = [e for _, _, e in chunk if e is not None]
        config = row.config
        cells.append(
            CellResult(
                stream=row.stream.name,
                learner=config.learner,
                strategy=row.strategy,
                hybrid=config.self_label != "none",
                budget=config.budget,
                accuracy=0.0 if errors else sum(a for a, _, _ in chunk) / n_seeds,
                spend=0.0 if errors else sum(s for _, s, _ in chunk) / n_seeds,
                seeds=n_seeds,
                error=errors[0] if errors else None,
            )
        )
    return build_report(cells)

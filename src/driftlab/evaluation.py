"""Prequential evaluation and comparison-report assembly.

The sliding accuracy window implements test-then-train scoring over the
most recent instances. The report side turns a pile of per-cell results
(one strategy on one stream, learner, and budget, averaged over seeds)
into the strategy-by-budget comparison tables: per cell it flags the
block maximum and any hybrid strategy that strictly beats the best
label-buying-only baseline, and aggregates those flags into Acc (mean
hybrid accuracy) and Fh (fraction of hybrid cells beating the
baseline).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Optional

from .core import ordered_sum


class PrequentialWindow:
    """Sliding-window 0/1 loss tracker with an exact running sum; the
    window length (at least 1) is checked by ``HybridConfig``."""

    def __init__(self, window: int):
        self.window = window
        self._losses = deque(maxlen=self.window)
        self._sum = 0

    def update(self, loss) -> None:
        if loss not in (0, 1):
            raise ValueError("prequential loss must be 0 or 1")
        if len(self._losses) == self.window:
            self._sum -= self._losses[0]
        self._losses.append(loss)
        self._sum += loss

    def error_rate(self) -> float:
        if not self._losses:
            return 0.0
        return self._sum / len(self._losses)

    def accuracy(self) -> float:
        return 1.0 - self._sum / len(self._losses) if self._losses else 1.0


@dataclass(frozen=True)
class CellResult:
    """Seed-averaged outcome of one strategy in one table cell.

    ``best`` and ``improved`` are the report's flags, set by
    :func:`build_report`; ``improved`` stays None for a baseline cell
    and for a hybrid whose block has no pure baseline.
    """

    stream: str
    learner: str
    strategy: str
    hybrid: bool
    budget: float
    accuracy: float
    spend: float
    seeds: int
    error: Optional[str] = None
    best: bool = False
    improved: Optional[bool] = None


@dataclass(frozen=True)
class ComparisonReport:
    """Every cell in row order, flagged, plus the Acc/Fh aggregates."""

    cells: tuple
    acc: float
    fh: float
    hybrid_cells: int

    @property
    def scored(self) -> list:
        return [cell for cell in self.cells if cell.error is None]

    @property
    def failures(self) -> list:
        return [cell for cell in self.cells if cell.error is not None]


def _block_key(cell: CellResult):
    return (cell.stream, cell.learner, cell.budget)


def build_report(cells) -> ComparisonReport:
    """Flag per-block winners and improvements, then aggregate.

    Within each (stream, learner, budget) block the baseline is the best
    accuracy among non-hybrid cells; a hybrid cell is an improvement iff
    it strictly beats that baseline. Acc averages hybrid accuracies, Fh
    is the improved fraction over hybrid cells that have a baseline.
    Failed cells keep their place, unflagged.
    """
    cells = list(cells)
    baselines = {}
    best = {}
    for cell in cells:
        if cell.error is None:
            key = _block_key(cell)
            best[key] = max(best.get(key, cell.accuracy), cell.accuracy)
            if not cell.hybrid:
                baselines[key] = max(baselines.get(key, cell.accuracy), cell.accuracy)

    flagged = []
    for cell in cells:
        if cell.error is None:
            key = _block_key(cell)
            baseline = baselines.get(key)
            improved = cell.accuracy > baseline if cell.hybrid and baseline is not None else None
            cell = replace(cell, best=cell.accuracy == best[key], improved=improved)
        flagged.append(cell)

    hybrids = [c for c in flagged if c.hybrid and c.error is None]
    judged = [c for c in hybrids if c.improved is not None]
    return ComparisonReport(
        cells=tuple(flagged),
        acc=ordered_sum(c.accuracy for c in hybrids) / len(hybrids) if hybrids else 0.0,
        fh=sum(c.improved for c in judged) / len(judged) if judged else 0.0,
        hybrid_cells=len(hybrids),
    )


def to_records(report: ComparisonReport) -> list:
    """Flatten a report into plain dicts, cells first, aggregate last."""
    records = []
    for cell in report.scored:
        record = asdict(cell)
        del record["error"]
        records.append(dict(record, kind="cell"))
    for cell in report.failures:
        records.append(
            {
                "kind": "failure",
                "stream": cell.stream,
                "learner": cell.learner,
                "strategy": cell.strategy,
                "budget": cell.budget,
                "error": cell.error,
            }
        )
    records.append(
        {
            "kind": "aggregate",
            "acc": report.acc,
            "fh": report.fh,
            "hybrid_cells": report.hybrid_cells,
            "failures": len(report.failures),
        }
    )
    return records


def to_text(report: ComparisonReport) -> str:
    """Aligned comparison tables, one block per stream and learner.

    Strategies are rows and budgets are columns. The block maximum is
    starred and hybrid cells beating the best label-buying-only
    baseline get a plus.
    """
    groups = {}
    scored = report.scored
    budgets = sorted({cell.budget for cell in scored})
    labels = [f"B={b!r}" for b in budgets]
    width = max([12] + [len(label) for label in labels])
    for cell in scored:
        groups.setdefault((cell.stream, cell.learner), {}).setdefault(
            cell.strategy, {}
        )[cell.budget] = cell

    lines = []
    for (stream, learner), rows in groups.items():
        lines.append(f"stream={stream} learner={learner}")
        header = ["strategy".ljust(18)] + [label.rjust(width) for label in labels]
        lines.append("  " + " ".join(header))
        for strategy, by_budget in rows.items():
            row = [strategy.ljust(18)]
            for b in budgets:
                cell = by_budget.get(b)
                if cell is None:
                    row.append("-".rjust(width))
                    continue
                mark = "*" if cell.best else ""
                mark += "+" if cell.improved else ""
                row.append(f"{cell.accuracy * 100:.2f}{mark}".rjust(width))
            lines.append("  " + " ".join(row))
        lines.append("")
    for cell in report.failures:
        lines.append(
            f"failed: stream={cell.stream} learner={cell.learner}"
            f" strategy={cell.strategy} B={cell.budget!r}: {cell.error}"
        )
    lines.append(
        f"Acc={report.acc * 100:.2f} Fh={report.fh:.3f}"
        f" over {report.hybrid_cells} hybrid cells"
    )
    return "\n".join(lines) + "\n"

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
from dataclasses import dataclass, field
from typing import Optional

from .core import ConfigError


class PrequentialWindow:
    """Sliding-window 0/1 loss tracker with an exact running sum."""

    def __init__(self, window: int):
        if window < 1:
            raise ConfigError("evaluation window must be at least 1")
        self.window = int(window)
        self._losses = deque(maxlen=self.window)
        self._sum = 0

    def reset(self):
        self._losses.clear()
        self._sum = 0
        return self

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

    def __len__(self):
        return len(self._losses)


@dataclass(frozen=True)
class CellResult:
    """Seed-averaged outcome of one strategy in one table cell."""

    stream: str
    learner: str
    strategy: str
    hybrid: bool
    budget: float
    accuracy: float
    spend: float = 0.0
    seeds: int = 1
    error: Optional[str] = None


@dataclass(frozen=True)
class CellFlags:
    cell: CellResult
    best: bool
    improved: Optional[bool]  # None when the block has no pure baseline


@dataclass
class ComparisonReport:
    """Flagged cells plus the Acc/Fh aggregates."""

    flagged: list = field(default_factory=list)
    acc: float = 0.0
    fh: float = 0.0
    hybrid_cells: int = 0
    failures: list = field(default_factory=list)


def _block_key(cell: CellResult):
    return (cell.stream, cell.learner, cell.budget)


def build_report(cells) -> ComparisonReport:
    """Flag per-block winners and improvements, then aggregate.

    Within each (stream, learner, budget) block the baseline is the best
    accuracy among non-hybrid cells; a hybrid cell is an improvement iff
    it strictly beats that baseline. Acc averages hybrid accuracies, Fh
    is the improved fraction over hybrid cells that have a baseline.
    """
    cells = list(cells)
    failures = [c for c in cells if c.error is not None]
    scored = [c for c in cells if c.error is None]

    baselines = {}
    best = {}
    for cell in scored:
        key = _block_key(cell)
        if not cell.hybrid:
            prior = baselines.get(key)
            if prior is None or cell.accuracy > prior:
                baselines[key] = cell.accuracy
        prior = best.get(key)
        if prior is None or cell.accuracy > prior:
            best[key] = cell.accuracy

    flagged = []
    improved_count = 0
    judged = 0
    acc_sum = 0.0
    hybrid_cells = 0
    for cell in scored:
        key = _block_key(cell)
        baseline = baselines.get(key)
        improved = None
        if cell.hybrid:
            hybrid_cells += 1
            acc_sum += cell.accuracy
            if baseline is not None:
                improved = cell.accuracy > baseline
                judged += 1
                if improved:
                    improved_count += 1
        flagged.append(CellFlags(cell, cell.accuracy == best[key], improved))

    report = ComparisonReport(flagged=flagged, failures=failures)
    report.hybrid_cells = hybrid_cells
    if hybrid_cells:
        report.acc = acc_sum / hybrid_cells
    if judged:
        report.fh = improved_count / judged
    return report


def to_records(report: ComparisonReport) -> list:
    """Flatten a report into plain dicts, cells first, aggregate last."""
    records = []
    for flags in report.flagged:
        cell = flags.cell
        records.append(
            {
                "kind": "cell",
                "stream": cell.stream,
                "learner": cell.learner,
                "strategy": cell.strategy,
                "hybrid": cell.hybrid,
                "budget": cell.budget,
                "accuracy": cell.accuracy,
                "spend": cell.spend,
                "seeds": cell.seeds,
                "best": flags.best,
                "improved": flags.improved,
            }
        )
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
    budgets = sorted({f.cell.budget for f in report.flagged})
    for flags in report.flagged:
        cell = flags.cell
        groups.setdefault((cell.stream, cell.learner), {}).setdefault(
            cell.strategy, {}
        )[cell.budget] = flags

    lines = []
    for (stream, learner), rows in groups.items():
        lines.append(f"stream={stream} learner={learner}")
        header = ["strategy".ljust(18)] + [f"B={b:g}".rjust(12) for b in budgets]
        lines.append("  " + " ".join(header))
        for strategy, by_budget in rows.items():
            row = [strategy.ljust(18)]
            for b in budgets:
                flags = by_budget.get(b)
                if flags is None:
                    row.append("-".rjust(12))
                    continue
                mark = "*" if flags.best else ""
                mark += "+" if flags.improved else ""
                row.append(f"{flags.cell.accuracy * 100:.2f}{mark}".rjust(12))
            lines.append("  " + " ".join(row))
        lines.append("")
    for cell in report.failures:
        lines.append(
            f"failed: stream={cell.stream} learner={cell.learner}"
            f" strategy={cell.strategy} B={cell.budget:g}: {cell.error}"
        )
    lines.append(
        f"Acc={report.acc * 100:.2f} Fh={report.fh:.3f}"
        f" over {report.hybrid_cells} hybrid cells"
    )
    return "\n".join(lines) + "\n"

import json
import math

import pytest
from hypothesis import given, strategies as st

from driftlab.evaluation import (
    CellResult,
    PrequentialWindow,
    build_report,
    to_records,
    to_text,
)


class TestPrequentialWindow:
    def test_reference_sequence(self):
        win = PrequentialWindow(window=4)
        for loss in (0, 1, 0, 1):
            win.update(loss)
        assert win.error_rate() == 0.5
        assert win.accuracy() == 0.5

    def test_all_correct(self):
        win = PrequentialWindow(window=10)
        for _ in range(25):
            win.update(0)
        assert win.error_rate() == 0.0
        assert win.accuracy() == 1.0

    def test_empty_window(self):
        win = PrequentialWindow(1000)
        assert win.error_rate() == 0.0
        assert win.accuracy() == 1.0

    def test_partial_fill_divides_by_count(self):
        win = PrequentialWindow(window=1000)
        win.update(1)
        assert win.error_rate() == 1.0
        win.update(0)
        assert win.error_rate() == 0.5

    def test_eviction(self):
        win = PrequentialWindow(window=3)
        for loss in (1, 1, 1):
            win.update(loss)
        assert win.error_rate() == 1.0
        win.update(0)  # evicts one of the ones
        assert win.error_rate() == pytest.approx(2 / 3)
        win.update(0)
        win.update(0)
        assert win.error_rate() == 0.0

    def test_accepts_bools(self):
        win = PrequentialWindow(window=4)
        win.update(True)
        win.update(False)
        assert win.error_rate() == 0.5

    def test_rejects_other_losses(self):
        win = PrequentialWindow(1000)
        for loss in (2, -1, 0.7, 1.9, math.nan):
            with pytest.raises(ValueError):
                win.update(loss)
        win.update(1)  # the window holds this loss alone
        assert win.error_rate() == 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=40),
    )
    def test_matches_brute_force_everywhere(self, losses, window):
        win = PrequentialWindow(window=window)
        for i, loss in enumerate(losses):
            win.update(loss)
            tail = losses[max(0, i + 1 - window) : i + 1]
            assert win.error_rate() == sum(tail) / len(tail)


def cell(strategy, accuracy, hybrid=True, stream="s", learner="nb", budget=0.05, **kw):
    return CellResult(
        stream=stream,
        learner=learner,
        strategy=strategy,
        hybrid=hybrid,
        budget=budget,
        accuracy=accuracy,
        spend=0.0,
        seeds=1,
        **kw,
    )


class TestBuildReport:
    def test_duplicate_and_oracle_give_half(self):
        # one hybrid exactly ties the baseline (no strict win), one
        # clearly beats it: half the hybrid cells improved
        cells = [
            cell("randvar", 0.80, hybrid=False),
            cell("randvar+tie", 0.80),
            cell("randvar+oracle", 0.95),
        ]
        report = build_report(cells)
        assert report.fh == 0.5
        assert report.acc == pytest.approx((0.80 + 0.95) / 2)

    def test_pure_only_grid_has_no_hybrid_aggregates(self):
        report = build_report([cell("randvar", 0.9, hybrid=False)])
        assert report.fh == 0.0
        assert report.acc == 0.0
        assert report.hybrid_cells == 0

    def test_improved_is_strict_and_per_block(self):
        cells = [
            cell("random", 0.70, hybrid=False, budget=0.01),
            cell("randvar", 0.80, hybrid=False, budget=0.01),
            cell("randvar+fixed", 0.81, budget=0.01),
            cell("random", 0.90, hybrid=False, budget=0.05),
            cell("randvar+fixed", 0.85, budget=0.05),
        ]
        report = build_report(cells)
        by_key = {(c.strategy, c.budget): c for c in report.scored}
        assert by_key[("randvar+fixed", 0.01)].improved is True
        assert by_key[("randvar+fixed", 0.05)].improved is False
        assert by_key[("randvar", 0.01)].improved is None
        assert report.fh == 0.5

    def test_best_marks_block_maximum(self):
        cells = [
            cell("randvar", 0.80, hybrid=False),
            cell("randvar+fixed", 0.92),
        ]
        report = build_report(cells)
        best = {c.strategy: c.best for c in report.scored}
        assert best == {"randvar": False, "randvar+fixed": True}

    def test_hybrid_without_baseline_not_judged(self):
        report = build_report([cell("randvar+fixed", 0.9)])
        (scored,) = report.scored
        assert scored.improved is None
        assert report.fh == 0.0
        assert report.acc == 0.9

    def test_failures_split_out(self):
        cells = [
            cell("randvar", 0.8, hybrid=False),
            cell("randvar+bad", 0.0, error="ConfigError: nope"),
        ]
        report = build_report(cells)
        assert len(report.scored) == 1
        assert len(report.failures) == 1
        assert report.failures[0].error == "ConfigError: nope"
        # the report keeps every cell in input order, the failure unflagged
        assert [c.strategy for c in report.cells] == ["randvar", "randvar+bad"]
        assert report.cells[1] == cells[1]


class TestSerialization:
    def make_report(self):
        return build_report(
            [
                cell("randvar", 0.80, hybrid=False),
                cell("randvar+fixed", 0.85),
                cell("randvar+bad", 0.0, error="boom"),
            ]
        )

    def test_records_shape(self):
        records = to_records(self.make_report())
        kinds = [r["kind"] for r in records]
        assert kinds == ["cell", "cell", "failure", "aggregate"]
        assert records[-1]["fh"] == 1.0
        assert records[-1]["failures"] == 1
        assert set(records[0]) == {
            "kind", "stream", "learner", "strategy", "hybrid", "budget",
            "accuracy", "spend", "seeds", "best", "improved",
        }
        # records must be JSON-serializable as-is
        for record in records:
            json.loads(json.dumps(record))

    def test_text_table(self):
        text = to_text(self.make_report())
        assert "stream=s learner=nb" in text
        assert "randvar+fixed" in text
        assert "85.00*+" in text  # block max and improvement marks
        assert "failed:" in text and "boom" in text
        assert "Fh=1.000" in text

    def test_text_labels_tell_close_budgets_apart(self):
        # :g printed 0.1 and 0.1000000001 as the same B=0.1 column
        report = build_report(
            [
                cell("randvar", 0.8, hybrid=False, budget=0.1),
                cell("randvar", 0.9, hybrid=False, budget=0.1000000001),
                cell("randvar", 0.7, hybrid=False, budget=1.0),
                cell("randvar+bad", 0.0, budget=0.1000000001, error="boom"),
            ]
        )
        lines = to_text(report).splitlines()
        assert lines[1].split()[1:] == ["B=0.1", "B=0.1000000001", "B=1.0"]
        assert "strategy=randvar+bad B=0.1000000001: boom" in lines[-2]

    def test_text_missing_budget_cell(self):
        report = build_report(
            [
                cell("randvar", 0.8, hybrid=False, budget=0.01),
                cell("randvar", 0.9, hybrid=False, budget=0.05),
                cell("randvar+fixed", 0.85, budget=0.05),
            ]
        )
        text = to_text(report)
        line = next(l for l in text.splitlines() if "randvar+fixed" in l)
        assert "-" in line  # no B=0.01 cell for the hybrid row

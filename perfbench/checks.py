"""Correctness checks on the program's outputs.

Each check recomputes what it needs along a path of its own (counting
actions, re-deriving table flags, an independent naive Bayes) instead of
comparing against stored copies of earlier output. A check returns
``None`` when the output passes and a one-line description of the first
problem otherwise; ``test_checks.py`` feeds each one corrupted input.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from driftlab.hybrid import QUERIED, SELF_LABELED, SKIPPED

# labels may run one over budget * seen; the slack absorbs float rounding
_SLACK = 1e-9


def budget_prefix_error(actions, budget):
    """Bought labels never exceed ``budget * seen + 1`` at any prefix."""
    labeled = 0
    for seen, action in enumerate(actions, 1):
        if action == QUERIED:
            labeled += 1
            if labeled > budget * seen + 1 + _SLACK:
                return f"{labeled} labels bought after {seen} instances at budget {budget}"
    return None


def conservation_error(actions, summary, self_label):
    """Every instance got exactly one action, and the counts the benchmark
    saw equal the run summary's counters."""
    counts = Counter(actions)
    if set(counts) - {QUERIED, SELF_LABELED, SKIPPED}:
        return f"unknown actions {sorted(set(counts) - {QUERIED, SELF_LABELED, SKIPPED})}"
    seen = {"queried": counts[QUERIED], "self_labeled": counts[SELF_LABELED], "skipped": counts[SKIPPED]}
    if summary["instances"] != len(actions):
        return f"summary reports {summary['instances']} instances, {len(actions)} processed"
    if sum(summary[k] for k in seen) != summary["instances"]:
        return "queried + self_labeled + skipped != instances in the summary"
    for key, value in seen.items():
        if summary[key] != value:
            return f"summary {key}={summary[key]}, actions counted {value}"
    if self_label == "none" and seen["self_labeled"]:
        return f"{seen['self_labeled']} self-labeled steps without self-labeling"
    return None


def posterior_error(probs, top_prob, class_count):
    """A posterior sums to 1 and its top entry lies in [1/classes, 1]."""
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        return f"probabilities sum to {total!r}"
    if not 1.0 / class_count - 1e-12 <= top_prob <= 1.0 + 1e-12:
        return f"top probability {top_prob!r} outside [1/{class_count}, 1]"
    if top_prob != max(probs):
        return f"top probability {top_prob!r} is not the largest entry"
    return None


class ReferenceNaiveBayes:
    """Gaussian/categorical naive Bayes written from its definition.

    Numeric attributes: per-class Gaussian with the population variance,
    floored at 1e-6; a class that has seen no value of an attribute adds
    nothing for it. Nominal attributes: add-one smoothed frequencies.
    Missing values (``None``) are skipped on both train and predict.
    Classes never trained on are out of the running; an untrained model
    and ties answer the lowest class index.
    """

    def __init__(self, cardinalities, class_count):
        # cardinality 0 marks a numeric attribute
        self.cards = list(cardinalities)
        self.class_count = class_count
        d = len(self.cards)
        self.count = [0] * class_count
        self.n = [[0] * d for _ in range(class_count)]
        self.mean = [[0.0] * d for _ in range(class_count)]
        self.m2 = [[0.0] * d for _ in range(class_count)]
        self.freq = [[[0] * max(card, 1) for card in self.cards] for _ in range(class_count)]

    def train(self, x, y):
        self.count[y] += 1
        for j, v in enumerate(x):
            if v is None:
                continue
            self.n[y][j] += 1
            if self.cards[j]:
                self.freq[y][j][v] += 1
            else:
                k = self.n[y][j]
                old = self.mean[y][j]
                self.mean[y][j] = old + (v - old) / k
                self.m2[y][j] += (v - old) * (v - self.mean[y][j])

    def score(self, x, y):
        s = math.log(self.count[y])
        for j, v in enumerate(x):
            n = self.n[y][j]
            if v is None:
                continue
            card = self.cards[j]
            if card:
                s += math.log((self.freq[y][j][v] + 1) / (n + card))
            elif n:
                var = max(self.m2[y][j] / n, 1e-6)
                s -= 0.5 * math.log(2.0 * math.pi * var) + (v - self.mean[y][j]) ** 2 / (2.0 * var)
        return s

    def predict(self, x):
        best, best_score = 0, -math.inf
        for y in range(self.class_count):
            if self.count[y]:
                s = self.score(x, y)
                if s > best_score:
                    best, best_score = y, s
        return best


def reference_predictions(cardinalities, class_count, instances):
    """Test-then-train predictions of the reference on every instance."""
    model = ReferenceNaiveBayes(cardinalities, class_count)
    out = []
    for inst in instances:
        out.append(model.predict(inst.features))
        model.train(inst.features, inst.label)
    return out


def reference_error(program, reference, tolerance=0):
    """The program's predictions match the reference's at every step but
    at most ``tolerance`` of them."""
    if len(program) != len(reference):
        return f"{len(program)} program predictions, {len(reference)} reference ones"
    differ = [i for i, (a, b) in enumerate(zip(program, reference), 1) if a != b]
    if len(differ) > tolerance:
        return f"{len(differ)} of {len(program)} steps disagree with the reference, first at {differ[0]}"
    return None


def _cells(records):
    return [r for r in records if r["kind"] == "cell"]


def _aggregate(records):
    found = [r for r in records if r["kind"] == "aggregate"]
    return found[-1] if found else None


def grid_flags_error(records):
    """``best``/``improved`` flags and Acc/Fh re-derived from the cells."""
    cells = _cells(records)
    best, baseline = {}, {}
    for r in cells:
        key = (r["stream"], r["learner"], r["budget"])
        best[key] = max(best.get(key, -1.0), r["accuracy"])
        if not r["hybrid"]:
            baseline[key] = max(baseline.get(key, -1.0), r["accuracy"])
    hybrid = judged = improved = 0
    acc_sum = 0.0
    for r in cells:
        key = (r["stream"], r["learner"], r["budget"])
        want_improved = None
        if r["hybrid"]:
            hybrid += 1
            acc_sum += r["accuracy"]
            if key in baseline:
                judged += 1
                want_improved = r["accuracy"] > baseline[key]
                improved += want_improved
        if r["best"] != (r["accuracy"] == best[key]):
            return f"best flag of {key} {r['strategy']} is {r['best']}"
        if r["improved"] != want_improved:
            return f"improved flag of {key} {r['strategy']} is {r['improved']}"
    agg = _aggregate(records)
    if agg is None:
        return "no aggregate record"
    want = {
        "acc": acc_sum / hybrid if hybrid else 0.0,
        "fh": improved / judged if judged else 0.0,
        "hybrid_cells": hybrid,
        "failures": sum(r["kind"] == "failure" for r in records),
    }
    for key, value in want.items():
        if not math.isclose(agg[key], value, rel_tol=1e-12, abs_tol=1e-15):
            return f"aggregate {key}={agg[key]!r}, recomputed {value!r}"
    return None


_BLOCK = re.compile(r"^stream=(\S+) learner=(\S+)$")
_ENTRY = re.compile(r"^(\d+\.\d\d)(\*?)(\+?)$")


def table_error(text, records):
    """Every cell of the text table shows its record's accuracy and marks,
    and the closing line shows the records' Acc/Fh."""
    shown = {}
    block = budgets = None
    for line in text.splitlines():
        match = _BLOCK.match(line)
        if match:
            block, budgets = match.groups(), None
            continue
        tokens = line.split()
        if not tokens:
            block = None  # a blank line closes a block
        if block is None:
            continue
        if tokens[0] == "strategy":
            budgets = [float(t[2:]) for t in tokens[1:]]
            continue
        if budgets is None:
            continue
        for budget, entry in zip(budgets, tokens[1:]):
            if entry != "-":
                shown[(*block, tokens[0], budget)] = entry
    cells = _cells(records)
    if len(shown) != len(cells):
        return f"table shows {len(shown)} cells, records hold {len(cells)}"
    for r in cells:
        key = (r["stream"], r["learner"], r["strategy"], r["budget"])
        entry = shown.get(key)
        if entry is None:
            return f"cell {key} missing from the table"
        match = _ENTRY.match(entry)
        want = (f"{r['accuracy'] * 100:.2f}", "*" if r["best"] else "", "+" if r["improved"] else "")
        if match is None or match.groups() != want:
            return f"cell {key} shows {entry!r}, records say {''.join(want)!r}"
    agg = _aggregate(records)
    line = f"Acc={agg['acc'] * 100:.2f} Fh={agg['fh']:.3f} over {agg['hybrid_cells']} hybrid cells"
    if line not in text.splitlines():
        return f"table lacks the aggregate line {line!r}"
    return None


def cell_spend_error(records, lengths):
    """A cell never spends more than its budget plus one label."""
    for r in _cells(records):
        limit = r["budget"] + 1.0 / lengths[r["stream"]] + _SLACK
        if r["spend"] > limit:
            return f"cell {r['stream']} {r['learner']} {r['strategy']} spends {r['spend']!r} over {limit!r}"
    return None


def cell_accuracy_error(record, accuracies):
    """A cell's accuracy is the mean of its runs' accuracies."""
    want = sum(accuracies) / len(accuracies)
    if record["accuracy"] != want:
        return (
            f"cell {record['stream']} {record['learner']} {record['strategy']}"
            f" B={record['budget']}: {record['accuracy']!r}, direct runs give {want!r}"
        )
    return None

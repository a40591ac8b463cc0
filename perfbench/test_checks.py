"""Self-tests of the benchmark's correctness checks.

Each check must pass the program's real output and reject a deliberately
corrupted copy. Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
from driftlab import HybridConfig, build_runner, streams  # noqa: E402
from driftlab.evaluation import CellResult, build_report, to_records, to_text  # noqa: E402
from driftlab.hybrid import QUERIED, SELF_LABELED, SKIPPED  # noqa: E402


def program_run(stream, config, want_record=False):
    runner = build_runner(stream.schema, HybridConfig(*config))
    out = [runner.process_instance(inst, want_record) for inst in stream.instances]
    return out, runner.summary(stream.name).to_dict()


def narrow_stream(tmp_path, n=600):
    path = tmp_path / "narrow.csv"
    inputs.write_narrow_csv(path, n, 3)
    return streams.read_csv(path)


def test_budget_prefix_accepts_a_run_and_rejects_two_extra_labels(tmp_path):
    actions, _ = program_run(narrow_stream(tmp_path), ("nb", "randvar", "cddm", 0.1, 0))
    assert checks.budget_prefix_error(actions, 0.1) is None
    assert checks.budget_prefix_error([QUERIED], 0.0) is None  # one label over is allowed
    # the first two steps the program did not buy, now bought: two over
    skipped = [i for i, a in enumerate(actions) if a != QUERIED][:2]
    corrupted = list(actions)
    for i in skipped:
        corrupted[i] = QUERIED
    assert checks.budget_prefix_error(corrupted, 0.1) is not None


def test_conservation_rejects_miscounts(tmp_path):
    actions, summary = program_run(narrow_stream(tmp_path), ("nb", "randvar", "cddm", 0.1, 0))
    assert checks.conservation_error(actions, summary, "cddm") is None
    assert checks.conservation_error(actions, dict(summary, skipped=summary["skipped"] + 1), "cddm")
    assert checks.conservation_error(actions[:-1], summary, "cddm")
    relabeled = [SELF_LABELED if a == SKIPPED else a for a in actions]
    counts = dict(summary, self_labeled=summary["self_labeled"] + summary["skipped"], skipped=0)
    assert checks.conservation_error(relabeled, counts, "cddm") is None
    assert checks.conservation_error(relabeled, counts, "none") is not None


def test_posterior_bounds():
    assert checks.posterior_error([0.25, 0.75], 0.75, 2) is None
    assert checks.posterior_error([1 / 3] * 3, 1 / 3, 3) is None
    assert checks.posterior_error([0.45, 0.45], 0.45, 2) is not None  # sums to 0.9
    assert checks.posterior_error([0.2, 0.8], 0.2, 2) is not None  # top is not the max
    assert checks.posterior_error([0.0, 1.0], -1.0, 2) is not None


def test_reference_agrees_with_program_and_catches_one_flip(tmp_path):
    path = tmp_path / "wide.arff"
    inputs.write_wide_arff(path, 1500, 4, "wide")
    stream = streams.read_arff(path)
    assert any(v is None for inst in stream.instances for v in inst.features)
    records, _ = program_run(stream, ("nb", "random", "none", 1.0, 0), want_record=True)
    program = [r.predicted for r in records]
    cards = [a.cardinality for a in stream.schema.attributes]
    reference = checks.reference_predictions(cards, stream.schema.class_count, stream.instances)
    assert checks.reference_error(program, reference) is None
    flipped = list(program)
    flipped[700] = (flipped[700] + 1) % stream.schema.class_count
    assert checks.reference_error(flipped, reference) is not None


def grid_outputs():
    cells = []
    for stream, budget, accs in (
        ("s", 0.1, (0.80, 0.70, 0.75, 0.82)),
        ("s", 0.5, (0.90, 0.91, 0.85, 0.88)),
        ("t", 0.1, (0.60, 0.62, 0.61, 0.50)),
    ):
        for strategy, acc in zip(("random", "randvar", "randvar+fixed", "randvar+cddm"), accs):
            cells.append(CellResult(stream, "nb", strategy, "+" in strategy, budget, acc, spend=budget, seeds=2))
    report = build_report(cells)
    return to_records(report), to_text(report)


def test_grid_flags_and_table_agree_and_catch_a_flipped_plus():
    records, text = grid_outputs()
    assert checks.grid_flags_error(records) is None
    assert checks.table_error(text, records) is None
    # randvar+cddm at s/0.1 beats the baseline: drop its plus
    flipped = text.replace("82.00*+", "82.00*", 1)
    assert flipped != text
    assert checks.table_error(flipped, records) is not None
    bad = [dict(r) for r in records]
    target = next(r for r in bad if r.get("improved") is True)
    target["improved"] = False
    assert checks.grid_flags_error(bad) is not None
    bad_aggregate = records[:-1] + [dict(records[-1], fh=records[-1]["fh"] + 0.01)]
    assert checks.grid_flags_error(bad_aggregate) is not None


def test_cell_spend_and_accuracy():
    records, _ = grid_outputs()
    lengths = {"s": 1000, "t": 1000}
    assert checks.cell_spend_error(records, lengths) is None
    over = [dict(r, spend=r["budget"] + 0.002) if r["kind"] == "cell" else r for r in records]
    assert checks.cell_spend_error(over, lengths) is not None
    record = {"stream": "s", "learner": "nb", "strategy": "random", "budget": 0.1}
    runs = [0.7125, 0.69]
    assert checks.cell_accuracy_error(dict(record, accuracy=sum(runs) / 2), runs) is None
    # the cell's mean as if one of its runs had gone otherwise
    assert checks.cell_accuracy_error(dict(record, accuracy=(0.7125 + 0.7) / 2), runs) is not None

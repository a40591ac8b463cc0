"""Outputs do not depend on how the running Python's ``sum()`` rounds.

From Python 3.12, builtin ``sum()`` of floats uses Neumaier compensated
summation, so its totals can differ in the last bit from the plain
left-to-right ``+=`` of 3.10 and 3.11. driftlab adds every list of floats
with ``core.ordered_sum`` instead, which keeps outputs byte-identical
across supported Pythons. These tests patch 3.12's algorithm into
``builtins.sum`` and check that no output byte moves, whichever Python
runs them.
"""

from __future__ import annotations

import builtins
import math

from test_golden import DIGESTS, GEN, digests, write_arff

from driftlab.cli import main

_sum = builtins.sum

GRID = "gen:family=gaussian-clusters,kind=sudden,n=1500,changes=700,classes=3,seed=4"


def compensated(values, start=0):
    """``sum()`` as Python 3.12 computes it: integers plainly, and from
    the first float on, each further float with Neumaier's compensation,
    which is added back at the end if it is finite."""
    values = list(values)
    if start != 0 or not all(type(v) in (int, bool, float) for v in values):
        return _sum(values, start)
    k = next((k for k, v in enumerate(values) if type(v) is float), len(values))
    if k == len(values):
        return _sum(values)
    s = _sum(values[:k]) + values[k]
    c = 0.0
    for x in values[k + 1 :]:
        if type(x) is not float:
            s += x
            continue
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    if c and math.isfinite(c):
        s += c
    return s


def test_compensated_is_the_neumaier_sum():
    assert compensated([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert compensated([0.1] * 10) == 1.0
    assert compensated([1, 2, True]) == 4
    assert compensated([[1], [2]], []) == [1, 2]


def compare_digests(argv, out) -> dict:
    out.mkdir()
    argv = argv + ["--jobs", "1", "--table-out", str(out / "table.txt"), "--records-out", str(out / "records.jsonl")]
    assert main(argv) == 0
    return digests(out)


def test_compare_outputs_do_not_depend_on_how_sum_rounds(tmp_path, monkeypatch):
    monkeypatch.delenv("DRIFTLAB_JOBS", raising=False)
    monkeypatch.chdir(tmp_path)
    write_arff(tmp_path / "golden.arff")
    grid = ["compare", "--streams", GRID, "--learners", "nb,ht", "--al", "random,randvar"]
    grid += ["--sl", "cddm,fixed", "--budgets", "0.1,0.5", "--seeds", "3"]
    plain = compare_digests(grid, tmp_path / "plain")

    monkeypatch.setattr(builtins, "sum", compensated)
    golden = ["compare", "--streams", GEN, "golden.arff", "--learners", "nb,ht,awe"]
    golden += ["--al", "random,sampling,randvar", "--sl", "cddm,randuni", "--budgets", "0.1,0.5", "--seeds", "2"]
    assert compare_digests(golden, tmp_path / "golden") == DIGESTS["compare"]
    assert compare_digests(grid, tmp_path / "compensated") == plain

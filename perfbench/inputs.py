"""Seeded input streams for the benchmark, generated with numpy alone.

The program under test only ever sees the files written here, through
its own readers and CLI. Nothing in this module imports ``driftlab``:
the streams must not depend on the generators being measured.

Two stream make-ups:

* ``narrow``: 2 numeric attributes, 2 classes, one sudden change at the
  midpoint. Each class is a unit-variance Gaussian around +-(1, 1); after
  the change the class means move to +-(1, -1). Written as CSV with a
  header row.
* ``wide``: 8 numeric and 2 nominal attributes, 4 classes, about 1% of
  feature cells missing, and two sudden changes (at 35% and 70%). Class
  ``c`` of concept ``k`` is a unit-variance Gaussian shifted by 1.5 on
  the attribute pair ``2 * WIDE_PAIRS[k][c]``: the first change swaps the
  pairs of classes 0 and 1, the second also those of classes 2 and 3.
  The nominal attributes favour one value per class (``n1`` re-maps it at
  each change). Written as ARFF with ``?`` for missing cells.
"""

from __future__ import annotations

import numpy as np

NARROW_CLASSES = ("c0", "c1")
WIDE_CLASSES = ("k0", "k1", "k2", "k3")
WIDE_NUMERIC = 8
WIDE_NOMINAL = (("n0", ("a", "b", "c")), ("n1", ("p", "q", "r", "s")))
WIDE_MISSING = 0.01
WIDE_PAIRS = np.array([(0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 3, 2)])


def narrow(n: int, seed: int):
    """(features float array n x 2, labels int array n) for the narrow make-up."""
    rng = np.random.default_rng([seed, 1])
    labels = rng.integers(0, 2, size=n)
    sign = np.where(labels == 1, 1.0, -1.0)
    after = np.arange(n) >= n // 2
    means = np.stack([sign, np.where(after, -sign, sign)], axis=1)
    return means + rng.standard_normal((n, 2)), labels


def wide(n: int, seed: int):
    """(numeric float array with NaN for missing, nominal int array with -1
    for missing, labels int array) for the wide make-up."""
    rng = np.random.default_rng([seed, 2])
    labels = rng.integers(0, 4, size=n)
    concept = np.searchsorted([int(n * 0.35), int(n * 0.7)], np.arange(n), side="right")
    numeric = rng.standard_normal((n, WIDE_NUMERIC))
    pair = 2 * WIDE_PAIRS[concept, labels]
    rows = np.arange(n)
    numeric[rows, pair] += 1.5
    numeric[rows, pair + 1] += 1.5
    nominal = np.empty((n, len(WIDE_NOMINAL)), dtype=np.int64)
    for j, (_, values) in enumerate(WIDE_NOMINAL):
        card = len(values)
        favoured = (labels + j * concept) % card
        other = rng.integers(0, card, size=n)
        nominal[:, j] = np.where(rng.random(n) < 0.5, favoured, other)
    numeric[rng.random(numeric.shape) < WIDE_MISSING] = np.nan
    nominal[rng.random(nominal.shape) < WIDE_MISSING] = -1
    return numeric, nominal, labels


def _cell(value: float) -> str:
    return "?" if value != value else f"{value:.6f}"


def write_narrow_csv(path, n: int, seed: int) -> None:
    features, labels = narrow(n, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x0,x1,class\n")
        for (a, b), y in zip(features.tolist(), labels.tolist()):
            fh.write(f"{_cell(a)},{_cell(b)},{NARROW_CLASSES[y]}\n")


def write_wide_arff(path, n: int, seed: int, relation: str) -> None:
    numeric, nominal, labels = wide(n, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"@relation {relation}\n\n")
        for j in range(WIDE_NUMERIC):
            fh.write(f"@attribute x{j} numeric\n")
        for name, values in WIDE_NOMINAL:
            fh.write(f"@attribute {name} {{{','.join(values)}}}\n")
        fh.write(f"@attribute class {{{','.join(WIDE_CLASSES)}}}\n\n@data\n")
        for xs, ks, y in zip(numeric.tolist(), nominal.tolist(), labels.tolist()):
            cells = [_cell(v) for v in xs]
            cells += ["?" if k < 0 else WIDE_NOMINAL[j][1][k] for j, k in enumerate(ks)]
            cells.append(WIDE_CLASSES[y])
            fh.write(",".join(cells) + "\n")

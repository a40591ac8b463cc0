"""Shared data model for stream experiments.

Streams are sequences of :class:`Instance` objects described by a
:class:`StreamSchema`. Classifiers communicate through
:class:`ClassPosterior`, a normalized distribution over the schema's
classes. Everything here is deliberately plain: tuples, floats and
``None`` for missing values, so the per-instance hot paths stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NUMERIC = "numeric"
NOMINAL = "nominal"

#: Feature value marking an absent / unparseable measurement.
MISSING = None


class DriftLabError(Exception):
    """Base class for all errors raised by this package."""


class SchemaMismatch(DriftLabError):
    """Stream data is malformed, empty, or disagrees with its schema."""


class ConfigError(DriftLabError):
    """A setting or spec that no run can take."""


class InvalidPosterior(DriftLabError, ValueError):
    """Entries that are no distribution, as when a huge feature value overflows."""


@dataclass(frozen=True)
class Attribute:
    """One column of a stream: a name plus a numeric or nominal kind.

    Nominal attributes carry their category names; a stored feature value
    is then an integer index into ``values``. Numeric features are floats.
    Either kind may be ``MISSING`` (``None``) in an instance.
    """

    name: str
    kind: str
    values: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, NOMINAL):
            raise ValueError(f"unknown attribute kind: {self.kind!r}")
        if self.kind == NOMINAL and len(self.values) < 1:
            raise ValueError(f"nominal attribute {self.name!r} needs category names")
        if self.kind == NUMERIC and self.values:
            raise ValueError(f"numeric attribute {self.name!r} cannot have categories")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name!r} repeats a category name")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class StreamSchema:
    """Ordered attribute list plus the class-name list (always last column)."""

    attributes: tuple[Attribute, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.attributes, tuple):
            object.__setattr__(self, "attributes", tuple(self.attributes))
        if not isinstance(self.class_names, tuple):
            object.__setattr__(self, "class_names", tuple(self.class_names))
        if len(self.class_names) < 2:
            raise ValueError("a stream schema needs at least two classes")
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError("class names must be unique")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


class Instance:
    """One stream element: a feature tuple plus the hidden true label index.

    The label rides along for prequential scoring (a :class:`LoadedStream`
    rejects ``None``); learning sees it only once it is bought.
    """

    __slots__ = ("features", "label")

    def __init__(self, features, label):
        self.features = features
        self.label = label

    def __repr__(self):
        return f"Instance({self.features!r}, label={self.label!r})"


@dataclass
class LoadedStream:
    """A fully materialized stream: schema, ordered instances, provenance.

    Grids replay one stream many times, so it is materialized; metadata
    echoes its source (file path or generator settings). It has at least
    one instance, each labeled: checked here once, so consumers trust it.
    """

    name: str
    schema: StreamSchema
    instances: list
    metadata: dict

    def __post_init__(self):
        if not self.instances:
            raise SchemaMismatch(f"stream {self.name!r} has no instances")
        for position, instance in enumerate(self.instances, start=1):
            if instance.label is None:
                raise SchemaMismatch(
                    f"stream {self.name!r} instance {position} has no label;"
                    " prequential runs need fully labeled streams"
                )

    def __len__(self):
        return len(self.instances)


class ClassPosterior:
    """Normalized class-probability vector with a cached argmax.

    Ties on the maximum go to the lowest index, so prediction is
    deterministic. ``second_prob`` (the runner-up probability) feeds the
    margin-based query strategy.
    """

    __slots__ = ("probs", "top_index", "top_prob", "second_prob")

    def __init__(self, probs):
        """Normalize ``probs``, a learner's 2+ entries, none negative; a
        NaN or inf entry makes the sum non-finite, which raises."""
        total = ordered_sum(probs)
        if not 0.0 < total < math.inf:  # an inf entry would normalize to NaN
            raise _invalid(probs, total)
        inv = 1.0 / total
        normalized = []
        append = normalized.append
        best = second = -1.0
        best_i = i = 0
        for p in probs:
            q = p * inv
            append(q)
            if q > best:
                second, best, best_i = best, q, i
            elif q > second:
                second = q
            i += 1
        self.probs = normalized
        self.top_index = best_i
        self.top_prob = best
        self.second_prob = second

    @classmethod
    def uniform(cls, class_count: int) -> "ClassPosterior":
        self = cls.__new__(cls)
        p = 1.0 / class_count
        self.probs = [p] * class_count
        self.top_index = 0
        self.top_prob = p
        self.second_prob = p
        return self

    def __repr__(self):
        return f"ClassPosterior({self.probs!r})"


def ordered_sum(values) -> float:
    """``values`` added left to right with ``+=``, starting from ``0.0``.

    This package adds every list of floats here, never with ``sum()``:
    from Python 3.12 ``sum()`` of floats compensates its rounding
    (Neumaier), so its totals, and every output built from them, would
    differ from those of 3.10 and 3.11 in the last bits.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def draws(method):
    """A numpy ``Generator`` method's values, drawn 256 at a time: those of
    one scalar call each, if the caller owns the generator outright."""
    while True:
        yield from method(256).tolist()


def adaptive_step(bar: float, up: bool, step: float, class_count: int) -> float:
    """An adaptive bar after one decision: times ``1 + step`` if ``up``,
    else times ``1 - step``, clamped to [1/class_count, 1]."""
    bar *= 1.0 + step if up else 1.0 - step
    floor = 1.0 / class_count
    if bar < floor:
        return floor
    if bar > 1.0:
        return 1.0
    return bar


def _invalid(probs, total) -> InvalidPosterior:
    for i, p in enumerate(probs):
        if not p >= 0.0:
            return InvalidPosterior(f"probability entry {i} is negative or NaN: {p!r}")
    return InvalidPosterior(f"probabilities must have a positive finite sum, got {total!r}")

"""Invariants of the learners and the hybrid loop over random streams.

Every stream here has finite or missing feature cells: numeric cells are
finite floats or ``MISSING``, nominal cells a category or ``MISSING``.
Half the streams keep numeric cells within +-OVERFLOW and must run to the
end. The other half span the whole finite range, so a model's arithmetic
can overflow: a stream with a cell beyond +-OVERFLOW may then end in one
of ``OVERFLOW_ERRORS``. Up to that point every invariant holds, and no
other error is allowed.
"""

import copy
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.core import NOMINAL, NUMERIC, Attribute, Instance, InvalidPosterior, StreamSchema
from driftlab.hybrid import (
    ACTIVE,
    LEARNERS,
    QUERIED,
    SELF_LABEL,
    SELF_LABELED,
    HybridConfig,
    HybridRunner,
    build_runner,
)
from driftlab.learners import AccuracyWeightedEnsemble, HoeffdingTree, NaiveBayes
from driftlab.selflabel import SelfLabelDecision

# Within +-OVERFLOW a squared deviation stays finite even times the
# Gaussian's largest 1/(2 var), 0.5/VARIANCE_FLOOR, summed over 4 attributes.
OVERFLOW = 1e150
OVERFLOW_ERRORS = (InvalidPosterior,)


def numeric_values(bound):
    return st.one_of(
        st.none(),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.floats(-bound, bound, allow_nan=False, allow_infinity=False),
        st.sampled_from(
            [v for v in (0.0, 1.0, -1.0, 1e100, -1e100, 1e200, -1e200, 1.7e308, -1.7e308) if abs(v) <= bound]
        ),
    )


def may_overflow(instances) -> bool:
    return any(
        isinstance(v, float) and abs(v) > OVERFLOW for inst in instances for v in inst.features
    )


@st.composite
def streams(draw, max_size=80):
    """(schema, instances): 1 to 4 attributes of either kind, 2 to 4
    classes, and a labeled stream of finite-or-missing cells, bounded by
    +-OVERFLOW in half the streams."""
    bound = draw(st.sampled_from([OVERFLOW, sys.float_info.max]))
    kinds = draw(st.lists(st.sampled_from([NUMERIC, NOMINAL]), min_size=1, max_size=4))
    attributes = tuple(
        Attribute(f"x{i}", NUMERIC) if kind == NUMERIC else Attribute(f"x{i}", NOMINAL, ("a", "b", "c"))
        for i, kind in enumerate(kinds)
    )
    classes = draw(st.integers(2, 4))
    schema = StreamSchema(attributes, tuple(f"c{y}" for y in range(classes)))
    cell = {NUMERIC: numeric_values(bound), NOMINAL: st.one_of(st.none(), st.integers(0, 2))}
    instance = st.builds(
        Instance,
        st.tuples(*(cell[kind] for kind in kinds)),
        st.integers(0, classes - 1),
    )
    return schema, draw(st.lists(instance, min_size=1, max_size=max_size))


class SmallTree(HoeffdingTree):
    grace_period = 5
    tie_threshold = 0.5


class SmallEnsemble(AccuracyWeightedEnsemble):
    chunk_size = 4
    capacity = 3


# small chunks and grace periods, so ensembles close chunks and trees split
SMALL_LEARNERS = {"nb": NaiveBayes, "ht": SmallTree, "awe": SmallEnsemble}


@settings(max_examples=80, deadline=None)
@given(streams(), st.sampled_from(sorted(SMALL_LEARNERS)))
def test_posteriors_are_distributions(stream, name):
    schema, instances = stream
    learner = SMALL_LEARNERS[name](schema)
    try:
        for instance in instances:
            probs = learner.predict(instance.features).probs
            assert len(probs) == schema.class_count
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            learner.train(instance.features, instance.label)
    except OVERFLOW_ERRORS:
        assert may_overflow(instances)


@settings(max_examples=60, deadline=None)
@given(streams())
def test_nominal_totals_are_the_category_counts(stream):
    # one count per class and attribute: a nominal attribute's n is the
    # total of its category counts, which split scoring and smoothing read
    schema, instances = stream
    nb = NaiveBayes(schema)
    for instance in instances:
        nb.train(instance.features, instance.label)
    for y in range(schema.class_count):
        for j in nb._nominal:
            assert nb._n[y][j] == sum(nb._vcounts[y][j])


def configs():
    return st.builds(
        HybridConfig,
        learner=st.sampled_from(sorted(LEARNERS)),
        active=st.just("randvar"),
        self_label=st.sampled_from(sorted(SELF_LABEL)),
        budget=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**16),
    ) | st.builds(
        HybridConfig,
        learner=st.sampled_from(sorted(LEARNERS)),
        active=st.sampled_from(sorted(set(ACTIVE) - {"randvar"})),
        self_label=st.sampled_from(sorted(set(SELF_LABEL) - {"invunc"})),
        budget=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )


@settings(max_examples=80, deadline=None)
@given(streams(), configs())
def test_budget_prefix_invariant(stream, config):
    """At every prefix, bought labels exceed budget x seen by less than one."""
    schema, instances = stream
    runner = build_runner(schema, config)
    budget = Fraction(config.budget)
    try:
        for instance in instances:
            record = runner.process_instance(instance)
            assert Fraction(record.queried) < budget * record.index + 1
            assert record.queried == runner.queried
    except OVERFLOW_ERRORS:
        assert may_overflow(instances)


class AcceptAll:
    """Self-labels every instance it is offered."""

    def decide(self, posterior, run):
        return SelfLabelDecision(True, 0.0)


def monitor_state(runner):
    return copy.deepcopy(
        [vars(runner.error_monitor), vars(runner.distance_monitor), vars(runner.error_window)]
    )


@settings(max_examples=60, deadline=None)
@given(streams(), configs(), st.booleans())
def test_self_labeled_steps_leave_the_detectors_alone(stream, config, accept_all):
    schema, instances = stream
    runner = build_runner(schema, config)
    if accept_all:
        runner = HybridRunner(schema, runner.learner, runner.active, AcceptAll(), config.budget)
    try:
        for instance in instances:
            before = monitor_state(runner)
            record = runner.process_instance(instance)
            if record.action != QUERIED:
                assert monitor_state(runner) == before
            if accept_all:
                assert record.action in (QUERIED, SELF_LABELED)
    except OVERFLOW_ERRORS:
        assert may_overflow(instances)

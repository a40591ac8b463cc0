import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab.core import (
    NOMINAL,
    NUMERIC,
    Attribute,
    ClassPosterior,
    DriftLabError,
    Instance,
    InvalidPosterior,
    LoadedStream,
    SchemaMismatch,
    StreamSchema,
    adaptive_step,
    ordered_sum,
)


def two_class_schema():
    return StreamSchema(
        (
            Attribute("x0", NUMERIC),
            Attribute("color", NOMINAL, ("red", "green", "blue")),
        ),
        ("no", "yes"),
    )


def test_ordered_sum_adds_left_to_right():
    # a compensated sum, as sum() is from Python 3.12, gives 2.0
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert ordered_sum(iter([0.1] * 10)) == 0.9999999999999999


def test_ordered_sum_of_nothing_is_zero():
    assert ordered_sum([]) == 0.0


def test_adaptive_step_multiplies_by_one_plus_or_minus_step():
    assert adaptive_step(0.8, True, 0.01, 2) == 0.8 * (1.0 + 0.01)
    assert adaptive_step(0.8, False, 0.01, 2) == 0.8 * (1.0 - 0.01)
    assert adaptive_step(0.5, True, 0.25, 4) == 0.625
    assert adaptive_step(0.5, False, 0.25, 4) == 0.375


def test_adaptive_step_clamps_to_the_class_floor_and_to_one():
    assert adaptive_step(0.5, False, 0.01, 2) == 0.5
    assert adaptive_step(0.26, False, 0.1, 4) == 0.25
    assert adaptive_step(1.0, True, 0.01, 2) == 1.0
    assert adaptive_step(0.999, True, 0.01, 3) == 1.0


@given(
    st.floats(0.0, 1.0),
    st.booleans(),
    st.floats(0.0, 0.5),
    st.integers(2, 50),
)
def test_adaptive_step_stays_in_range(bar, up, step, classes):
    stepped = adaptive_step(bar, up, step, classes)
    assert 1.0 / classes <= stepped <= 1.0
    unclamped = bar * (1.0 + step if up else 1.0 - step)
    assert stepped == min(max(unclamped, 1.0 / classes), 1.0)


def test_attribute_kind_validation():
    with pytest.raises(ValueError):
        Attribute("x", "stringy")


def test_nominal_attribute_needs_values():
    with pytest.raises(ValueError):
        Attribute("color", NOMINAL)


def test_numeric_attribute_rejects_values():
    with pytest.raises(ValueError):
        Attribute("x", NUMERIC, ("a", "b"))


def test_nominal_attribute_rejects_repeated_values():
    # a repeated name would make a category that no cell can ever select
    with pytest.raises(ValueError, match="attribute 'color' repeats a category name"):
        Attribute("color", NOMINAL, ("red", "red", "blue"))


def test_attribute_cardinality():
    assert Attribute("c", NOMINAL, ("a", "b", "c")).cardinality == 3
    assert Attribute("x", NUMERIC).cardinality == 0


def test_schema_needs_two_classes():
    with pytest.raises(ValueError):
        StreamSchema((Attribute("x", NUMERIC),), ("only",))


def test_schema_rejects_duplicate_attribute_names():
    with pytest.raises(ValueError):
        StreamSchema((Attribute("x", NUMERIC), Attribute("x", NUMERIC)), ("a", "b"))


def test_schema_rejects_repeated_class_names():
    with pytest.raises(ValueError, match="class names must be unique"):
        StreamSchema((Attribute("x", NUMERIC),), ("a", "a", "b"))


def test_schema_counts():
    schema = two_class_schema()
    assert schema.class_count == 2
    assert schema.n_attributes == 2


class TestLoadedStream:
    def test_rejects_no_instances(self):
        with pytest.raises(SchemaMismatch, match="^stream 'e' has no instances$"):
            LoadedStream("e", two_class_schema(), [], {})

    def test_rejects_an_unlabeled_instance_by_position(self):
        rows = [Instance((0.5, 0), 1), Instance((1.5, 2), None), Instance((2.5, 1), 0)]
        with pytest.raises(
            SchemaMismatch,
            match="^stream 'u' instance 2 has no label; prequential runs need fully labeled streams$",
        ):
            LoadedStream("u", two_class_schema(), rows, {})


class TestClassPosterior:
    def test_normalizes(self):
        post = ClassPosterior([2.0, 1.0, 1.0])
        assert post.probs == pytest.approx([0.5, 0.25, 0.25])
        assert post.top_index == 0
        assert post.top_prob == pytest.approx(0.5)
        assert post.second_prob == pytest.approx(0.25)

    def test_tie_breaks_to_lowest_index(self):
        post = ClassPosterior([0.25, 0.25, 0.25, 0.25])
        assert post.top_index == 0
        assert post.top_prob == post.second_prob

    def test_uniform(self):
        post = ClassPosterior.uniform(4)
        assert post.probs == [0.25] * 4
        assert post.top_index == 0
        assert post.top_prob == post.second_prob

    def test_rejects_negative_entries(self):
        # only the sum is checked, so the entry is caught, and named, when
        # it leaves the sum at or below zero
        with pytest.raises(InvalidPosterior, match="entry 1 is negative"):
            ClassPosterior([0.5, -1.0])

    def test_rejects_nan_entries(self):
        # NaN fails every comparison, so a plain `p < 0` check let it
        # through and the posterior came out as [nan, nan]
        for probs, index in (([math.nan, 0.5], 0), ([0.5, 0.2, math.nan], 2), ([0.5, math.nan, -1.0], 1)):
            with pytest.raises(ValueError, match=f"entry {index} "):
                ClassPosterior(probs)

    def test_rejects_infinite_sum(self):
        for probs in ([math.inf, 0.5], [1e308, 1e308]):
            with pytest.raises(ValueError, match="finite sum"):
                ClassPosterior(probs)

    def test_errors_are_driftlab_errors(self):
        # a run that ends in one exits through the CLI's error handler
        for probs in ([math.nan, 0.5], [math.inf, 0.5], [0.0, 0.0]):
            with pytest.raises(InvalidPosterior):
                ClassPosterior(probs)
        assert issubclass(InvalidPosterior, DriftLabError)
        assert issubclass(InvalidPosterior, ValueError)

    def test_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            ClassPosterior([0.0, 0.0])


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=8,
    )
)
def test_posterior_invariants(raw):
    post = ClassPosterior(raw)
    assert sum(post.probs) == pytest.approx(1.0, abs=1e-9)
    assert post.top_prob == max(post.probs)
    assert post.top_index == post.probs.index(max(post.probs))
    assert 0.0 <= post.top_prob - post.second_prob <= 1.0
    assert post.second_prob <= post.top_prob

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
    StreamSchema,
)


def two_class_schema():
    return StreamSchema(
        (
            Attribute("x0", NUMERIC),
            Attribute("color", NOMINAL, ("red", "green", "blue")),
        ),
        ("no", "yes"),
    )


def test_attribute_kind_validation():
    with pytest.raises(ValueError):
        Attribute("x", "stringy")


def test_nominal_attribute_needs_values():
    with pytest.raises(ValueError):
        Attribute("color", NOMINAL)


def test_numeric_attribute_rejects_values():
    with pytest.raises(ValueError):
        Attribute("x", NUMERIC, ("a", "b"))


def test_attribute_cardinality():
    assert Attribute("c", NOMINAL, ("a", "b", "c")).cardinality == 3
    assert Attribute("x", NUMERIC).cardinality == 0


def test_schema_needs_two_classes():
    with pytest.raises(ValueError):
        StreamSchema((Attribute("x", NUMERIC),), ("only",))


def test_schema_rejects_duplicate_attribute_names():
    with pytest.raises(ValueError):
        StreamSchema((Attribute("x", NUMERIC), Attribute("x", NUMERIC)), ("a", "b"))


def test_schema_counts():
    schema = two_class_schema()
    assert schema.class_count == 2
    assert schema.n_attributes == 2


def test_instance_equality_and_hash():
    a = Instance((1.0, 2), label=1)
    b = Instance((1.0, 2), label=1)
    c = Instance((1.0, 2), label=0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "not an instance"


def test_loaded_stream_iterates_in_order():
    schema = two_class_schema()
    rows = [Instance((float(i), 0), label=i % 2) for i in range(5)]
    stream = LoadedStream("s", schema, rows, {})
    assert len(stream) == 5
    assert list(stream) == rows


class TestClassPosterior:
    def test_normalizes(self):
        post = ClassPosterior([2.0, 1.0, 1.0])
        assert post.probs == pytest.approx([0.5, 0.25, 0.25])
        assert post.top_index == 0
        assert post.top_prob == pytest.approx(0.5)
        assert post.second_prob == pytest.approx(0.25)

    def test_margin(self):
        post = ClassPosterior([0.7, 0.3])
        assert post.margin == pytest.approx(0.4)

    def test_tie_breaks_to_lowest_index(self):
        post = ClassPosterior([0.25, 0.25, 0.25, 0.25])
        assert post.top_index == 0
        assert post.margin == pytest.approx(0.0)

    def test_uniform(self):
        post = ClassPosterior.uniform(4)
        assert post.probs == [0.25] * 4
        assert post.top_index == 0
        assert post.margin == 0.0

    def test_uniform_needs_two_classes(self):
        with pytest.raises(ValueError):
            ClassPosterior.uniform(1)

    def test_sequence_protocol(self):
        post = ClassPosterior([1.0, 3.0])
        assert len(post) == 2
        assert post[1] == pytest.approx(0.75)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ClassPosterior([0.5, -0.1])

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
        for probs in ([math.nan, 0.5], [0.5, -0.1], [math.inf, 0.5], [0.0, 0.0]):
            with pytest.raises(InvalidPosterior):
                ClassPosterior(probs)
        assert issubclass(InvalidPosterior, DriftLabError)
        assert issubclass(InvalidPosterior, ValueError)

    def test_trusted_raises_the_checking_error(self):
        for probs in ([math.nan, 0.5], [0.5, 0.2, math.nan], [math.inf, 0.5], [1e308, 1e308], [0.0, 0.0]):
            with pytest.raises(InvalidPosterior) as checked:
                ClassPosterior(probs)
            with pytest.raises(InvalidPosterior) as trusted:
                ClassPosterior.trusted(probs)
            assert str(trusted.value) == str(checked.value)

    def test_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            ClassPosterior([0.0, 0.0])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            ClassPosterior([1.0])


def built(make, probs):
    """A posterior's exact fields, or the error building it raised."""
    try:
        post = make(probs)
    except InvalidPosterior as exc:
        return str(exc)
    return (
        list(map(float.hex, post.probs)),
        post.top_index,
        float.hex(post.top_prob),
        float.hex(post.second_prob),
    )


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1e-300, 1e308, math.nan]),
            st.floats(min_value=0.0, max_value=1e6),
        ),
        min_size=2,
        max_size=6,
    )
)
def test_trusted_matches_the_checking_constructor(raw):
    assert built(ClassPosterior.trusted, raw) == built(ClassPosterior, raw)


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
    assert 0.0 <= post.margin <= 1.0
    assert post.second_prob <= post.top_prob

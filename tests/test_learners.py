
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlab.core import (
    MISSING,
    NOMINAL,
    NUMERIC,
    Attribute,
    ClassPosterior,
    InvalidPosterior,
    SchemaMismatch,
    StreamSchema,
)
from driftlab.hybrid import HybridConfig, build_runner
from driftlab.learners import (
    AccuracyWeightedEnsemble,
    HoeffdingTree,
    NaiveBayes,
    _BayesStack,
    _Leaf,
    _numeric_gains,
    hoeffding_bound,
)
from driftlab.streams import parse_stream_spec

NUM1 = StreamSchema((Attribute("x", NUMERIC),), ("a", "b"))
NUM2 = StreamSchema((Attribute("x0", NUMERIC), Attribute("x1", NUMERIC)), ("a", "b"))
NOM1 = StreamSchema((Attribute("f", NOMINAL, ("A", "B")),), ("c0", "c1"))


def with_constants(learner, **constants):
    """``learner`` with some of its class constants overridden on the instance."""
    vars(learner).update(constants)
    return learner


def with_members(awe, members):
    """``awe`` holding ``members`` ([learner, weight] pairs), restacked as
    a chunk close leaves it."""
    awe._members = members
    awe._restack()
    return awe


class TestHoeffdingBound:
    def test_reference_value(self):
        # sqrt(ln(1e7) / 400), evaluated at 40 digits and rounded
        assert hoeffding_bound(1.0, 1e-7, 200) == pytest.approx(
            0.20073674085078645, rel=1e-12
        )

    def test_quadrupling_n_halves_the_radius(self):
        for n in (1, 17, 200, 5000):
            assert hoeffding_bound(2.0, 1e-3, 4 * n) == hoeffding_bound(2.0, 1e-3, n) / 2

    def test_delta_one_collapses_to_zero(self):
        assert hoeffding_bound(1.0, 1.0, 50) == 0.0


class TestNaiveBayes:
    def test_untrained_is_exactly_uniform(self):
        nb = NaiveBayes(NUM2)
        post = nb.predict((1.0, 2.0))
        assert post.probs == [0.5, 0.5]

    def test_smoothed_nominal_reference(self):
        # counts class0 {A:9, B:1}, class1 {A:1, B:9}, equal priors, x=A
        nb = NaiveBayes(NOM1)
        for _ in range(9):
            nb.train((0,), 0)
        nb.train((1,), 0)
        nb.train((0,), 1)
        for _ in range(9):
            nb.train((1,), 1)
        post = nb.predict((0,))
        assert post.probs[0] == pytest.approx(10 / 12, rel=1e-12)
        assert post.probs[1] == pytest.approx(2 / 12, rel=1e-12)

    def test_welford_moments(self):
        nb = NaiveBayes(NUM2)
        for v in (2.0, 4.0, 6.0):
            nb.train((v, 0.0), 0)
        assert nb._mean[0][0] == pytest.approx(4.0)
        assert nb._m2[0][0] / nb._n[0][0] == pytest.approx(8 / 3, rel=1e-12)

    def test_gaussian_reference_posterior(self):
        # class 0 sees x0 in {1,2,3}, class 1 in {7,8,9}; oracle worked out
        # from the MLE Gaussian densities at x0=2.5 with count priors
        nb = NaiveBayes(NUM2)
        for v in (1.0, 2.0, 3.0):
            nb.train((v, 0.0), 0)
        for v in (7.0, 8.0, 9.0):
            nb.train((v, 0.0), 1)
        post = nb.predict((2.5, 0.0))
        assert post.probs[0] == pytest.approx(0.9999999998308102, rel=1e-10)
        assert post.probs[1] == pytest.approx(1.691897922328879e-10, rel=1e-6)

    def test_symmetry_gives_even_posterior(self):
        nb = NaiveBayes(NUM2)
        for v in (-3.0, -2.0, -1.0):
            nb.train((v, 1.0), 0)
        for v in (1.0, 2.0, 3.0):
            nb.train((v, 1.0), 1)
        post = nb.predict((0.0, 1.0))
        assert post.probs[0] == pytest.approx(0.5, abs=1e-9)

    def test_missing_values_skip_attribute_stats(self):
        nb = NaiveBayes(NUM2)
        nb.train((1.0, MISSING), 0)
        nb.train((MISSING, 5.0), 0)
        assert nb._n[0][0] == 1
        assert nb._n[0][1] == 1
        assert nb.class_counts[0] == 2

    def test_missing_at_predict_contributes_nothing(self):
        nb = NaiveBayes(NUM2)
        for v in (1.0, 2.0):
            nb.train((v, 10.0), 0)
        for v in (8.0, 9.0):
            nb.train((v, 10.0), 1)
        post = nb.predict((MISSING, MISSING))
        assert post.probs == pytest.approx([0.5, 0.5])

    def test_single_observation_uses_variance_floor(self):
        nb = NaiveBayes(NUM2)
        nb.train((3.0, 0.0), 0)
        assert nb._inv2var[0][0] == pytest.approx(0.5 / 1e-6)

    def test_unseen_class_gets_zero_probability(self):
        nb = NaiveBayes(NUM2)
        nb.train((1.0, 1.0), 0)
        post = nb.predict((1.0, 1.0))
        assert post.probs == [1.0, 0.0]

    def test_repeated_training_sharpens_posterior(self):
        nb = NaiveBayes(NUM2)
        nb.train((0.0, 0.0), 0)
        nb.train((5.0, 5.0), 1)
        x = (0.2, 0.1)
        last = nb.predict(x).probs[0]
        for _ in range(5):
            nb.train(x, 0)
            cur = nb.predict(x).probs[0]
            assert cur >= last - 1e-12
            last = cur

    def test_label_out_of_range(self):
        nb = NaiveBayes(NUM2)
        with pytest.raises(SchemaMismatch, match=r"label 2 outside \[0, 2\)"):
            nb.train((1.0, 1.0), 2)
        with pytest.raises(SchemaMismatch, match=r"label -1 outside \[0, 2\)"):
            nb.train((1.0, 1.0), -1)

    def test_predict_has_no_side_effects(self):
        nb = NaiveBayes(NUM2)
        nb.train((1.0, 2.0), 0)
        nb.train((3.0, 4.0), 1)
        a = nb.predict((2.0, 3.0)).probs
        b = nb.predict((2.0, 3.0)).probs
        assert a == b

    def test_count_monotonicity(self):
        nb = NaiveBayes(NUM2)
        seen = []
        for i in range(20):
            nb.train((float(i), float(-i)), i % 2)
            seen.append(tuple(nb.class_counts))
        for before, after in zip(seen, seen[1:]):
            assert after[0] >= before[0] and after[1] >= before[1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
def test_nb_variance_matches_two_pass_oracle(values):
    nb = NaiveBayes(NUM2)
    for v in values:
        nb.train((v, 0.0), 0)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert nb._mean[0][0] == pytest.approx(mean, rel=1e-9, abs=1e-6)
    assert nb._m2[0][0] / nb._n[0][0] == pytest.approx(var, rel=1e-6, abs=1e-6)


class TestHoeffdingTree:
    def test_untrained_root_is_uniform(self):
        ht = HoeffdingTree(NUM2)
        assert ht.predict((0.0, 0.0)).probs == [0.5, 0.5]

    def test_splits_on_perfectly_separating_nominal(self):
        # gain lead is 1.0; the radius drops below 1 well before the
        # first grace check at n=200, so one pass must split
        ht = HoeffdingTree(NOM1)
        for i in range(400):
            v = i % 2
            ht.train((v,), v)
        assert ht.n_splits >= 1
        assert ht.predict((0,)).top_index == 0
        assert ht.predict((1,)).top_index == 1

    def test_single_class_stream_never_splits(self):
        ht = with_constants(HoeffdingTree(NUM2), tie_threshold=0.5)
        rng = np.random.default_rng(0)
        for _ in range(5000):
            ht.train((float(rng.standard_normal()), float(rng.standard_normal())), 0)
        assert ht.n_splits == 0

    def test_numeric_split_on_separated_clusters(self):
        ht = HoeffdingTree(NUM2)
        rng = np.random.default_rng(1)
        for _ in range(2000):
            y = int(rng.integers(0, 2))
            x0 = float(rng.normal(-5.0 if y == 0 else 5.0, 1.0))
            ht.train((x0, float(rng.normal())), y)
        assert ht.n_splits >= 1
        assert ht.predict((-5.0, 0.0)).top_index == 0
        assert ht.predict((5.0, 0.0)).top_index == 1

    def test_prediction_matches_per_leaf_bayes_oracle(self):
        # replay the routing decisions against standalone Bayes models,
        # one per leaf, trained on exactly the instances routed there
        ht = with_constants(HoeffdingTree(NUM2), grace_period=50)
        oracles = {}
        rng = np.random.default_rng(2)
        stream = []
        for _ in range(600):
            y = int(rng.integers(0, 2))
            x = (float(rng.normal(-3.0 if y == 0 else 3.0)), float(rng.normal()))
            stream.append((x, y))
        for x, y in stream:
            leaf, _, _ = ht._route(x)
            oracle = oracles.get(id(leaf))
            if oracle is None:
                oracle = NaiveBayes(NUM2)
                oracles[id(leaf)] = oracle
            ht.train(x, y)
            oracle.train(x, y)
        for x, _ in stream[::7]:
            leaf, _, _ = ht._route(x)
            assert ht.predict(x).probs == pytest.approx(
                oracles[id(leaf)].predict(x).probs, rel=1e-12
            )

    def test_every_instance_reaches_exactly_one_leaf(self):
        ht = with_constants(HoeffdingTree(NUM2), grace_period=20)
        rng = np.random.default_rng(3)
        for _ in range(500):
            y = int(rng.integers(0, 2))
            ht.train((float(rng.normal(y * 4.0)), float(rng.normal())), y)

        def leaves(node):
            if not hasattr(node, "children"):
                return [node]
            out = []
            for ch in node.children:
                out.extend(leaves(ch))
            return out

        all_leaves = leaves(ht._root)
        for _ in range(50):
            x = (float(rng.normal()), float(rng.normal()))
            leaf, _, _ = ht._route(x)
            assert sum(1 for lf in all_leaves if lf is leaf) == 1

    def test_missing_values_route_left(self):
        ht = HoeffdingTree(NOM1)
        for i in range(400):
            v = i % 2
            ht.train((v,), v)
        assert ht.n_splits >= 1
        with_missing = ht.predict((MISSING,))
        explicit_left = ht.predict((0,))
        assert with_missing.probs == explicit_left.probs

    def test_predict_is_pure(self):
        ht = HoeffdingTree(NUM2)
        ht.train((1.0, 1.0), 0)
        a = ht.predict((1.0, 1.0)).probs
        b = ht.predict((1.0, 1.0)).probs
        assert a == b

    def test_label_out_of_range(self):
        ht = HoeffdingTree(NUM2)
        with pytest.raises(SchemaMismatch, match=r"label 5 outside \[0, 2\)"):
            ht.train((0.0, 0.0), 5)


class TestNumericSplits:
    @pytest.mark.parametrize(
        "a, b, cut, gain",
        [
            # class a: mean 1.5, variance 1.25; class b: mean 5, variance 5.
            # The cuts are 8k/11; at k = 5 all of class a lies left, and
            # 4 * Phi((40/11 - 5) / sqrt 5) of class b
            ([0.0, 1.0, 2.0, 3.0], [2.0, 4.0, 6.0, 8.0], 40 / 11, 0.52492402),
            # the cuts are 12k/11; k = 3 lies above class a's maximum and
            # below class b's minimum, so it separates the classes, though
            # b's normal puts weight below 36/11
            ([0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 12.0], 36 / 11, 1.0),
            # the cuts are 1 .. 10; 1 to 9 separate the classes alike, and
            # the first of them wins
            ([0.0, 1.0], [10.0, 11.0], 1.0, 1.0),
            # class a's variance, 1.875e-7, is floored at 1e-6
            ([0.0, 0.0, 0.0, 0.001], [0.0005, 0.001, 0.0015, 0.002], 0.002 * 6 / 11, 0.36340087),
        ],
        ids=["gaussian", "separating", "tied", "floored"],
    )
    def test_two_class_leaf_matches_the_scalar_reference(self, a, b, cut, gain):
        leaf = leaf_of(NUM1, [(a, 0), (b, 1)])
        want_gain, want_cut = reference_best_cut([a, b])
        assert (want_cut, want_gain) == (cut, pytest.approx(gain, abs=1e-8))
        assert _numeric_gains(leaf) == {0: (pytest.approx(want_gain, rel=1e-12, abs=0.0), want_cut)}

    def test_leaf_keeps_each_class_range_and_skips_missing_cells(self):
        leaf = leaf_of(NUM2, [([3.0, MISSING, -1.0], 0), ([MISSING], 1)])
        assert (leaf.lo[0], leaf.hi[0]) == ([-1.0, 0.0], [3.0, 0.0])
        assert (leaf.lo[1], leaf.hi[1]) == ([math.inf, 0.0], [-math.inf, 0.0])

    def test_classes_1e307_either_side_of_zero_split(self):
        assert train_opposite_points(1e307).n_splits == 1

    def test_a_cut_with_no_weight_to_its_right_is_no_candidate(self):
        # a million values at 0 and one at 11 (sd 0.011): every cut from 1
        # to 10 leaves the whole normal to its left
        stats = (10**6 + 1, 11 / (10**6 + 1), 121.0, 0.0, 11.0)
        assert _numeric_gains(leaf_with_stats(2, [[stats, stats]])) == {}

    def test_cuts_that_round_onto_the_range_ends_give_no_split(self):
        # floats are 2 apart at 1e16: cuts k = 1 .. 5 round down to lo,
        # k = 6 .. 10 up to hi
        a, b = (1, 1e16, 0.0, 1e16, 1e16), (1, 1e16 + 2, 0.0, 1e16 + 2, 1e16 + 2)
        assert _numeric_gains(leaf_with_stats(2, [[a, b]])) == {}

    def test_classes_1e308_either_side_of_zero_give_no_split(self):
        # each class's own range is a single point; every cut of the merged
        # range is inf, with nothing to its right
        assert train_opposite_points(1e308).n_splits == 0

    def test_range_wider_than_the_largest_float_gives_no_split(self):
        ht = HoeffdingTree(NUM1)
        for v, y in ((-1.7e308, 0), (MISSING, 1), (1.7e308, 0)):
            ht.train((v,), y)
        assert _numeric_gains(ht._root) == {}

    def test_an_overflowed_mean_or_m2_gives_no_split(self):
        for name in ("_mean", "_m2"):
            leaf = leaf_of(NUM1, [([0.0, 1.0], 0), ([5.0, 6.0], 1)])
            assert list(_numeric_gains(leaf)) == [0]
            getattr(leaf.nb, name)[1][0] = math.inf
            assert _numeric_gains(leaf) == {}

    def test_gaussian_clusters_in_eight_dimensions_never_split(self):
        spec = "gen:family=gaussian-clusters,kind=sudden,n=20000,changes=10000,seed=1,dims=8,classes=4"
        stream = parse_stream_spec(spec).load()
        runner = build_runner(stream.schema, HybridConfig("ht", "randvar", "none", 0.5, seed=0))
        for instance in stream.instances:
            runner.process_instance(instance)
        assert runner.learner.n_splits == 0


def leaf_of(schema, batches):
    """The root leaf of a tree that never tries a split, trained on each
    ``(values, label)`` batch in turn (one-attribute rows, the rest 0.0)."""
    ht = with_constants(HoeffdingTree(schema), grace_period=10**9)
    for values, label in batches:
        for v in values:
            ht.train((v,) + (0.0,) * (schema.n_attributes - 1), label)
    return ht._root


def reference_best_cut(classes):
    """(gain, cut) of the best of the 10 cuts, from the definition: each
    class's values as a normal with their mean and population variance
    (floored at 1e-6), clipped to the class's own range."""

    def entropy(weights):
        total = sum(weights)
        return -sum(w / total * math.log2(w / total) for w in weights if w > 0)

    lo = min(min(values) for values in classes)
    hi = max(max(values) for values in classes)
    sizes = [len(values) for values in classes]
    best = None
    for k in range(1, 11):
        t = lo + (hi - lo) * k / 11
        left = []
        for values in classes:
            if t < min(values):
                left.append(0.0)
            elif t >= max(values):
                left.append(float(len(values)))
            else:
                variance = max(statistics.pvariance(values), 1e-6)
                normal = statistics.NormalDist(statistics.fmean(values), math.sqrt(variance))
                left.append(len(values) * normal.cdf(t))
        right = [size - w for size, w in zip(sizes, left)]
        n, nl = sum(sizes), sum(left)
        gain = entropy(sizes) - nl / n * entropy(left) - (n - nl) / n * entropy(right)
        if best is None or gain > best[0]:
            best = (gain, t)
    return best


def leaf_with_stats(classes, attributes):
    """A leaf of ``classes`` classes whose statistics of numeric attribute j
    are ``attributes[j]``: per class, None (no values) or (count, mean, M2,
    and two values that order into the class's range)."""
    schema = StreamSchema(
        tuple(Attribute(f"x{j}", NUMERIC) for j in range(len(attributes))),
        tuple(f"c{y}" for y in range(classes)),
    )
    leaf = _Leaf(NaiveBayes(schema))
    nb = leaf.nb
    for j, per_class in enumerate(attributes):
        for y, stats in enumerate(per_class[:classes]):
            if stats is not None:
                nb._n[y][j], nb._mean[y][j], nb._m2[y][j], a, b = stats
                leaf.lo[y][j], leaf.hi[y][j] = min(a, b), max(a, b)
    return leaf


def train_opposite_points(scale):
    """A tree fed one grace period of class a at -scale and class b at +scale."""
    ht = HoeffdingTree(NUM1)
    for i in range(ht.grace_period):
        ht.train((scale if i % 2 else -scale,), i % 2)
    return ht


# What one class of a leaf holds for one attribute: nothing, or its count,
# mean, M2 and two values that order into its range. Means and M2s may have
# overflowed to inf or NaN.
finite = st.floats(allow_nan=False, allow_infinity=False)
class_stats = st.one_of(
    st.none(),
    st.tuples(
        st.integers(1, 10**6),
        st.one_of(finite, st.sampled_from((math.inf, -math.inf, math.nan))),
        st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from((math.inf, math.nan))),
        finite,
        finite,
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 4)), st.lists(st.lists(class_stats, min_size=4, max_size=4), min_size=1, max_size=3))
# classes at the float limits: the merged range is wider than the largest float
@example(2, [[(3, -1.7e308, 0.0, -1.7e308, -1.7e308), (3, 1.7e308, 0.0, 1.7e308, 1.7e308), None, None]])
def test_numeric_gains_are_finite_and_cut_inside_the_range(classes, attributes):
    leaf = leaf_with_stats(classes, attributes)
    nb = leaf.nb
    gains = _numeric_gains(leaf)
    for j, (gain, cut) in gains.items():
        seen = [y for y in range(classes) if nb._n[y][j]]
        assert math.isfinite(gain)
        assert min(leaf.lo[y][j] for y in seen) < cut < max(leaf.hi[y][j] for y in seen)
        assert all(math.isfinite(nb._mean[y][j]) and math.isfinite(nb._m2[y][j]) for y in seen)


class TestAccuracyWeightedEnsemble:
    def test_no_members_is_uniform(self):
        awe = AccuracyWeightedEnsemble(NUM2)
        assert awe.predict((0.0, 0.0)).probs == [0.5, 0.5]

    def test_member_created_per_chunk(self):
        awe = with_constants(AccuracyWeightedEnsemble(NUM2), chunk_size=10)
        for i in range(25):
            awe.train((float(i % 2), 0.0), i % 2)
        assert len(awe.members) == 2
        assert len(awe._buffer) == 5

    def test_capacity_evicts_lowest_weight(self):
        # four chunks through a committee of three: the worst-scoring
        # member on the final chunk must be gone
        awe = with_constants(AccuracyWeightedEnsemble(NUM2), chunk_size=20, capacity=3)
        rng = np.random.default_rng(4)
        for chunk in range(4):
            for _ in range(20):
                y = int(rng.integers(0, 2))
                # concept flips between chunks so old members score poorly
                x0 = float(rng.normal((y if chunk % 2 == 0 else 1 - y) * 6.0 - 3.0, 0.5))
                awe.train((x0, 0.0), y)
        assert len(awe.members) == 3

    def test_weights_are_chunk_accuracy(self):
        awe = with_constants(AccuracyWeightedEnsemble(NUM2), chunk_size=8)
        for i in range(8):
            y = i % 2
            awe.train((float(y * 10), 0.0), y)
        # a fresh Bayes member separates this chunk perfectly
        assert awe.members[0][1] == 1.0

    def test_zero_weight_member_is_ignored(self):
        awe = with_constants(AccuracyWeightedEnsemble(NUM2), chunk_size=4)
        strong = NaiveBayes(NUM2)
        for i in range(50):
            strong.train((float(i % 2 * 10), 0.0), i % 2)
        with_members(awe, [[strong, 1.0], [NaiveBayes(NUM2), 0.0]])
        x = (10.0, 0.0)
        assert awe.predict(x).probs == pytest.approx(strong.predict(x).probs)

    def test_all_zero_weights_fall_back_to_plain_average(self):
        awe = AccuracyWeightedEnsemble(NUM2)
        a, b = NaiveBayes(NUM2), NaiveBayes(NUM2)
        a.train((0.0, 0.0), 0)
        b.train((5.0, 5.0), 1)
        with_members(awe, [[a, 0.0], [b, 0.0]])
        x = (1.0, 1.0)
        expected = [
            (pa + pb) / 2 for pa, pb in zip(a.predict_probs(x), b.predict_probs(x))
        ]
        assert awe.predict(x).probs == pytest.approx(expected)

    def test_members_cannot_be_assigned(self):
        # only a chunk close changes the members, and it restacks them
        awe = AccuracyWeightedEnsemble(NUM2)
        with pytest.raises(AttributeError):
            awe.members = [[NaiveBayes(NUM2), 1.0]]
        assert awe.members == []
        assert awe.predict((0.0, 0.0)).probs == [0.5, 0.5]

    def test_label_checked_immediately(self):
        awe = AccuracyWeightedEnsemble(NUM2)
        with pytest.raises(SchemaMismatch, match=r"label 9 outside \[0, 2\)"):
            awe.train((0.0, 0.0), 9)

# numeric and nominal attributes interleaved, so "numeric first, then
# nominal" differs from plain index order
MIXED = StreamSchema(
    (
        Attribute("x0", NUMERIC),
        Attribute("c0", NOMINAL, ("a", "b")),
        Attribute("x1", NUMERIC),
        Attribute("c1", NOMINAL, ("a", "b", "c")),
    ),
    ("y0", "y1", "y2"),
)


def reference_top(nb, features):
    """Per-instance Naive Bayes argmax, written out by hand: log prior,
    then numeric terms in index order, then nominal terms in index order,
    strict ``>`` so the first class wins ties; class 0 when untrained."""
    if nb.trained == 0:
        return 0
    numeric = [j for j, a in enumerate(MIXED.attributes) if a.kind == NUMERIC]
    nominal = [j for j, a in enumerate(MIXED.attributes) if a.kind == NOMINAL]
    top, best = 0, -math.inf
    for y in range(MIXED.class_count):
        if nb.class_counts[y] == 0:
            continue
        s = nb._log_prior[y]
        for j in numeric:
            v = features[j]
            if v is MISSING or nb._n[y][j] == 0:
                continue
            d = v - nb._mean[y][j]
            s += nb._log_norm[y][j] - d * d * nb._inv2var[y][j]
        for j in nominal:
            v = features[j]
            if v is not MISSING:
                s += nb._log_vlik[y][j][v]
        if s > best:
            best, top = s, y
    return top


def nb_state(nb):
    """Every count, moment and derived table of a Naive Bayes model."""
    return (
        nb.class_counts, nb.trained, nb._log_prior, nb._n, nb._mean, nb._m2,
        nb._log_norm, nb._inv2var, nb._vcounts, nb._vtotals, nb._log_vlik,
    )


def reference_predict_probs(awe, features):
    """The ensemble posterior from each member's own ``predict_probs``,
    written out by hand: weights summed in member order, zero-weight
    members skipped, a plain average when every weight is zero."""
    c = awe.schema.class_count
    if not awe.members:
        return [1.0 / c] * c
    total_w = 0.0
    for _, weight in awe.members:
        total_w += weight
    acc = [0.0] * c
    if total_w > 0.0:
        for learner, weight in awe.members:
            if weight == 0.0:
                continue
            probs = learner.predict_probs(features)
            for i in range(c):
                acc[i] += weight * probs[i]
        inv = 1.0 / total_w
    else:
        for learner, _ in awe.members:
            probs = learner.predict_probs(features)
            for i in range(c):
                acc[i] += probs[i]
        inv = 1.0 / len(awe.members)
    for i in range(c):
        acc[i] *= inv
    return acc


def assert_same_probs(awe, features):
    """Bit for bit: float.hex tells -0.0 from 0.0 and matches NaN to NaN."""
    got = awe.predict_probs(features)
    assert list(map(float.hex, got)) == list(map(float.hex, reference_predict_probs(awe, features)))
    return got


def check_chunk_closes(chunks, order, capacity):
    """Feed ``chunks[k]`` for each k in ``order`` and compare every chunk
    close against per-member, per-instance scoring: exact weights, the
    same evicted member, and the newest member last."""
    size = len(chunks[0])
    awe = with_constants(AccuracyWeightedEnsemble(MIXED), chunk_size=size, capacity=capacity)
    for k in order:
        chunk = chunks[k]
        before = [m[0] for m in awe.members]
        fresh = NaiveBayes(MIXED)
        for features, label in chunk:
            fresh.train(features, label)
        # accuracy as hits times the reciprocal chunk size, the ensemble's
        # formula, so the floats compare exactly
        weights = [
            sum(reference_top(nb, f) == y for f, y in chunk) * (1.0 / size)
            for nb in before + [fresh]
        ]
        kept = list(range(len(weights)))
        if len(weights) > capacity:
            kept.remove(weights.index(min(weights)))
        for features, label in chunk:
            awe.train(features, label)
        assert [w for _, w in awe.members] == [weights[i] for i in kept]
        for (learner, _), i in zip(awe.members, kept):
            if i < len(before):
                assert learner is before[i]
            else:
                assert learner not in before
                # trained a chunk at a time, yet equal to per-instance training
                assert nb_state(learner) == nb_state(fresh)
        if kept[-1] == len(before):  # the new member survived: it is last
            assert awe.members[-1][0].trained == size
            assert all(m[0] is not awe.members[-1][0] for m in awe.members[:-1])
        for features, _ in chunk:
            assert_same_probs(awe, features)
    return awe


numeric_cell = st.one_of(
    st.none(), st.sampled_from([-1.0, 0.0, 2.0]), st.floats(-5.0, 5.0)
)
mixed_instance = st.tuples(
    st.tuples(
        numeric_cell,
        st.one_of(st.none(), st.integers(0, 1)),
        numeric_cell,
        st.one_of(st.none(), st.integers(0, 2)),
    ),
    st.integers(0, 2),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chunk_reweighting_matches_per_member_loop(data):
    size = data.draw(st.integers(1, 6), label="chunk size")
    chunks = data.draw(
        st.lists(
            st.lists(mixed_instance, min_size=size, max_size=size),
            min_size=1,
            max_size=3,
        ),
        label="chunks",
    )
    # repeated chunk indices make duplicate members with tied weights
    order = data.draw(
        st.lists(st.integers(0, len(chunks) - 1), min_size=1, max_size=8),
        label="order",
    )
    check_chunk_closes(chunks, order, data.draw(st.integers(1, 4), label="capacity"))


class TestChunkReweightingCases:
    """The cases the property test must cover, pinned one by one."""

    def test_chunk_size_one(self):
        chunks = [[((0.5, 1, None, 2), 1)], [((None, None, None, None), 2)]]
        check_chunk_closes(chunks, [0, 1, 0, 1, 1], capacity=2)

    def test_duplicate_members_tie_and_the_first_is_evicted(self):
        chunk = [((0.0, 0, 1.0, 0), 0), ((1.0, 1, 0.0, 1), 1), ((1.0, 1, 0.0, 2), 0)]
        other = [((5.0, 0, 5.0, 2), 2), ((5.0, 0, 5.0, 2), 1), ((-5.0, 1, None, 0), 0)]
        awe = check_chunk_closes([chunk, other], [0, 0, 0, 1, 1], capacity=3)
        assert len(awe.members) == 3

    def test_unseen_classes_and_an_unobserved_numeric_attribute(self):
        # class 1 never has x1, class 2 never appears at all
        chunk = [
            ((0.0, 0, 3.0, 1), 0),
            ((1.5, 1, None, 0), 1),
            ((2.5, None, None, 2), 1),
            ((None, 0, -1.0, None), 0),
        ]
        probe = [((1.0, 1, 40.0, 0), 1), ((None, None, 0.0, 1), 0)] * 2
        check_chunk_closes([chunk, probe], [0, 1, 0, 1], capacity=2)

    def test_exact_score_ties_between_classes(self):
        # identical features under two labels: equal scores, class 0 wins
        chunk = [((1.0, 0, 2.0, 1), 0), ((1.0, 0, 2.0, 1), 1)]
        awe = check_chunk_closes([chunk], [0, 0], capacity=2)
        assert [w for _, w in awe.members] == [0.5, 0.5]

    @staticmethod
    def _tops(nb, probes):
        batched = _BayesStack([nb]).tops(probes)[:, 0].tolist()
        assert batched == [reference_top(nb, f) for f in probes]
        return batched

    def test_scores_add_in_the_scalar_order(self):
        # class 1 collects four terms; class 0 holds their sum in the
        # scalar order as its prior, so the two tie exactly and class 0
        # wins. Any other grouping or order of the additions leaves class
        # 1 a few ulps higher, and class 1 would win.
        p, u0, u1 = -math.log(3.0), -2.401, -2.409
        norm0, d0, inv0 = -0.226, -2.616, 3.371
        norm1, d1, inv1 = -2.22, -2.325, 2.147
        t0 = norm0 - d0 * d0 * inv0
        t1 = norm1 - d1 * d1 * inv1
        tie = (((p + t0) + t1) + u0) + u1
        r0 = norm0 - d0 * (d0 * inv0)
        r1 = norm1 - d1 * (d1 * inv1)
        for other in (
            (((p + u0) + u1) + t0) + t1,  # nominal before numeric
            (((p + t1) + t0) + u0) + u1,  # numeric in reverse
            (((p + t0) + t1) + u1) + u0,  # nominal in reverse
            p + (((t0 + t1) + u0) + u1),  # terms summed first
            (p + (t0 + t1)) + (u0 + u1),  # pairwise
            (((p + r0) + r1) + u0) + u1,  # products regrouped
        ):
            assert other > tie
        nb = NaiveBayes(MIXED)
        nb.train((None, None, None, None), 0)
        nb.train((0.0, None, 0.0, None), 1)
        nb._log_prior[:2] = [tie, p]
        nb._log_norm[1][0], nb._inv2var[1][0] = norm0, inv0
        nb._log_norm[1][2], nb._inv2var[1][2] = norm1, inv1
        nb._log_vlik[0][1][1] = nb._log_vlik[0][3][2] = 0.0
        nb._log_vlik[1][1][1], nb._log_vlik[1][3][2] = u0, u1
        assert self._tops(nb, [(d0, 1, d1, 2)]) == [0]

    def test_nan_scores_never_win(self):
        # +-1e200 overflow class 0's variance to inf, and the probe's
        # squared distance times the zero inverse variance is NaN
        nb = NaiveBayes(MIXED)
        nb.train((1e200, 0, 0.0, 0), 0)
        nb.train((-1e200, 0, 0.0, 0), 0)
        nb.train((1e200, 0, 0.0, 0), 1)
        assert self._tops(nb, [(1e200, 0, 0.0, 0), (0.0, 0, 0.0, 0)]) == [1, 0]

    def test_unobserved_numeric_attribute_is_skipped(self):
        # class 0 never saw x1, so a huge x1 adds nothing to its score
        nb = NaiveBayes(MIXED)
        nb.train((0.0, 0, None, 0), 0)
        nb.train((50.0, 1, 1e200, 1), 1)
        assert self._tops(nb, [(0.0, 0, 1e200, 0)]) == [0]

    def test_newest_member_is_last(self):
        awe = with_constants(AccuracyWeightedEnsemble(NUM2), chunk_size=4)
        for i in range(12):
            awe.train((float(i % 2 * 10), 0.0), i % 2)
            newest = awe.members[-1][0] if awe.members else None
            assert len(awe.members) == (i + 1) // 4
            if (i + 1) % 4 == 0:
                assert isinstance(newest, NaiveBayes)
                assert newest.trained == 4
                assert all(m[0] is not newest for m in awe.members[:-1])


probe_numeric = st.one_of(numeric_cell, st.just(1e200))
probe_instance = st.tuples(
    probe_numeric,
    st.one_of(st.none(), st.integers(0, 1)),
    probe_numeric,
    st.one_of(st.none(), st.integers(0, 2)),
)
member_weight = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacked_prediction_matches_per_member_loop(data):
    # members trained on a few labels each (so some classes are unseen,
    # and an attribute may go unobserved), some untrained, some shared
    models = []
    for training in data.draw(st.lists(st.lists(mixed_instance, max_size=5), min_size=1, max_size=4), label="members"):
        nb = NaiveBayes(MIXED)
        for features, label in training:
            nb.train(features, label)
        models.append(nb)
    picks = data.draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=6), label="picks")
    weights = data.draw(st.lists(member_weight, min_size=len(picks), max_size=len(picks)), label="weights")
    if data.draw(st.booleans(), label="all weights zero"):
        weights = [0.0] * len(picks)
    awe = AccuracyWeightedEnsemble(MIXED)
    with_members(awe, [[models[k], w] for k, w in zip(picks, weights)])
    for features in data.draw(st.lists(probe_instance, min_size=1, max_size=5), label="probes"):
        assert_same_probs(awe, features)


class TestStackedPredictionCases:
    """The prediction stack must follow every change of the members."""

    @staticmethod
    def _chunk(shift, size=3):
        return [((float(i) + shift, i % 2, shift, i % 3), (i + int(shift)) % 3) for i in range(size)]

    def test_predict_then_an_evicting_chunk_close_then_predict(self):
        awe = with_constants(AccuracyWeightedEnsemble(MIXED), chunk_size=3, capacity=2)
        for shift in (0.0, 4.0):
            for features, label in self._chunk(shift):
                awe.train(features, label)
        probe = (2.0, 1, 1.0, 2)
        before = assert_same_probs(awe, probe)
        members = awe.members
        for features, label in self._chunk(9.0):
            awe.train(features, label)
        assert awe.members is members and len(members) == 2  # edited in place
        assert assert_same_probs(awe, probe) != before

    def test_unobserved_attribute_with_an_overflowing_value(self):
        # class 0 never saw x1, so 1e200 adds nothing to it; class 1's
        # squared distance overflows and its score is -inf
        nb = NaiveBayes(MIXED)
        nb.train((0.0, 0, None, 0), 0)
        nb.train((1.0, 1, 2.0, 1), 1)
        awe = AccuracyWeightedEnsemble(MIXED)
        with_members(awe, [[nb, 1.0], [nb, 0.5]])
        assert assert_same_probs(awe, (0.0, 0, 1e200, 0)) == [1.0, 0.0, 0.0]

    def test_nan_posteriors_match_too(self):
        # an infinite variance gives NaN scores; the stacked pass must
        # produce the same NaN and zero entries as the per-member loop
        nb = NaiveBayes(MIXED)
        nb.train((1e200, 0, 0.0, 0), 0)
        nb.train((-1e200, 0, 0.0, 0), 0)
        nb.train((3.0, 0, 0.0, 0), 1)
        awe = AccuracyWeightedEnsemble(MIXED)
        with_members(awe, [[nb, 1.0]])
        for probe in ((1e200, 0, 0.0, 0), (0.0, 0, 0.0, 0), (1e200, None, None, None)):
            assert_same_probs(awe, probe)

    def test_zero_weight_members_are_not_scored(self):
        # a zero weight times a NaN posterior would be NaN: skipped, the
        # member leaves no trace
        broken = NaiveBayes(MIXED)
        broken.train((1e200, 0, 0.0, 0), 0)
        broken.train((-1e200, 0, 0.0, 0), 0)
        good = NaiveBayes(MIXED)
        good.train((None, 0, 0.0, 0), 1)  # x0 unobserved: 1e200 adds nothing
        awe = AccuracyWeightedEnsemble(MIXED)
        with_members(awe, [[broken, 0.0], [good, 0.5]])
        assert math.isnan(broken.predict_probs((1e200, 0, 0.0, 0))[0])
        assert assert_same_probs(awe, (1e200, 0, 0.0, 0)) == [0.0, 1.0, 0.0]

    def test_untrained_and_zero_weight_members(self):
        trained = NaiveBayes(MIXED)
        trained.train((1.0, 1, 1.0, 1), 2)
        awe = AccuracyWeightedEnsemble(MIXED)
        with_members(awe, [[NaiveBayes(MIXED), 0.0], [trained, 0.0]])
        # all weights zero: the untrained member's uniform posterior counts
        assert assert_same_probs(awe, (1.0, 1, 1.0, 1)) == [1 / 6, 1 / 6, 1 / 6 + 1 / 2]
        with_members(awe, [[NaiveBayes(MIXED), 0.25], [trained, 0.0]])
        assert assert_same_probs(awe, (1.0, 1, 1.0, 1)) == [1 / 3] * 3

    def test_scores_add_in_the_scalar_order(self):
        # the tie of TestChunkReweightingCases.test_scores_add_in_the_scalar_order:
        # summed in the scalar order, the two classes score the same
        p, u0, u1 = -math.log(3.0), -2.401, -2.409
        norm0, d0, inv0 = -0.226, -2.616, 3.371
        norm1, d1, inv1 = -2.22, -2.325, 2.147
        tie = (((p + (norm0 - d0 * d0 * inv0)) + (norm1 - d1 * d1 * inv1)) + u0) + u1
        nb = NaiveBayes(MIXED)
        nb.train((None, None, None, None), 0)
        nb.train((0.0, None, 0.0, None), 1)
        nb._log_prior[:2] = [tie, p]
        nb._log_norm[1][0], nb._inv2var[1][0] = norm0, inv0
        nb._log_norm[1][2], nb._inv2var[1][2] = norm1, inv1
        nb._log_vlik[0][1][1] = nb._log_vlik[0][3][2] = 0.0
        nb._log_vlik[1][1][1], nb._log_vlik[1][3][2] = u0, u1
        awe = AccuracyWeightedEnsemble(MIXED)
        with_members(awe, [[nb, 1.0]])
        assert assert_same_probs(awe, (d0, 1, d1, 2)) == [0.5, 0.5, 0.0]


def test_all_learners_emit_valid_posteriors():
    rng = np.random.default_rng(9)
    for make in (
        lambda: NaiveBayes(NUM2),
        lambda: with_constants(HoeffdingTree(NUM2), grace_period=30),
        lambda: with_constants(AccuracyWeightedEnsemble(NUM2), chunk_size=25),
    ):
        learner = make()
        for _ in range(300):
            y = int(rng.integers(0, 2))
            x = (float(rng.normal(y * 2.0)), float(rng.normal()))
            post = learner.predict(x)
            assert sum(post.probs) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0.0 for p in post.probs)
            learner.train(x, y)


# ---------------------------------------------------------------- the nb step


def posterior_or_error(make):
    """Exact fields of a posterior, or the type and text of its error."""
    try:
        post = make()
    except InvalidPosterior as exc:
        return type(exc), str(exc)
    return (
        list(map(float.hex, post.probs)),
        post.top_index,
        float.hex(post.top_prob),
        float.hex(post.second_prob),
    )


# training cells up to the largest floats, so moments overflow to inf and
# NaN and the scores with them
train_numeric = st.one_of(numeric_cell, st.sampled_from([1e200, -1e200, 1.7e308, -1.7e308]))
train_instance = st.tuples(
    st.tuples(
        train_numeric,
        st.one_of(st.none(), st.integers(0, 1)),
        train_numeric,
        st.one_of(st.none(), st.integers(0, 2)),
    ),
    st.integers(0, 2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(train_instance, max_size=10), st.lists(probe_instance, min_size=1, max_size=5))
def test_predict_matches_a_posterior_built_from_predict_probs(training, probes):
    nb = NaiveBayes(MIXED)
    for features, label in training:
        nb.train(features, label)
    for features in probes:
        expected = posterior_or_error(lambda: ClassPosterior(nb.predict_probs(features)))
        got = posterior_or_error(lambda: nb.predict(features))
        if got != expected:
            # only the error text may differ: predict appends the cause
            assert got[0] is expected[0] is InvalidPosterior
            assert got[1].startswith(expected[1] + " (numeric attribute ")


def test_predict_raises_the_posterior_error_on_nan_scores():
    nb = NaiveBayes(MIXED)
    nb.train((1e200, 0, 0.0, 0), 0)
    nb.train((-1e200, 0, 0.0, 0), 0)
    probe = (0.0, 0, 0.0, 0)
    with pytest.raises(InvalidPosterior) as checked:
        ClassPosterior(nb.predict_probs(probe))
    with pytest.raises(InvalidPosterior) as fused:
        nb.predict(probe)
    assert str(checked.value) == "probability entry 0 is negative or NaN: nan"
    assert str(fused.value) == (
        "probability entry 0 is negative or NaN: nan (numeric attribute 'x0' overflowed)"
    )


def test_predict_names_a_probe_cell_that_overflows_the_gaussian_term():
    # finite moments, but (x - mean)^2 / (2 var) of this cell is inf for
    # every class, so all scores are -inf
    nb = NaiveBayes(MIXED)
    nb.train((0.0, 0, 0.0, 0), 0)
    nb.train((0.0, 0, 1.0, 0), 1)
    with pytest.raises(InvalidPosterior, match=r"\(numeric attribute 'x0' overflowed\)$"):
        nb.predict((1e154, 0, 0.5, 0))


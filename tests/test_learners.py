
import math

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
    ConfigError,
    InvalidPosterior,
    StreamSchema,
)
from driftlab.learners import (
    AccuracyWeightedEnsemble,
    DomainError,
    HoeffdingTree,
    LabelOutOfRange,
    NaiveBayes,
    _BayesStack,
    hoeffding_bound,
)

NUM2 = StreamSchema((Attribute("x0", NUMERIC), Attribute("x1", NUMERIC)), ("a", "b"))
NOM1 = StreamSchema((Attribute("f", NOMINAL, ("A", "B")),), ("c0", "c1"))


def with_constants(learner, **constants):
    """``learner`` with some of its class constants overridden on the instance."""
    vars(learner).update(constants)
    return learner


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
        with pytest.raises(LabelOutOfRange):
            nb.train((1.0, 1.0), 2)
        with pytest.raises(LabelOutOfRange):
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
        with pytest.raises(LabelOutOfRange):
            ht.train((0.0, 0.0), 5)


class TestHistogram:
    def test_counts_and_range(self):
        from driftlab.learners import _Histogram

        h = _Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.add(v)
        assert h.n == 4
        assert (h.lo, h.hi) == (1.0, 4.0)
        assert sum(h.bins) == pytest.approx(4.0)

    def test_stretch_preserves_mass(self):
        from driftlab.learners import _Histogram

        h = _Histogram()
        rng = np.random.default_rng(0)
        for v in rng.normal(size=500):
            h.add(float(v))
        h.add(50.0)  # forces a big stretch
        assert sum(h.bins) == pytest.approx(501.0)
        assert h.n == 501

    def test_left_counts_interpolate(self):
        from driftlab.learners import _Histogram

        h = _Histogram()
        for v in np.linspace(0.0, 64.0, 1000):
            h.add(float(v))
        below, at_hi, middle = left_counts(h, (-1.0, 64.0, 32.0))
        assert below == 0.0
        assert at_hi == 1000.0
        assert middle == pytest.approx(500.0, abs=10.0)

    def test_left_count_just_below_hi(self):
        from driftlab.learners import _Histogram

        # (0 - lo) / (hi - lo) rounds to exactly 1.0, one past the last bin
        h = _Histogram()
        h.add(1.1754943508222875e-38)
        h.add(-1.0)
        assert left_counts(h, (0.0,)) == [pytest.approx(2.0)]

    def test_range_wider_than_the_largest_float_is_a_domain_error(self):
        # the bin position would be inf / inf; it used to end in a bare
        # ValueError from int(nan)
        ht = HoeffdingTree(StreamSchema((Attribute("x", NUMERIC),), ("a", "b")))
        ht.train((-1.7e308,), 0)
        ht.train((None,), 1)
        with pytest.raises(DomainError, match="largest float"):
            ht.train((1.7e308,), 0)

    def test_classes_1e307_either_side_of_zero_split(self):
        assert train_opposite_points(1e307).n_splits == 1

    def test_classes_whose_merged_range_is_wider_than_the_largest_float_is_a_domain_error(self):
        # each class's own range is a single point; every cut of the merged
        # range used to be inf, and the tree silently never split
        with pytest.raises(DomainError, match=r"-1e\+308 to 1e\+308 span more than the largest float"):
            train_opposite_points(1e308)


def train_opposite_points(scale):
    """A tree fed one grace period of class a at -scale and class b at +scale."""
    ht = HoeffdingTree(StreamSchema((Attribute("x", NUMERIC),), ("a", "b")))
    for i in range(ht.grace_period):
        ht.train((scale if i % 2 else -scale,), i % 2)
    return ht


def left_counts(hist, cuts):
    """The array pass's left counts of one histogram at ``cuts``."""
    from driftlab.learners import _left_counts

    with np.errstate(all="ignore"):
        left = _left_counts(
            np.array(hist.bins), np.array([hist.lo]), np.array([hist.hi]), float(hist.n), np.array(cuts)
        )
    return left.tolist()


# The scalar split scan that the array pass (_numeric_gains) replaced,
# kept verbatim as its reference: the pass must match it bit for bit.


def reference_cumulative(hist) -> list:
    out = [0.0] * (hist.NBINS + 1)
    acc = 0.0
    for k, cnt in enumerate(hist.bins):
        acc += cnt
        out[k + 1] = acc
    return out


def reference_count_le(hist, x, prefix) -> float:
    """Observations with value <= x, given this histogram's prefix sums."""
    if hist.n == 0 or x < hist.lo:
        return 0.0
    if x >= hist.hi:
        return float(hist.n)
    pos = (x - hist.lo) / (hist.hi - hist.lo) * hist.NBINS
    # x < hi can still round to pos == NBINS when hi - lo dwarfs hi - x
    full = min(int(pos), hist.NBINS - 1)
    return prefix[full] + hist.bins[full] * (pos - full)


def reference_numeric_gain(per_class):
    from driftlab.learners import _entropy, _Histogram

    c = len(per_class)
    lo = math.inf
    hi = -math.inf
    totals = [0.0] * c
    for y in range(c):
        hist = per_class[y]
        if hist is None or hist.n == 0:
            continue
        lo = min(lo, hist.lo)
        hi = max(hi, hist.hi)
        totals[y] = float(hist.n)
    n = sum(totals)
    if n <= 0.0 or hi <= lo:
        return None
    prefixes = [reference_cumulative(h) if h is not None else None for h in per_class]
    parent_h = _entropy(totals, n)
    nbins = _Histogram.NBINS
    best_gain = -1.0
    best_t = None
    span = hi - lo
    for k in range(1, nbins):
        t = lo + span * k / nbins
        left = [0.0] * c
        nl = 0.0
        for y in range(c):
            hist = per_class[y]
            if hist is None:
                continue
            cnt = reference_count_le(hist, t, prefixes[y])
            left[y] = cnt
            nl += cnt
        nr = n - nl
        if nl <= 0.0 or nr <= 0.0:
            continue
        right = [totals[y] - left[y] for y in range(c)]
        gain = (
            parent_h
            - nl / n * _entropy(left, nl)
            - nr / n * _entropy(right, nr)
        )
        if gain > best_gain:
            best_gain = gain
            best_t = t
    if best_t is None:
        return None
    return best_gain, best_t


# Half the largest float: two values this far apart span 1.7e308, the
# widest range a single histogram holds.
HALF_MAX = 8.5e307

# What one class of a generated leaf saw of one attribute: nothing (no
# histogram), a few picked values, or (n, seed, scale) for n draws of
# N(class, 1) * scale, whose stretched histograms hold fractional counts.
class_values = st.one_of(
    st.none(),
    st.lists(
        st.one_of(
            st.floats(-1e6, 1e6, allow_subnormal=False),
            st.sampled_from((0.0, -1.0, 1.0, 1.1754943508222875e-38, -HALF_MAX, HALF_MAX)),
        ),
        min_size=1,
        max_size=8,
    ),
    st.tuples(st.integers(1, 200), st.integers(0, 2**32 - 1), st.sampled_from((1.0, 1e-3, 1e6))),
)


@st.composite
def leaf_values(draw):
    """{attribute: one class_values entry per class}, for 2, 4 or 9
    classes; each attribute has a histogram in at least one class."""
    classes = draw(st.sampled_from((2, 4, 9)))
    per_class = st.lists(class_values, min_size=classes, max_size=classes)
    attrs = st.lists(per_class.filter(lambda entries: any(e is not None for e in entries)), min_size=1, max_size=3)
    return dict(enumerate(draw(attrs)))


@settings(max_examples=300, deadline=None)
@given(leaf_values())
# the cut at 0.0 falls just below class 0's hi, where pos rounds to NBINS
@example({0: [[1.1754943508222875e-38, -1.0], [-1.0, 1.0]]})
# classes with no histogram, and a single-point histogram (lo == hi)
@example({0: [None, [2.5, 2.5, 2.5], [0.0, 1.0, 3.0], None]})
# spans of 1.7e308, where span * k overflows to inf for the upper cuts
@example({0: [[-HALF_MAX, 0.0], [HALF_MAX, 1.0]], 1: [[-HALF_MAX, HALF_MAX], [0.0]]})
# np.log2 in place of math.log2 moves a bit of the best gain here
@example({0: [(38, 190412, 1.0), (124, 341465, 1.0)]})
@example({0: [(41, 628015, 1.0), (119, 97337, 1.0), (88, 848395, 1.0), (76, 389879, 1.0)]})
# a pairwise sum over the 9 classes in place of row by row moves a bit here
@example({0: [(102, 993908, 1.0), (58, 414002, 1.0), (186, 50631, 1.0), (38, 861168, 1.0),
              (157, 98702, 1.0), (113, 611097, 1.0), (34, 953893, 1.0), (149, 225127, 1.0),
              (29, 90122, 1.0)]})
def test_numeric_gains_match_the_scalar_scan_bit_for_bit(leaf):
    from driftlab.learners import _Histogram, _numeric_gains

    hists = {}
    for j, entries in leaf.items():
        hists[j] = per_class = []
        for y, values in enumerate(entries):
            if values is None:
                per_class.append(None)
                continue
            if isinstance(values, tuple):
                n, seed, scale = values
                values = (np.random.default_rng(seed).normal(y, 1.0, n) * scale).tolist()
            hist = _Histogram()
            for v in values:
                hist.add(v)
            per_class.append(hist)
    want = {}
    for j, per_class in hists.items():
        result = reference_numeric_gain(per_class)
        if result is not None:
            want[j] = tuple(map(float.hex, result))
    got = {j: tuple(map(float.hex, result)) for j, result in _numeric_gains(hists).items()}
    assert got == want


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
        awe.members = [[strong, 1.0], [NaiveBayes(NUM2), 0.0]]
        x = (10.0, 0.0)
        assert awe.predict(x).probs == pytest.approx(strong.predict(x).probs)

    def test_all_zero_weights_fall_back_to_plain_average(self):
        awe = AccuracyWeightedEnsemble(NUM2)
        a, b = NaiveBayes(NUM2), NaiveBayes(NUM2)
        a.train((0.0, 0.0), 0)
        b.train((5.0, 5.0), 1)
        awe.members = [[a, 0.0], [b, 0.0]]
        x = (1.0, 1.0)
        expected = [
            (pa + pb) / 2 for pa, pb in zip(a.predict_probs(x), b.predict_probs(x))
        ]
        assert awe.predict(x).probs == pytest.approx(expected)

    def test_negative_member_weight_is_rejected(self):
        # a positive total would otherwise scale -0.5 x b's posterior into
        # negative probabilities
        a, b = NaiveBayes(NUM2), NaiveBayes(NUM2)
        a.train((0.0, 0.0), 0)
        b.train((10.0, 0.0), 1)
        awe = AccuracyWeightedEnsemble(NUM2)
        awe.members = [[a, 1.0]]
        with pytest.raises(ConfigError, match="must not be negative"):
            awe.members = [[a, 1.0], [b, -0.5]]
        assert len(awe.members) == 1
        assert awe.predict((10.0, 0.0)).probs == [1.0, 0.0]

    def test_label_checked_immediately(self):
        awe = AccuracyWeightedEnsemble(NUM2)
        with pytest.raises(LabelOutOfRange):
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
    awe.members = [[models[k], w] for k, w in zip(picks, weights)]
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

    def test_predict_then_members_reassigned_then_predict(self):
        awe = with_constants(AccuracyWeightedEnsemble(MIXED), chunk_size=3)
        for shift in (0.0, 4.0):
            for features, label in self._chunk(shift):
                awe.train(features, label)
        probe = (2.0, 1, 1.0, 2)
        before = assert_same_probs(awe, probe)
        # the same list object, assigned back after editing it
        members = awe.members
        members[0] = [members[0][0], 0.0]
        awe.members = members
        after = assert_same_probs(awe, probe)
        assert after != before
        awe.members = [[members[0][0], 1.0], [members[0][0], 0.5]]  # duplicates
        assert assert_same_probs(awe, probe) != after

    def test_unobserved_attribute_with_an_overflowing_value(self):
        # class 0 never saw x1, so 1e200 adds nothing to it; class 1's
        # squared distance overflows and its score is -inf
        nb = NaiveBayes(MIXED)
        nb.train((0.0, 0, None, 0), 0)
        nb.train((1.0, 1, 2.0, 1), 1)
        awe = AccuracyWeightedEnsemble(MIXED)
        awe.members = [[nb, 1.0], [nb, 0.5]]
        assert assert_same_probs(awe, (0.0, 0, 1e200, 0)) == [1.0, 0.0, 0.0]

    def test_nan_posteriors_match_too(self):
        # an infinite variance gives NaN scores; the stacked pass must
        # produce the same NaN and zero entries as the per-member loop
        nb = NaiveBayes(MIXED)
        nb.train((1e200, 0, 0.0, 0), 0)
        nb.train((-1e200, 0, 0.0, 0), 0)
        nb.train((3.0, 0, 0.0, 0), 1)
        awe = AccuracyWeightedEnsemble(MIXED)
        awe.members = [[nb, 1.0]]
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
        awe.members = [[broken, 0.0], [good, 0.5]]
        assert math.isnan(broken.predict_probs((1e200, 0, 0.0, 0))[0])
        assert assert_same_probs(awe, (1e200, 0, 0.0, 0)) == [0.0, 1.0, 0.0]

    def test_untrained_and_zero_weight_members(self):
        trained = NaiveBayes(MIXED)
        trained.train((1.0, 1, 1.0, 1), 2)
        awe = AccuracyWeightedEnsemble(MIXED)
        awe.members = [[NaiveBayes(MIXED), 0.0], [trained, 0.0]]
        # all weights zero: the untrained member's uniform posterior counts
        assert assert_same_probs(awe, (1.0, 1, 1.0, 1)) == [1 / 6, 1 / 6, 1 / 6 + 1 / 2]
        awe.members = [[NaiveBayes(MIXED), 0.25], [trained, 0.0]]
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
        awe.members = [[nb, 1.0]]
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


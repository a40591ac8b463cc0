import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from driftlab.core import NUMERIC, Attribute, ClassPosterior, ConfigError, StreamSchema
from driftlab.hybrid import SELF_LABEL, HybridConfig, build_runner
from driftlab.selflabel import (
    FixedConfidence,
    RandomizedAdaptiveConfidence,
    error_scaled_threshold,
    inverted_uncertainty_threshold,
    similarity_scaled_threshold,
)


def adaptive(step=0.01):
    """The ``uni`` policy: the adaptive bar with its jitter switched off."""
    return RandomizedAdaptiveConfidence(
        step=step, noise=0.0, rng=np.random.default_rng(0)
    )


def informed(name):
    """An informed policy as the run loop builds it."""
    return SELF_LABEL[name](np.random.default_rng(0))


def posterior(top, n_classes=2):
    rest = (1.0 - top) / (n_classes - 1)
    return ClassPosterior([top] + [rest] * (n_classes - 1))


class ExplodingRun:
    """Run-loop stand-in that fails on any attribute read.

    Blind strategies must never look at the run loop's signals, so
    handing them this object proves it.
    """

    def __getattr__(self, name):
        raise AssertionError(f"blind strategy read run-loop signal {name!r}")


def run(**signals):
    """A run loop that publishes just the given signals."""
    return SimpleNamespace(**signals)


class TestThresholdFunctions:
    # frozen against a 40-digit reference implementation
    ERROR_CASES = [
        (0.0, 2, 0.76159415595576488812),
        (0.5, 2, 0.96402758007581688395),
        (1.0, 2, 0.99505475368673045133),
        (0.24, 2, 0.90146798783194670176),
        (0.0, 4, 0.4621171572600097585),
        (0.1, 3, 0.69967658742030539263),
        (0.03, 2, 0.78566385902694365005),
    ]
    SIMILARITY_CASES = [
        (0.9, 2, 1.0),
        (1.0, 2, 0.5),
        (0.95, 2, 0.75),
        (1.0, 4, 0.25),
        (0.93, 3, 0.8),
    ]
    INVERTED_CASES = [
        (1.0, 2, 0.5),
        (0.5, 2, 1.0),
        (0.7, 4, 0.55),
        (0.65, 2, 0.85),
    ]

    @pytest.mark.parametrize("error,classes,expected", ERROR_CASES)
    def test_error_scaled_values(self, error, classes, expected):
        got = error_scaled_threshold(error, classes)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("similarity,classes,expected", SIMILARITY_CASES)
    def test_similarity_scaled_values(self, similarity, classes, expected):
        got = similarity_scaled_threshold(similarity, classes)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("threshold,classes,expected", INVERTED_CASES)
    def test_inverted_uncertainty_values(self, threshold, classes, expected):
        got = inverted_uncertainty_threshold(threshold, classes)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=50),
    )
    def test_error_scaled_range_and_monotonicity(self, error, classes):
        bar = error_scaled_threshold(error, classes)
        assert 0.0 < bar < 1.0
        assert error_scaled_threshold(error + 0.05, classes) > bar

    @given(
        st.floats(min_value=0.9, max_value=1.0),
        st.integers(min_value=2, max_value=50),
    )
    def test_similarity_scaled_antitone(self, similarity, classes):
        bar = similarity_scaled_threshold(similarity, classes)
        assert 1.0 / classes - 1e-12 <= bar <= 1.0 + 1e-12
        lower = similarity_scaled_threshold(min(similarity + 0.01, 1.0), classes)
        assert lower <= bar + 1e-12

    def test_similarity_endpoints_exact(self):
        # worst similarity pins the bar at 1, perfect similarity at 1/c
        for c in range(2, 12):
            assert similarity_scaled_threshold(0.9, c) == 1.0
            assert similarity_scaled_threshold(1.0, c) == pytest.approx(1.0 / c)

    def test_inverted_uncertainty_antitone_in_threshold(self):
        bars = [inverted_uncertainty_threshold(t, 2) for t in (1.0, 0.9, 0.8, 0.7)]
        assert bars == sorted(bars)


class TestFixedConfidence:
    def test_inclusive_boundary(self):
        strat = FixedConfidence(0.95)
        fb = run()
        assert strat.decide(posterior(0.95), fb).train
        assert not strat.decide(posterior(0.9499), fb).train

    def test_default_bar(self):
        assert FixedConfidence().confidence == 0.95

    def test_reports_bar(self):
        d = FixedConfidence(0.9).decide(posterior(0.99), run())
        assert d.threshold == 0.9

    def test_never_reads_feedback(self):
        strat = FixedConfidence()
        d = strat.decide(posterior(0.99), ExplodingRun())
        assert d.train

    def test_validation(self):
        with pytest.raises(ConfigError):
            FixedConfidence(0.0)
        with pytest.raises(ConfigError):
            FixedConfidence(1.0001)


class TestAdaptiveConfidence:
    def test_starts_fully_strict(self):
        strat = adaptive()
        assert strat.confidence == 1.0
        # only a fully certain prediction clears a bar of 1
        assert not strat.decide(posterior(0.9999), run()).train

    def test_accept_raises_bar_reject_lowers(self):
        strat = adaptive(step=0.01)
        strat.confidence = 0.9
        d = strat.decide(posterior(0.95), run())
        assert d.train
        assert d.threshold == 0.9
        assert strat.confidence == pytest.approx(0.909)
        strat.confidence = 0.9
        d = strat.decide(posterior(0.5), run())
        assert not d.train
        assert strat.confidence == pytest.approx(0.891)

    def test_matches_hand_loop(self):
        strat = adaptive(step=0.01)
        rng = np.random.default_rng(3)
        bar = 1.0
        for _ in range(2000):
            top = rng.uniform(0.5, 1.0)
            d = strat.decide(posterior(top), run())
            assert d.train == (top >= bar)
            assert d.threshold == bar
            bar *= 1.01 if d.train else 0.99
            bar = min(1.0, max(0.5, bar))
            assert strat.confidence == bar

    def test_clamps_to_class_floor(self):
        strat = adaptive(step=0.5)
        weak = ClassPosterior([0.25, 0.25, 0.25, 0.25])
        for _ in range(20):
            strat.decide(weak, run())
        assert strat.confidence == 0.25
        # at the floor the uniform top hits the bar exactly
        assert strat.decide(weak, run()).train

    def test_never_reads_feedback(self):
        strat = adaptive()
        strat.decide(posterior(0.7), ExplodingRun())

    def test_validation(self):
        with pytest.raises(ConfigError):
            RandomizedAdaptiveConfidence(step=0.0, rng=np.random.default_rng(0))


class TestRandomizedAdaptiveConfidence:
    class FakeRng:
        def __init__(self, normals):
            self._normals = list(normals)

        def standard_normal(self, size=None):
            # a block holds the scripted values still left, in order
            if size is None or not self._normals:
                return self._normals.pop(0)
            block = np.array(self._normals[:size])
            del self._normals[:size]
            return block

    def test_jittered_bar_drives_decision_and_update(self):
        # eta = 6 puts the bar far above any posterior: reject and lower
        strat = RandomizedAdaptiveConfidence(step=0.01, rng=self.FakeRng([5.0]))
        d = strat.decide(posterior(1.0), run())
        assert not d.train
        assert d.threshold == pytest.approx(6.0)
        assert strat.confidence == pytest.approx(0.99)

    def test_negative_eta_accepts_anything(self):
        strat = RandomizedAdaptiveConfidence(step=0.01, rng=self.FakeRng([-2.0]))
        d = strat.decide(posterior(0.51), run())
        assert d.train
        assert d.threshold == pytest.approx(-1.0)
        assert strat.confidence == 1.0  # 1.01 clamps back

    def test_zero_noise_matches_plain_adaptive(self):
        # zero jitter must walk the plain adaptive rule step for step,
        # clamped to the three-class floor of 1/3
        randomized = RandomizedAdaptiveConfidence(
            step=0.01, noise=0.0, rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(17)
        fb = run()
        bar = 1.0
        for _ in range(2000):
            top = rng.uniform(1 / 3, 1.0)
            d = randomized.decide(posterior(top, n_classes=3), fb)
            assert d.train == (top >= bar)
            assert d.threshold == bar
            bar *= 1.01 if d.train else 0.99
            bar = min(1.0, max(1 / 3, bar))
            assert randomized.confidence == bar

    def test_acceptance_rate_matches_gaussian_tail(self):
        # fresh bar of 1 and top 0.8: accept iff eta <= 0.8, so the rate
        # is the standard normal CDF at -0.2 (frozen reference value)
        strat = RandomizedAdaptiveConfidence(rng=np.random.default_rng(23))
        p = posterior(0.8)
        fb = run()
        n = 20_000
        hits = 0
        for _ in range(n):
            strat.confidence = 1.0
            if strat.decide(p, fb).train:
                hits += 1
        assert abs(hits / n - 0.420740290561) < 0.01

    def test_one_draw_per_decision(self):
        seed = 31
        strat = RandomizedAdaptiveConfidence(rng=np.random.default_rng(seed))
        replay = np.random.default_rng(seed).standard_normal(50)
        fb = run()
        for offset in replay:
            bar = strat.confidence
            d = strat.decide(posterior(0.8), fb)
            assert d.threshold == pytest.approx(bar * (1.0 + offset))

    def test_never_reads_feedback(self):
        strat = RandomizedAdaptiveConfidence(rng=np.random.default_rng(1))
        strat.decide(posterior(0.7), ExplodingRun())

    def test_validation(self):
        with pytest.raises(ConfigError):
            RandomizedAdaptiveConfidence(step=2.0, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            RandomizedAdaptiveConfidence(noise=-1.0, rng=np.random.default_rng(0))


class TestInformedStrategies:
    def test_inverted_uncertainty_boundary(self):
        strat = informed("invunc")
        fb = run(query_threshold=0.65)
        assert strat.decide(posterior(0.85), fb).train
        assert not strat.decide(posterior(0.8499), fb).train
        assert strat.decide(posterior(0.9), fb).threshold == pytest.approx(0.85)

    def test_error_scaled_uses_detector_estimate(self):
        strat = informed("cddm")
        fb = run(error_estimate=0.24)
        d = strat.decide(posterior(0.91), fb)
        assert d.threshold == pytest.approx(0.90146798783194670176, rel=1e-12)
        assert d.train
        assert not strat.decide(posterior(0.90), fb).train

    def test_similarity_scaled_uses_detector_similarity(self):
        strat = informed("ceddm")
        fb = run(similarity=0.95)
        d = strat.decide(posterior(0.76), fb)
        assert d.threshold == pytest.approx(0.75)
        assert d.train
        assert not strat.decide(posterior(0.74), fb).train
        fb.similarity = 0.9
        # the bar is exactly 1.0 here, so the comparison is inclusive
        # worst similarity pins the bar at 1: only certainty clears it
        assert not strat.decide(posterior(0.999), fb).train
        assert strat.decide(ClassPosterior([1.0, 0.0]), fb).train

    def test_window_scaled_uses_window_error(self):
        strat = informed("winerr")
        fb = run(windowed_error=0.0)
        d = strat.decide(posterior(0.77), fb)
        assert d.threshold == pytest.approx(0.76159415595576488812, rel=1e-12)
        assert d.train

    def test_class_count_comes_from_the_posterior(self):
        for classes in (2, 3, 5):
            d = informed("cddm").decide(
                posterior(0.9, n_classes=classes), run(error_estimate=0.1)
            )
            assert d.threshold == error_scaled_threshold(0.1, classes)

    def test_window_and_error_share_one_mapping(self):
        # same signal value -> identical bar from both strategies
        for value in (0.0, 0.1, 0.33, 0.8):
            err = informed("cddm").decide(
                posterior(0.9, n_classes=3), run(error_estimate=value)
            )
            win = informed("winerr").decide(
                posterior(0.9, n_classes=3), run(windowed_error=value)
            )
            assert err.threshold == win.threshold

    @pytest.mark.parametrize(
        "strategy,fields",
        [
            (informed("invunc"), {"query_threshold": 0.8}),
            (informed("cddm"), {"error_estimate": 0.1}),
            (informed("ceddm"), {"similarity": 0.97}),
            (informed("winerr"), {"windowed_error": 0.2}),
        ],
    )
    def test_reads_only_its_own_signal(self, strategy, fields):
        # any other field would explode
        strategy.decide(posterior(0.9), run(**fields))

    @pytest.mark.parametrize(
        "strategy",
        [
            informed("invunc"),
            informed("cddm"),
            informed("ceddm"),
            informed("winerr"),
        ],
    )
    def test_informed_strategies_are_stateless(self, strategy):
        fb = run(
            query_threshold=0.7,
            error_estimate=0.05,
            similarity=0.96,
            windowed_error=0.1,
        )
        before = dict(vars(strategy))
        first = strategy.decide(posterior(0.9), fb)
        second = strategy.decide(posterior(0.9), fb)
        assert first.train == second.train
        assert first.threshold == second.threshold
        assert vars(strategy) == before

    def test_registry_builds_the_informed_pairs(self):
        pairs = {}
        for name in ("invunc", "cddm", "ceddm", "winerr"):
            strategy = informed(name)
            pairs[name] = (strategy.field, strategy.threshold_fn)
        assert pairs == {
            "invunc": ("query_threshold", inverted_uncertainty_threshold),
            "cddm": ("error_estimate", error_scaled_threshold),
            "ceddm": ("similarity", similarity_scaled_threshold),
            "winerr": ("windowed_error", error_scaled_threshold),
        }


def test_feedback_defaults():
    # the signals a fresh run loop publishes, before any label is bought
    schema = StreamSchema((Attribute("x", NUMERIC),), ("a", "b"))
    fresh = build_runner(schema, HybridConfig(learner="nb", active="random"))
    assert fresh.query_threshold is None
    assert fresh.error_estimate == 0.0
    assert fresh.similarity == 1.0
    assert fresh.windowed_error == 0.0
    adaptive = build_runner(schema, HybridConfig(learner="nb", active="randvar"))
    assert adaptive.query_threshold == 1.0


def test_error_scaled_matches_math_tanh():
    # spot check the closed form straight against the stdlib
    assert error_scaled_threshold(0.25, 2) == math.tanh(1.5)

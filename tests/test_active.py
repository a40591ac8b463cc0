import numpy as np
import pytest

from driftlab.active import (
    QueryDecision,
    RandomQuery,
    RandomizedVariableUncertainty,
    SamplingQuery,
)
from driftlab.core import ClassPosterior


class FakeRng:
    """Deterministic stand-in feeding scripted draws. Asked for a block of
    ``size`` values, it hands over the scripted values still left, in
    order, and raises once none are left, as a scalar draw does."""

    def __init__(self, normals=(), uniforms=()):
        self._normals = list(normals)
        self._uniforms = list(uniforms)

    @staticmethod
    def _take(values, size):
        if size is None or not values:
            return values.pop(0)
        block = np.array(values[:size])
        del values[:size]
        return block

    def standard_normal(self, size=None):
        return self._take(self._normals, size)

    def random(self, size=None):
        return self._take(self._uniforms, size)


def posterior(top, n_classes=2):
    rest = (1.0 - top) / (n_classes - 1)
    return ClassPosterior([top] + [rest] * (n_classes - 1))


class TestRandomQuery:
    def test_budget_zero_never_queries(self):
        strat = RandomQuery(0.0, rng=np.random.default_rng(1))
        p = posterior(0.5)
        assert not any(strat.decide(p).query for _ in range(1000))

    def test_budget_one_always_queries(self):
        strat = RandomQuery(1.0, rng=np.random.default_rng(1))
        p = posterior(0.99)
        assert all(strat.decide(p).query for _ in range(1000))

    def test_query_rate_matches_budget(self):
        strat = RandomQuery(0.2, rng=np.random.default_rng(7))
        p = posterior(0.8)
        n = 50_000
        hits = sum(strat.decide(p).query for _ in range(n))
        assert abs(hits / n - 0.2) < 0.01

    def test_decision_carries_budget_and_top(self):
        strat = RandomQuery(0.3, rng=np.random.default_rng(0))
        d = strat.decide(posterior(0.7))
        assert d.threshold == 0.3

    def test_ignores_posterior_content(self):
        # same rng stream, different posteriors -> identical query pattern
        a = RandomQuery(0.5, rng=np.random.default_rng(3))
        b = RandomQuery(0.5, rng=np.random.default_rng(3))
        for _ in range(200):
            assert a.decide(posterior(0.99)).query == b.decide(posterior(0.51)).query

    def test_publishes_no_adaptive_threshold(self):
        assert RandomQuery(0.1, rng=np.random.default_rng(0)).adaptive_threshold is None


class TestSamplingQuery:
    def test_zero_margin_always_queries(self):
        strat = SamplingQuery(rng=np.random.default_rng(2))
        tied = ClassPosterior([0.5, 0.5])
        for _ in range(500):
            d = strat.decide(tied)
            assert d.query
            assert d.threshold == 1.0

    def test_probability_formula(self):
        # margin 1 with delta 1 -> query probability exactly 0.5
        strat = SamplingQuery(rng=np.random.default_rng(11))
        certain = ClassPosterior([1.0, 0.0])
        n = 50_000
        hits = sum(strat.decide(certain).query for _ in range(n))
        assert abs(hits / n - 0.5) < 0.01

    def test_probability_shrinks_with_margin(self):
        strat = SamplingQuery(rng=np.random.default_rng(0))
        wide = strat.decide(ClassPosterior([0.9, 0.1])).threshold
        narrow = strat.decide(ClassPosterior([0.6, 0.4])).threshold
        assert wide == pytest.approx(1.0 / 1.8)
        assert narrow == pytest.approx(1.0 / 1.2)
        assert wide < narrow

    def test_publishes_no_adaptive_threshold(self):
        assert SamplingQuery(rng=np.random.default_rng(0)).adaptive_threshold is None


class TestRandomizedVariableUncertainty:
    def test_initial_threshold_is_one(self):
        strat = RandomizedVariableUncertainty(rng=np.random.default_rng(0))
        assert strat.threshold == 1.0
        assert strat.adaptive_threshold == 1.0

    def test_deterministic_mode_matches_hand_loop(self):
        # noise=0 removes the jitter: query iff top <= threshold, then
        # threshold moves by the step factor and clamps to [1/c, 1]
        strat = RandomizedVariableUncertainty(rng=np.random.default_rng(0))
        strat.noise = 0.0
        rng = np.random.default_rng(42)
        threshold = 1.0
        for _ in range(2000):
            top = rng.uniform(0.5, 1.0)
            p = posterior(top)
            d = strat.decide(p)
            expect_query = top <= threshold
            assert d.query == expect_query
            assert d.threshold == threshold  # eta is exactly 1 with no noise
            if expect_query:
                threshold *= 0.99
            else:
                threshold *= 1.01
            threshold = min(1.0, max(0.5, threshold))
            assert strat.threshold == threshold

    def test_threshold_used_is_prior_value_times_eta(self):
        draws = [0.5, -0.25]
        strat = RandomizedVariableUncertainty(rng=FakeRng(draws))
        p = posterior(0.9)
        d1 = strat.decide(p)
        assert d1.threshold == pytest.approx(1.0 * 1.5)
        assert d1.query  # 0.9 <= 1.5
        assert strat.threshold == pytest.approx(0.99)
        d2 = strat.decide(p)
        assert d2.threshold == pytest.approx(0.99 * 0.75)
        assert not d2.query  # 0.9 > 0.7425
        assert strat.threshold == pytest.approx(0.99 * 1.01)

    def test_negative_eta_never_queries(self):
        strat = RandomizedVariableUncertainty(rng=FakeRng([-2.0]))
        d = strat.decide(posterior(0.5))
        assert d.threshold == pytest.approx(-1.0)
        assert not d.query
        assert strat.threshold == pytest.approx(1.0)  # 1.01 clamped back to 1

    def test_one_draw_per_decision(self):
        seed = 99
        strat = RandomizedVariableUncertainty(rng=np.random.default_rng(seed))
        replay = np.random.default_rng(seed).standard_normal(50)
        threshold = 1.0
        for eta_offset in replay:
            d = strat.decide(posterior(0.8))
            assert d.threshold == pytest.approx(threshold * (1.0 + eta_offset))
            threshold = strat.threshold

    def test_threshold_clamps_to_class_floor(self):
        strat = RandomizedVariableUncertainty(rng=np.random.default_rng(0))
        strat.step, strat.noise = 0.5, 0.0
        low = ClassPosterior([0.3, 0.25, 0.25, 0.2])
        for _ in range(20):
            strat.decide(low)  # always queries, threshold halves
        assert strat.threshold == 0.25

    def test_threshold_clamps_to_one(self):
        strat = RandomizedVariableUncertainty(rng=np.random.default_rng(0))
        strat.step, strat.noise = 0.5, 0.0
        strat.threshold = 0.6
        sure = posterior(0.99)
        strat.decide(sure)  # no query, threshold grows 0.9
        strat.decide(sure)  # 1.35 -> clamp
        assert strat.threshold == 1.0

    def test_thresholds_stay_in_range_under_jitter(self):
        strat = RandomizedVariableUncertainty(rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for _ in range(5000):
            strat.decide(posterior(rng.uniform(1 / 3, 1.0), n_classes=3))
            assert 1 / 3 <= strat.threshold <= 1.0


def test_decision_repr_mentions_fields():
    d = QueryDecision(True, 0.5)
    assert "query=True" in repr(d)
    assert "0.5" in repr(d)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.drift import (
    CHANGE,
    STABLE,
    WARNING,
    DdmDetector,
    EddmDetector,
)
from driftlab.evaluation import PrequentialWindow


def feed(detector, outcomes):
    last = None
    for o in outcomes:
        last = detector.update(bool(o))
    return last


class TestDdm:
    def test_binomial_deviation_closed_form(self):
        det = DdmDetector()
        # 20 errors in 100 outcomes, interleaved
        feed(det, ((i % 5 == 0) for i in range(100)))
        assert det.p == pytest.approx(0.2, rel=1e-12)
        assert det.s == pytest.approx(math.sqrt(0.2 * 0.8 / 100), rel=1e-12)
        assert det.epsilon() == pytest.approx(0.24, rel=1e-12)

    def test_fresh_epsilon_is_zero(self):
        assert DdmDetector().epsilon() == 0.0

    def test_change_level_threshold_arithmetic(self):
        # with minima pinned at (0.2, 0.04), crossing p + s > 0.32 is a change
        det = DdmDetector()
        det.n = 10000
        det.errors = 3292
        det.p = 0.3292
        det.s = math.sqrt(det.p * (1 - det.p) / det.n)
        det.p_min = 0.2
        det.s_min = 0.04
        assert det.update(True) == CHANGE

    def test_warning_level_threshold_arithmetic(self):
        det = DdmDetector()
        det.n = 10000
        det.errors = 2850
        det.p = 0.285
        det.p_min = 0.2
        det.s_min = 0.04
        assert det.update(True) == WARNING

    def test_stable_below_both_limits(self):
        det = DdmDetector()
        det.n = 10000
        det.errors = 2500
        det.p = 0.25
        det.p_min = 0.2
        det.s_min = 0.04
        assert det.update(False) == STABLE

    def test_warmup_blocks_levels(self):
        det = DdmDetector()
        # all errors: p stays 1 but fewer than 30 outcomes seen
        for _ in range(29):
            assert det.update(True) == STABLE

    def test_error_gate_blocks_levels(self):
        # plenty of outcomes but fewer than 30 errors: level stays stable
        det = DdmDetector()
        outcomes = [i % 40 == 0 for i in range(1000)]  # 25 errors
        for o in outcomes:
            assert det.update(o) == STABLE

    def test_only_non_errors_never_leave_stable(self):
        det = DdmDetector()
        for _ in range(35):
            det.update(True)
        for _ in range(5000):
            assert det.update(False) == STABLE

    def test_constant_rate_stream_stays_stable(self):
        # error exactly every 100th step for 50k steps
        det = DdmDetector()
        for i in range(50000):
            assert det.update((i + 1) % 100 == 0) == STABLE

    def test_continuous_change_resets_statistics(self):
        det = DdmDetector()
        rng = np.random.default_rng(0)
        outcomes = np.concatenate([rng.random(2000) < 0.1, rng.random(1000) < 0.8])
        fired = False
        for o in outcomes:
            if det.update(bool(o)) == CHANGE:
                fired = True
                break
        assert fired
        assert det.level == CHANGE  # the signal itself is preserved
        assert det.n == 0
        assert det.epsilon() == 0.0

    def test_minima_recorded_as_a_pair(self):
        det = DdmDetector()
        rng = np.random.default_rng(1)
        for o in rng.random(5000) < 0.2:
            det.update(bool(o))
            if det.p_min < math.inf:
                # the stored pair came from one single update
                assert det.p_min + det.s_min <= det.p + det.s + 1e-12

    def test_epsilon_is_pure(self):
        det = DdmDetector()
        feed(det, [True, False, True])
        before = (det.n, det.p, det.s)
        det.epsilon()
        assert (det.n, det.p, det.s) == before


class TestDdmShiftBenchmark:
    def test_detects_error_rate_jump_quickly(self):
        # Bernoulli 0.1 for 2000 steps then 0.5; frozen regression band
        # from a 100-seed calibration: 100% detected, median delay 59.5
        delays = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            errs = np.concatenate([rng.random(2000) < 0.1, rng.random(3000) < 0.5])
            det = DdmDetector()
            delay = None
            for i, e in enumerate(errs):
                if det.update(bool(e)) == CHANGE and i >= 2000:
                    delay = i - 2000 + 1
                    break
            if delay is not None:
                delays.append(delay)
        assert len(delays) >= 95
        within_200 = sum(1 for d in delays if d <= 200)
        assert within_200 >= 95
        assert 40 <= float(np.median(delays)) <= 90

    def test_eddm_change_delay_regression(self):
        # same benchmark: EDDM change median frozen at 35 in calibration
        delays = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            errs = np.concatenate([rng.random(2000) < 0.1, rng.random(8000) < 0.5])
            det = EddmDetector()
            for i, e in enumerate(errs):
                if det.update(bool(e)) == CHANGE and i >= 2000:
                    delays.append(i - 2000 + 1)
                    break
        assert len(delays) >= 95
        assert 20 <= float(np.median(delays)) <= 60


class TestEddm:
    def test_first_distance_is_one_based_position(self):
        det = EddmDetector()
        feed(det, [False, False, False, False, True])
        assert det._mean == 5.0
        assert det.error_count == 1

    def test_adjacent_errors_measure_one(self):
        det = EddmDetector()
        feed(det, [True, True])
        assert det._mean == pytest.approx(1.0)

    def test_constant_distances_are_maximally_similar(self):
        det = EddmDetector()
        for i in range(5 * 60):
            det.update((i + 1) % 5 == 0)
        assert det.error_count == 60
        assert det.similarity() == pytest.approx(1.0)
        assert det.level == STABLE

    def test_warmup_blocks_levels_regardless_of_distances(self):
        det = EddmDetector()
        # 29 long distances then abrupt burst: still stable (< 30 errors)
        outcomes = [False] * 50 + [True]
        for _ in range(24):
            for o in outcomes:
                assert det.update(o) == STABLE
        for _ in range(5):
            assert det.update(True) == STABLE
        assert det.error_count == 29

    def test_similarity_before_warmup_is_one(self):
        det = EddmDetector()
        feed(det, [False, False, True, True])
        assert det.similarity() == 1.0

    def test_shrinking_distances_fire_change(self):
        det = EddmDetector()
        fired = None
        step = 0
        for _ in range(35):  # warm up on distance-50 errors
            for _ in range(49):
                det.update(False)
                step += 1
            det.update(True)
            step += 1
        assert det.level == STABLE
        for _ in range(200):  # distances collapse to 5
            for _ in range(4):
                det.update(False)
                step += 1
            lvl = det.update(True)
            step += 1
            if lvl == CHANGE:
                fired = step
                break
        assert fired is not None

    def test_similarity_clamped_to_lower_bound(self):
        det = EddmDetector()
        det._raw = 0.85
        assert det.similarity() == 0.9
        det._raw = 1.2
        assert det.similarity() == 1.0

    def test_similarity_holds_value_through_continuous_reset(self):
        det = EddmDetector()
        for _ in range(35):
            for _ in range(49):
                det.update(False)
            det.update(True)
        held = None
        for _ in range(400):
            for _ in range(4):
                det.update(False)
            if det.update(True) == CHANGE:
                held = det.similarity()
                break
        assert held is not None
        assert det.error_count == 0  # moments were reset
        # similarity keeps the last computed value until warm again
        for _ in range(10):
            det.update(False)
        assert det.similarity() == held

    def test_non_error_updates_return_held_level(self):
        det = EddmDetector()
        assert det.update(False) == STABLE
        assert det.level == STABLE

    @staticmethod
    def _warm_then_shrink(det, distance, target):
        """Warm up on distance-50 errors, then feed errors ``distance``
        apart until one returns ``target``; returns the similarity then."""
        for _ in range(35):
            feed(det, [False] * 49 + [True])
        for _ in range(100):
            feed(det, [False] * (distance - 1))
            if det.update(True) == target:
                return det.similarity()
        raise AssertionError(f"{target} never raised")

    def test_change_is_returned_once(self):
        det = EddmDetector()
        held = self._warm_then_shrink(det, 5, CHANGE)
        # correct outcomes after the alarm report stable, not the alarm
        for _ in range(20):
            assert det.update(False) == STABLE
        assert det.level == STABLE
        assert det.similarity() == held

    def test_warning_is_held_until_next_error(self):
        det = EddmDetector()
        held = self._warm_then_shrink(det, 30, WARNING)
        for _ in range(20):
            assert det.update(False) == WARNING
        assert det.level == WARNING
        assert det.similarity() == held

    def test_similarity_is_pure(self):
        det = EddmDetector()
        feed(det, [False, True, False, False, True])
        before = (det._mean, det._m2, det.error_count, det._since)
        det.similarity()
        assert (det._mean, det._m2, det.error_count, det._since) == before


class TestWindowedErrorRate:
    """The runner's error window that feeds ``winerr``: a
    :class:`PrequentialWindow` over the outcomes of bought labels."""

    def test_reference_window(self):
        w = PrequentialWindow(window=4)
        for o in (1, 0, 1, 0):
            w.update(o)
        assert w.error_rate() == 0.5

    def test_all_correct_window_is_zero(self):
        w = PrequentialWindow(window=4)
        for _ in range(4):
            w.update(False)
        assert w.error_rate() == 0.0

    def test_empty_window_is_zero(self):
        w = PrequentialWindow(100)
        assert w.error_rate() == 0.0

    def test_eviction(self):
        w = PrequentialWindow(window=3)
        for o in (1, 0, 0, 0):
            w.update(o)
        # the leading error has been evicted
        assert w.error_rate() == 0.0

    def test_partial_window_uses_current_length(self):
        w = PrequentialWindow(window=100)
        w.update(True)
        w.update(False)
        assert w.error_rate() == 0.5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=300), st.integers(1, 50))
def test_windowed_error_matches_brute_force(outcomes, window):
    w = PrequentialWindow(window=window)
    for i, o in enumerate(outcomes):
        w.update(o)
        tail = outcomes[max(0, i + 1 - window) : i + 1]
        assert w.error_rate() == pytest.approx(sum(tail) / len(tail), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=500))
def test_ddm_epsilon_bounds(outcomes):
    det = DdmDetector()
    for o in outcomes:
        det.update(o)
        eps = det.epsilon()
        assert eps >= 0.0
        assert eps <= 1.0 + det.s + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=500))
def test_eddm_similarity_bounds(outcomes):
    det = EddmDetector()
    for o in outcomes:
        det.update(o)
        assert 0.9 <= det.similarity() <= 1.0

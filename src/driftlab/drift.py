"""Error-rate drift detectors.

Two classic detectors watch a stream of binary prediction outcomes and
expose both a discrete level (stable / warning / change) and a
continuous reading: :class:`DdmDetector` tracks the running error rate
and yields ``epsilon = p + s``; :class:`EddmDetector` tracks distances
between consecutive errors and yields the similarity ratio
``zeta = (p' + 2s') / (p'_max + 2s'_max)`` clamped to [0.9, 1.0].

A change signal resets the detector's own statistics so it can re-arm,
as both detectors are defined; it never touches any classifier.
"""

from __future__ import annotations

import math

STABLE = "stable"
WARNING = "warning"
CHANGE = "change"


class DdmDetector:
    """Running error-rate detector with minimum-tracking control limits.

    After each outcome the error probability estimate ``p`` and its
    binomial deviation ``s = sqrt(p(1-p)/n)`` are refreshed; the lowest
    recorded ``p + s`` (stored as a pair) anchors the warning and change
    limits at two and three deviations above it.

    Minima recording and level evaluation wait for ``warmup`` (30)
    outcomes and ``min_errors`` (30) observed errors. The error gate is a
    deliberate hardening: on streams with long clean prefixes the first
    recorded minimum would otherwise be (0, 0) and the very first error
    would fire an alarm.
    """

    warmup = 30
    min_errors = 30

    def __init__(self):
        self.reset()

    def reset(self):
        self.n = 0
        self.p = 0.0
        self.s = 0.0
        self.errors = 0
        self.p_min = math.inf
        self.s_min = math.inf
        self.level = STABLE
        return self

    def update(self, is_error) -> str:
        err = 1.0 if is_error else 0.0
        self.n += 1
        self.p += (err - self.p) / self.n
        self.s = math.sqrt(self.p * (1.0 - self.p) / self.n)
        if is_error:
            self.errors += 1
        level = STABLE
        if self.n >= self.warmup and self.errors >= self.min_errors:
            ps = self.p + self.s
            if ps < self.p_min + self.s_min:
                self.p_min = self.p
                self.s_min = self.s
            if ps > self.p_min + 3.0 * self.s_min:
                level = CHANGE
            elif ps > self.p_min + 2.0 * self.s_min:
                level = WARNING
        if level == CHANGE:
            self.reset()
        self.level = level
        return level

    def epsilon(self) -> float:
        """Continuous error reading p + s; 0 on a fresh detector."""
        if self.n == 0:
            return 0.0
        return self.p + self.s


class EddmDetector:
    """Distance-between-errors detector.

    Every outcome advances a distance counter; an error feeds the
    counter value into running distance moments (mean ``p'``, population
    deviation ``s'``) and resets it, so the first error's distance is
    its 1-based position and back-to-back errors measure 1. The largest
    recorded ``p' + 2s'`` (kept as a pair) is the reference scale;
    shrinking distances pull the ratio ``zeta`` below 1, to a warning
    under ``warning_threshold`` (0.95) and a change under
    ``change_threshold`` (0.9). Levels need ``warmup_errors`` (30) errors;
    until then, and again after the reset that follows a change,
    ``similarity`` holds its last value (initially 1.0). A correct
    outcome returns the held level: a ``warning`` holds until the next
    error, while ``change`` is returned only by the error that raises it.
    """

    warmup_errors = 30
    change_threshold = 0.9
    warning_threshold = 0.95

    def __init__(self):
        self._since = 0
        self._raw = 1.0
        self.level = STABLE
        self._reset_moments()

    def _reset_moments(self):
        self.error_count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._max_sum = 0.0

    def update(self, is_error) -> str:
        self._since += 1
        if not is_error:
            return self.level
        distance = self._since
        self._since = 0
        self.error_count += 1
        delta = distance - self._mean
        self._mean += delta / self.error_count
        self._m2 += delta * (distance - self._mean)
        dev = math.sqrt(self._m2 / self.error_count)
        current = self._mean + 2.0 * dev
        if current > self._max_sum:
            self._max_sum = current
        level = STABLE
        if self.error_count >= self.warmup_errors:
            self._raw = current / self._max_sum
            if self._raw < self.change_threshold:
                level = CHANGE
            elif self._raw < self.warning_threshold:
                level = WARNING
        if level == CHANGE:
            # an alarm is an event: the next correct outcomes report stable
            self.level = STABLE
            self._reset_moments()
        else:
            self.level = level
        return level

    def similarity(self) -> float:
        """Last computed distance-similarity ratio, clamped to [0.9, 1.0]."""
        if self._raw < 0.9:
            return 0.9
        if self._raw > 1.0:
            return 1.0
        return self._raw

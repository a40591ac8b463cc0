"""Self-labeling policies: when to trust a prediction as its own label.

Two families live here. Blind policies look only at the posterior (a
fixed or self-adjusting confidence bar, optionally jittered). Informed
policies read detector feedback published by the surrounding run loop -
the active strategy's adaptive threshold, an error-rate estimate, a
distribution-similarity score, or a sliding-window error rate - and map
it to a confidence bar through the pure functions below. Informed
policies keep no state of their own, so the mapping functions double as
the exact math contract.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ClassPosterior, ConfigError


class Feedback:
    """Per-step snapshot of run-loop signals for informed self-labeling.

    ``query_threshold`` is the active strategy's adaptive threshold when
    it has one (None otherwise). ``error_estimate`` and ``similarity``
    come from the drift detectors, ``windowed_error`` from the sliding
    evaluation window.
    """

    __slots__ = (
        "query_threshold",
        "error_estimate",
        "similarity",
        "windowed_error",
        "class_count",
    )

    def __init__(
        self,
        query_threshold=None,
        error_estimate=0.0,
        similarity=1.0,
        windowed_error=0.0,
        class_count=2,
    ):
        self.query_threshold = query_threshold
        self.error_estimate = error_estimate
        self.similarity = similarity
        self.windowed_error = windowed_error
        self.class_count = class_count


class SelfLabelDecision:
    """Whether to train on the model's own prediction, and the bar used."""

    __slots__ = ("train", "threshold")

    def __init__(self, train, threshold):
        self.train = train
        self.threshold = threshold

    def __repr__(self):
        return f"SelfLabelDecision(train={self.train!r}, threshold={self.threshold!r})"


def inverted_uncertainty_threshold(query_threshold: float, class_count: int) -> float:
    """Confidence bar that mirrors the active strategy's threshold.

    A permissive query threshold (close to 1) means labels are cheap and
    self-labeling should stay out of the way; a tight one means the
    stream looks easy, so confident predictions can be trusted.
    """
    return 1.0 - query_threshold + 1.0 / class_count

def error_scaled_threshold(error_rate: float, class_count: int) -> float:
    """Confidence bar that rises with the estimated error rate.

    Saturating map: tanh(2 * (error + 1/classes)). At zero error the bar
    sits below 1 so self-labeling can happen; as the error estimate
    grows the bar approaches 1 and shuts self-labeling off.
    """
    return math.tanh(2.0 * (error_rate + 1.0 / class_count))

def similarity_scaled_threshold(similarity: float, class_count: int) -> float:
    """Confidence bar that drops as distribution similarity improves.

    Linear in the similarity score: equals 1 at similarity 0.9 (worst
    retained value, self-labeling off) and 1/classes at similarity 1.
    """
    return 1.0 - 10.0 * (similarity - 0.9) * (1.0 - 1.0 / class_count)


class FixedConfidence:
    """Self-label whenever the top posterior clears a fixed bar."""

    def __init__(self, confidence: float = 0.95):
        if not 0.0 < confidence <= 1.0:
            raise ConfigError("confidence must lie in (0, 1]")
        self.confidence = float(confidence)

    def decide(self, posterior: ClassPosterior, feedback: Feedback) -> SelfLabelDecision:
        return SelfLabelDecision(posterior.top_prob >= self.confidence, self.confidence)


class RandomizedAdaptiveConfidence:
    """Adaptive confidence bar with multiplicative Gaussian jitter.

    Draws one factor per decision, compares the top posterior against
    the jittered bar, and adjusts the underlying bar according to the
    jittered outcome. ``noise=0`` gives the plain adaptive rule: every
    accepted self-label raises the bar by the step factor and every
    rejection lowers it, clamped to [1/classes, 1].
    """

    def __init__(self, step: float = 0.01, noise: float = 1.0, rng=None):
        if not 0.0 < step <= 1.0:
            raise ConfigError("confidence step must lie in (0, 1]")
        if noise < 0.0:
            raise ConfigError("randomization scale must be nonnegative")
        self.step = float(step)
        self.noise = float(noise)
        self.confidence = 1.0
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def decide(self, posterior: ClassPosterior, feedback: Feedback) -> SelfLabelDecision:
        eta = 1.0 + self.noise * self._rng.standard_normal()
        randomized = self.confidence * eta
        if posterior.top_prob >= randomized:
            train = True
            updated = self.confidence * (1.0 + self.step)
        else:
            train = False
            updated = self.confidence * (1.0 - self.step)
        floor = 1.0 / len(posterior.probs)
        if updated < floor:
            updated = floor
        elif updated > 1.0:
            updated = 1.0
        self.confidence = updated
        return SelfLabelDecision(train, randomized)


class InformedConfidence:
    """Confidence bar mapped from one published feedback signal.

    ``field`` names the :class:`Feedback` attribute to read and
    ``threshold_fn(signal, class_count)`` maps it to the bar. A signal the
    run loop does not publish (None) is a configuration error: the
    query threshold, for one, exists only under an adaptive query
    strategy.
    """

    def __init__(self, field: str, threshold_fn):
        self.field = field
        self.threshold_fn = threshold_fn

    def decide(self, posterior: ClassPosterior, feedback: Feedback) -> SelfLabelDecision:
        signal = getattr(feedback, self.field)
        if signal is None:
            raise ConfigError(
                f"self-labeling on {self.field!r} needs a run loop that"
                " publishes it; pair query-threshold self-labeling with the"
                " variable-uncertainty strategy"
            )
        bar = self.threshold_fn(signal, feedback.class_count)
        return SelfLabelDecision(posterior.top_prob >= bar, bar)

"""Self-labeling policies: when to trust a prediction as its own label.

Every policy is called as ``decide(posterior, run)``, where ``run`` is
the surrounding run loop (a :class:`~driftlab.hybrid.HybridRunner`).
Two families live here. Blind policies look only at the posterior (a
fixed or self-adjusting confidence bar, optionally jittered) and read
nothing from ``run``. Informed policies read one of the four signals the
run loop publishes - the active strategy's adaptive threshold
(``query_threshold``), DDM's error-rate estimate (``error_estimate``),
EDDM's distribution similarity (``similarity``) or the sliding-window
error rate (``windowed_error``) - and map it to a confidence bar through
the pure functions below. Informed policies keep no state of their own,
so the mapping functions double as the exact math contract.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import ClassPosterior, adaptive_step, draws


class SelfLabelDecision(NamedTuple):
    """Whether to train on the model's own prediction, and the bar used."""

    train: bool
    threshold: float


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
    """Self-label whenever the top posterior clears ``confidence`` (0.95)."""

    confidence = 0.95

    def decide(self, posterior: ClassPosterior, run) -> SelfLabelDecision:
        return SelfLabelDecision(posterior.top_prob >= self.confidence, self.confidence)


class RandomizedAdaptiveConfidence:
    """Adaptive confidence bar with multiplicative Gaussian jitter.

    Draws one factor per decision, compares the top posterior against
    the jittered bar, and adjusts the underlying bar according to the
    jittered outcome. ``noise=0`` gives the plain adaptive rule: every
    accepted self-label raises the bar by ``step`` (0.01) and every
    rejection lowers it, clamped to [1/classes, 1]
    (:func:`~driftlab.core.adaptive_step`). It owns its generator
    and draws in blocks (:func:`~driftlab.core.draws`), even at ``noise=0``.
    """

    step = 0.01

    def __init__(self, noise: float, *, rng):
        self.noise = noise
        self.confidence = 1.0
        self._normal = draws(rng.standard_normal).__next__

    def decide(self, posterior: ClassPosterior, run) -> SelfLabelDecision:
        randomized = self.confidence * (1.0 + self.noise * self._normal())
        train = posterior.top_prob >= randomized
        self.confidence = adaptive_step(self.confidence, train, self.step, len(posterior.probs))
        return SelfLabelDecision(train, randomized)


class InformedConfidence:
    """Confidence bar mapped from one signal the run loop publishes.

    ``field`` names the signal, read as ``getattr(run, field)``: one of
    ``query_threshold``, ``error_estimate``, ``similarity`` and
    ``windowed_error``. ``threshold_fn(signal, class_count)`` maps it to
    the bar, with the class count taken from the posterior. The signal
    must be published (not None): the run loop always publishes the
    other three, and ``query_threshold`` exists only under the adaptive
    ``randvar`` query strategy, which :class:`~driftlab.hybrid.HybridConfig`
    requires of ``invunc``.
    """

    def __init__(self, field: str, threshold_fn):
        self.field = field
        self.threshold_fn = threshold_fn

    def decide(self, posterior: ClassPosterior, run) -> SelfLabelDecision:
        bar = self.threshold_fn(getattr(run, self.field), len(posterior.probs))
        return SelfLabelDecision(posterior.top_prob >= bar, bar)

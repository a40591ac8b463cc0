"""Label-query strategies for stream active learning.

Each strategy looks at the current prediction's posterior and answers
whether the true label should be bought. The interesting one is
:class:`RandomizedVariableUncertainty`: an adaptive confidence threshold
that shrinks whenever a label is bought and grows when one is not, with
a multiplicative Gaussian jitter so that occasional confident instances
are still sampled. A query decision carries the exact threshold it
compared against so downstream records can replay the reasoning.
Each strategy owns its generator and draws in blocks (:func:`~driftlab.core.draws`);
sharing one generator between components changes the values each sees.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import ClassPosterior, ConfigError, draws


class QueryDecision(NamedTuple):
    """Outcome of one query check plus the value that drove it."""

    query: bool
    threshold: float


class RandomQuery:
    """Queries uniformly at random at exactly the budget rate."""

    adaptive_threshold = None

    def __init__(self, budget: float, rng=None):
        if not 0.0 <= budget <= 1.0:
            raise ConfigError("budget must lie in [0, 1]")
        self.budget = float(budget)
        rng = rng if rng is not None else np.random.default_rng(0)
        self._uniform = draws(rng.random).__next__

    def decide(self, posterior: ClassPosterior) -> QueryDecision:
        budget = self.budget
        return QueryDecision(self._uniform() < budget, budget)


class SamplingQuery:
    """Margin-driven selective sampling.

    Queries with probability delta / (delta + margin), so tied top
    classes are always bought and confident predictions rarely.
    """

    adaptive_threshold = None

    def __init__(self, delta: float = 1.0, rng=None):
        if delta <= 0.0:
            raise ConfigError("sampling delta must be positive")
        self.delta = float(delta)
        rng = rng if rng is not None else np.random.default_rng(0)
        self._uniform = draws(rng.random).__next__

    def decide(self, posterior: ClassPosterior) -> QueryDecision:
        delta = self.delta
        p = delta / (delta + (posterior.top_prob - posterior.second_prob))
        return QueryDecision(self._uniform() < p, p)


class RandomizedVariableUncertainty:
    """Adaptive uncertainty threshold with multiplicative Gaussian jitter.

    Starts fully permissive (threshold 1). Each decision draws one
    factor eta ~ Normal(1, noise) and queries iff the top posterior is
    at most threshold * eta; buying a label tightens the threshold by
    the step factor, passing loosens it, and the threshold is clamped to
    [1/classes, 1]. With ``noise=0`` this is the plain deterministic
    variable-uncertainty rule. A negative eta draw simply means "don't
    query" since no posterior is negative.
    """

    def __init__(self, step: float = 0.01, noise: float = 1.0, rng=None):
        if not 0.0 < step <= 1.0:
            raise ConfigError("threshold step must lie in (0, 1]")
        if noise < 0.0:
            raise ConfigError("randomization scale must be nonnegative")
        self.step = float(step)
        self.noise = float(noise)
        self.threshold = 1.0
        rng = rng if rng is not None else np.random.default_rng(0)
        self._normal = draws(rng.standard_normal).__next__

    @property
    def adaptive_threshold(self) -> float:
        return self.threshold

    def decide(self, posterior: ClassPosterior) -> QueryDecision:
        threshold = self.threshold
        randomized = threshold * (1.0 + self.noise * self._normal())
        if posterior.top_prob <= randomized:
            query = True
            threshold *= 1.0 - self.step
        else:
            query = False
            threshold *= 1.0 + self.step
        floor = 1.0 / len(posterior.probs)
        if threshold < floor:
            threshold = floor
        elif threshold > 1.0:
            threshold = 1.0
        self.threshold = threshold
        return QueryDecision(query, randomized)

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

from .core import ClassPosterior, adaptive_step, draws


class QueryDecision(NamedTuple):
    """Outcome of one query check plus the value that drove it."""

    query: bool
    threshold: float


class RandomQuery:
    """Queries uniformly at random at exactly the budget rate."""

    adaptive_threshold = None

    def __init__(self, budget: float, *, rng):
        self.budget = float(budget)
        self._uniform = draws(rng.random).__next__

    def decide(self, posterior: ClassPosterior) -> QueryDecision:
        budget = self.budget
        return QueryDecision(self._uniform() < budget, budget)


class SamplingQuery:
    """Margin-driven selective sampling.

    Queries with probability delta / (delta + margin), ``delta`` being
    1.0, so tied top classes are always bought and confident ones rarely.
    """

    adaptive_threshold = None
    delta = 1.0

    def __init__(self, *, rng):
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
    [1/classes, 1] (:func:`~driftlab.core.adaptive_step`, the walk of
    the ``uni`` and ``randuni`` self-labeling bars too); ``step`` is 0.01
    and ``noise`` 1.0. With ``noise = 0`` this is the plain deterministic
    variable-uncertainty rule. A negative eta draw simply means "don't
    query" since no posterior is negative.
    """

    step = 0.01
    noise = 1.0

    def __init__(self, *, rng):
        self.threshold = 1.0
        self._normal = draws(rng.standard_normal).__next__

    @property
    def adaptive_threshold(self) -> float:
        return self.threshold

    def decide(self, posterior: ClassPosterior) -> QueryDecision:
        randomized = self.threshold * (1.0 + self.noise * self._normal())
        query = posterior.top_prob <= randomized
        self.threshold = adaptive_step(self.threshold, not query, self.step, len(posterior.probs))
        return QueryDecision(query, randomized)

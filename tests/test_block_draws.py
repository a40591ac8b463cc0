"""Strategies draw their random numbers in blocks; each must decide
exactly as a hand loop that makes one scalar generator call per decision.

Every check runs over more than two blocks of 256 draws, so it crosses a
block boundary, on generators seeded the way ``build_runner`` seeds them.
"""

import numpy as np
import pytest

from driftlab.active import RandomizedVariableUncertainty, RandomQuery, SamplingQuery
from driftlab.core import ClassPosterior, draws
from driftlab.selflabel import RandomizedAdaptiveConfidence

DECISIONS = 700


def posteriors(seed=5):
    """Posteriors over two to four classes, ties and sure ones included."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(DECISIONS):
        classes = 2 + k % 3
        if k % 50 == 0:
            probs = [1.0] + [0.0] * (classes - 1)
        elif k % 37 == 0:
            probs = [1.0] * classes
        else:
            probs = rng.random(classes).tolist()
        out.append(ClassPosterior(probs))
    return out


def hexes(*values):
    return [float.hex(v) for v in values]


@pytest.mark.parametrize("method", ["random", "standard_normal"])
def test_draws_yield_the_scalar_sequence(method):
    block = draws(getattr(np.random.default_rng([3, 0]), method))
    scalar = getattr(np.random.default_rng([3, 0]), method)
    for _ in range(DECISIONS):
        value = next(block)
        assert type(value) is float
        assert float.hex(value) == float.hex(float(scalar()))


@pytest.mark.parametrize("budget", [0.0, 0.3, 1.0])
def test_random_query(budget):
    strategy = RandomQuery(budget, rng=np.random.default_rng([11, 0]))
    scalar = np.random.default_rng([11, 0])
    for post in posteriors():
        decision = strategy.decide(post)
        assert decision.query == (scalar.random() < budget)
        assert decision.threshold == budget


@pytest.mark.parametrize("delta", [0.1, 1.0])
def test_sampling_query(delta):
    strategy = SamplingQuery(rng=np.random.default_rng([12, 0]))
    strategy.delta = delta
    scalar = np.random.default_rng([12, 0])
    for post in posteriors():
        p = delta / (delta + (post.top_prob - post.second_prob))
        decision = strategy.decide(post)
        assert decision.query == (scalar.random() < p)
        assert hexes(decision.threshold) == hexes(p)


@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_randomized_variable_uncertainty(noise):
    strategy = RandomizedVariableUncertainty(rng=np.random.default_rng([13, 0]))
    strategy.step, strategy.noise = 0.02, noise
    scalar = np.random.default_rng([13, 0])
    threshold = 1.0
    for post in posteriors():
        randomized = threshold * (1.0 + noise * scalar.standard_normal())
        query = post.top_prob <= randomized
        threshold = threshold * (1.0 - 0.02) if query else threshold * (1.0 + 0.02)
        threshold = min(1.0, max(1.0 / len(post.probs), threshold))
        decision = strategy.decide(post)
        assert decision.query == query
        assert hexes(decision.threshold, strategy.threshold) == hexes(randomized, threshold)


@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_randomized_adaptive_confidence(noise):
    strategy = RandomizedAdaptiveConfidence(noise, rng=np.random.default_rng([14, 1]))
    strategy.step = 0.02
    scalar = np.random.default_rng([14, 1])
    bar = 1.0
    for post in posteriors():
        randomized = bar * (1.0 + noise * scalar.standard_normal())
        train = post.top_prob >= randomized
        bar = bar * (1.0 + 0.02) if train else bar * (1.0 - 0.02)
        bar = min(1.0, max(1.0 / len(post.probs), bar))
        decision = strategy.decide(post, None)  # a blind policy reads no run
        assert decision.train == train
        assert hexes(decision.threshold, strategy.confidence) == hexes(randomized, bar)

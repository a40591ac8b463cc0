"""Budget-gated online learning that mixes bought labels with its own.

The runner folds one rule over the stream: predict, score the
prediction for evaluation, then either buy the true label (when spend
is under budget and the query strategy asks) or fall through to the
self-labeling gate and maybe train on the prediction itself. Bought
labels are the only thing that feeds the drift detectors, the error
window, and the budget accounting; self-labeling is free by
construction. Label access is split in two: the evaluation score reads
the hidden label every step, the learning path sees it only when a
query fires.

The runner is the one owner of run-loop state: it keeps the counters
and publishes four read-only signals (``query_threshold``,
``error_estimate``, ``similarity``, ``windowed_error``). A self-label
policy is called as ``decide(posterior, runner)`` and reads what it
needs; step records read the same properties.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .core import ConfigError, Instance, LoadedStream, SchemaMismatch, StreamSchema
from .active import RandomizedVariableUncertainty, RandomQuery, SamplingQuery
from .drift import DdmDetector, EddmDetector
from .evaluation import PrequentialWindow
from .learners import AccuracyWeightedEnsemble, HoeffdingTree, NaiveBayes
from .selflabel import (
    FixedConfidence,
    InformedConfidence,
    RandomizedAdaptiveConfidence,
    error_scaled_threshold,
    inverted_uncertainty_threshold,
    similarity_scaled_threshold,
)

QUERIED = "queried"
SELF_LABELED = "self_labeled"
SKIPPED = "skipped"


# One name -> factory registry per component kind. Validation, CLI
# choices and grid defaults all read these; adding a component means
# adding one entry here. A learner's factory is its class.
LEARNERS = {
    "nb": NaiveBayes,
    "ht": HoeffdingTree,
    "awe": AccuracyWeightedEnsemble,
}
ACTIVE = {
    "random": lambda budget, rng: RandomQuery(budget, rng=rng),
    "sampling": lambda budget, rng: SamplingQuery(rng=rng),
    "randvar": lambda budget, rng: RandomizedVariableUncertainty(rng=rng),
}
SELF_LABEL = {
    "none": None,
    "fixed": lambda rng: FixedConfidence(),
    # zero jitter walks the plain adaptive bar exactly
    "uni": lambda rng: RandomizedAdaptiveConfidence(0.0, rng=rng),
    "randuni": lambda rng: RandomizedAdaptiveConfidence(1.0, rng=rng),
    "invunc": lambda rng: InformedConfidence(
        "query_threshold", inverted_uncertainty_threshold
    ),
    "cddm": lambda rng: InformedConfidence("error_estimate", error_scaled_threshold),
    "ceddm": lambda rng: InformedConfidence("similarity", similarity_scaled_threshold),
    "winerr": lambda rng: InformedConfidence("windowed_error", error_scaled_threshold),
}


@dataclass(frozen=True)
class HybridConfig:
    """One run's choices: learner, strategies, budget, seed, window."""

    learner: str
    active: str
    self_label: str = "none"
    budget: float = 0.1
    seed: int = 0
    window: int = 1000

    def __post_init__(self):
        for kind, name, registry in (
            ("learner", self.learner, LEARNERS),
            ("active strategy", self.active, ACTIVE),
            ("self-label strategy", self.self_label, SELF_LABEL),
        ):
            if name not in registry:
                raise ConfigError(
                    f"unknown {kind} {name!r}; choose from {', '.join(registry)}"
                )
        if not 0.0 <= self.budget <= 1.0:
            raise ConfigError("budget must lie in [0, 1]")
        for name, least in (("window", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
            object.__setattr__(self, name, value)  # a plain int, as JSON writes it
            if value < least:
                raise ConfigError(f"{name} must be at least {least}")
        if self.self_label == "invunc" and self.active != "randvar":
            raise ConfigError(
                "self_label 'invunc' needs the adaptive threshold that only"
                " active 'randvar' publishes"
            )

    def to_dict(self) -> dict:
        return asdict(self)


class StepRecord(NamedTuple):
    """Everything observable about one processed instance."""

    index: int
    action: str
    predicted: int
    true_label: int | None
    correct: bool
    top_prob: float
    query_threshold: float | None
    al_threshold: float | None
    sl_threshold: float | None
    error_estimate: float
    similarity: float
    windowed_error: float
    windowed_accuracy: float
    spend: float
    queried: int
    self_labeled: int
    skipped: int


@dataclass(frozen=True)
class RunSummary:
    stream: str
    instances: int
    accuracy: float
    final_spend: float
    queried: int
    self_labeled: int
    skipped: int
    mean_windowed_accuracy: float
    max_budget_overshoot: float

    def to_dict(self) -> dict:
        return asdict(self)


class HybridRunner:
    """Per-instance orchestration over pre-built components, and the one
    owner of run-loop state: the ``seen``, ``queried`` and
    ``self_labeled`` counters and the signals informed self-labeling reads.

    Build one straight from parts for white-box tests, or through
    :func:`build_runner` to resolve a :class:`HybridConfig`, which owns
    the setting checks.
    """

    def __init__(self, schema, learner, active, self_label, budget, window=HybridConfig.window):
        self.schema = schema
        self.learner = learner
        self.active = active
        self.self_label = self_label
        self.budget = float(budget)
        self.evaluation = PrequentialWindow(window)
        self.error_monitor = DdmDetector()
        self.distance_monitor = EddmDetector()
        self.error_window = PrequentialWindow(100)
        self.max_overshoot = 0.0
        self.correct_total = 0
        self.seen = 0
        self.queried = 0
        self.self_labeled = 0
        self._windowed_accuracy_sum = 0.0

    @property
    def skipped(self) -> int:
        return self.seen - self.queried - self.self_labeled

    @property
    def spend(self) -> float:
        """Bought labels as a share of all instances seen."""
        return self.queried / self.seen if self.seen else 0.0

    @property
    def query_threshold(self) -> float | None:
        """The active strategy's adaptive threshold; None when it has none."""
        return self.active.adaptive_threshold

    @property
    def error_estimate(self) -> float:
        """DDM's error-rate estimate over the bought labels."""
        return self.error_monitor.epsilon()

    @property
    def similarity(self) -> float:
        """EDDM's distribution-similarity score over the bought labels."""
        return self.distance_monitor.similarity()

    @property
    def windowed_error(self) -> float:
        """Error rate over the last 100 bought labels."""
        return self.error_window.error_rate()

    def process_instance(self, instance: Instance, want_record: bool = True):
        """Run one instance; returns a :class:`StepRecord` or, with
        ``want_record=False``, only the action constant (the record
        object is a measurable share of a sweep's cost)."""
        truth = instance.label
        features = instance.features
        learner = self.learner
        posterior = learner.predict(features)
        predicted = posterior.top_index
        correct = predicted == truth
        loss = 0 if correct else 1
        # evaluation-only read of the hidden label
        self.evaluation.update(loss)
        if correct:
            self.correct_total += 1
        self.seen = seen = self.seen + 1

        action = SKIPPED
        true_label = al_threshold = sl_threshold = None
        if self.queried / seen < self.budget:  # spend, with seen >= 1
            query, al_threshold = self.active.decide(posterior)
            if query:
                # the label is bought: it may now feed learning state
                true_label = truth
                self.queried = queried = self.queried + 1
                is_error = not correct
                self.error_monitor.update(is_error)
                self.distance_monitor.update(is_error)
                self.error_window.update(loss)
                learner.train(features, truth)
                action = QUERIED
                overshoot = queried - self.budget * seen
                if overshoot > self.max_overshoot:
                    self.max_overshoot = overshoot

        if action is SKIPPED and self.self_label is not None:
            train, sl_threshold = self.self_label.decide(posterior, self)
            if train:
                learner.train(features, predicted)
                self.self_labeled += 1
                action = SELF_LABELED

        windowed_accuracy = self.evaluation.accuracy()
        self._windowed_accuracy_sum += windowed_accuracy
        if not want_record:
            return action
        return StepRecord(
            index=seen,
            action=action,
            predicted=predicted,
            true_label=true_label,
            correct=correct,
            top_prob=posterior.top_prob,
            query_threshold=self.query_threshold,
            al_threshold=al_threshold,
            sl_threshold=sl_threshold,
            error_estimate=self.error_estimate,
            similarity=self.similarity,
            windowed_error=self.windowed_error,
            windowed_accuracy=windowed_accuracy,
            spend=self.spend,
            queried=self.queried,
            self_labeled=self.self_labeled,
            skipped=self.skipped,
        )

    def summary(self, stream_name: str) -> RunSummary:
        seen = self.seen
        return RunSummary(
            stream=stream_name,
            instances=seen,
            accuracy=self.correct_total / seen if seen else 0.0,
            final_spend=self.spend,
            queried=self.queried,
            self_labeled=self.self_labeled,
            skipped=self.skipped,
            mean_windowed_accuracy=(
                self._windowed_accuracy_sum / seen if seen else 0.0
            ),
            max_budget_overshoot=self.max_overshoot,
        )


def build_runner(schema: StreamSchema, config: HybridConfig) -> HybridRunner:
    learner = LEARNERS[config.learner](schema)
    active = ACTIVE[config.active](
        config.budget, np.random.default_rng([config.seed, 0])
    )
    factory = SELF_LABEL[config.self_label]
    self_label = None
    if factory is not None:
        self_label = factory(np.random.default_rng([config.seed, 1]))
    return HybridRunner(
        schema, learner, active, self_label, config.budget, config.window
    )


def step_records(stream: LoadedStream, runner: HybridRunner, stride: int):
    """Fold ``runner`` over a loaded stream, yielding every
    ``stride``-th :class:`StepRecord` as it is made (0 yields none, 1
    all). Nothing is kept, so a run's memory does not grow with its
    length; ``runner.summary`` holds the totals once this is spent.
    """
    if len(stream.instances) == 0:
        raise SchemaMismatch(f"stream {stream.name!r} has no instances")
    if stride < 0:
        raise ConfigError("record stride must be nonnegative")
    for position, instance in enumerate(stream.instances, start=1):
        if instance.label is None:
            raise ConfigError(
                f"stream {stream.name!r} instance {position} has no label;"
                " prequential runs need fully labeled streams"
            )
        want = bool(stride) and position % stride == 0
        record = runner.process_instance(instance, want_record=want)
        if want:
            yield record


def run_stream(stream: LoadedStream, config: HybridConfig, record_stride: int = 0):
    """Fold a fresh runner over a loaded stream; returns (records,
    summary), the records being :func:`step_records`' list."""
    runner = build_runner(stream.schema, config)
    records = list(step_records(stream, runner, record_stride))
    return records, runner.summary(stream.name)

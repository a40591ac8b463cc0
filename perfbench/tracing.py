"""Per-layer timing from outside the program.

Nothing under ``src/`` knows it is being measured. After a runner is
built, its component attributes are replaced on the instance by timing
wrappers; module functions and a few public methods are patched for the
length of one traced session and restored afterwards. A :class:`Tracer`
keeps, per span name, the call count, the inclusive time and the self
time (inclusive minus the time of spans opened inside it), plus plain
event counters. Everything stays in memory until the benchmark writes
the trace file at the end.
"""

from __future__ import annotations

import builtins
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from checks import posterior_error
from driftlab.drift import CHANGE


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.errors = []
        self._stack = []  # time spent in child spans, one slot per open span

    def wrap(self, name, fn, after=None):
        """Time every call of ``fn`` under ``name``.

        ``after(result, args, elapsed_ns)`` runs once the span has closed;
        its own cost is charged to no span, so it does not inflate the
        enclosing span's self time.
        """
        stack = self._stack
        calls, total, own = self.calls, self.total_ns, self.self_ns

        def timed(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                elapsed = end - start
                child = stack.pop()
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result, args, elapsed)
                if stack:
                    stack[-1] += perf_counter_ns() - end
            return result

        return timed

    def mean_us(self, name) -> float:
        calls = self.calls[name]
        return self.total_ns[name] / calls / 1e3 if calls else 0.0

    def to_dict(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_ns": self.total_ns[name],
                    "self_ns": self.self_ns[name],
                }
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "errors": self.errors,
        }


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    absent = object()
    saved = [(owner, attr, vars(owner).get(attr, absent)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if value is absent:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def outermost_scores(tracer, learner_classes):
    """Patches timing ``predict_probs`` of the learner classes, counting
    only the outermost call: an ensemble's members score inside it."""
    depth = [0]
    replacements = []
    for cls in learner_classes:
        original = cls.__dict__["predict_probs"]
        timed = tracer.wrap("learners.scores", original)

        def predict_probs(self, features, _plain=original, _timed=timed):
            if depth[0]:
                return _plain(self, features)
            depth[0] += 1
            try:
                return _timed(self, features)
            finally:
                depth[0] -= 1

        replacements.append((cls, "predict_probs", predict_probs))
    return replacements


def instrument_runner(tracer, runner):
    """Wrap a built runner's components, on the instance only."""
    counts = tracer.counts
    classes = runner.schema.class_count

    step = tracer.wrap("hybrid.step", runner.process_instance)
    record = tracer.wrap("hybrid.record", runner.process_instance)

    def process_instance(instance, want_record=True):
        return (record if want_record else step)(instance, want_record=want_record)

    runner.process_instance = process_instance

    learner = runner.learner

    def after_predict(posterior, args, elapsed):
        problem = posterior_error(posterior.probs, posterior.top_prob, classes)
        if problem is not None and len(tracer.errors) < 10:
            tracer.errors.append(f"posterior: {problem}")

    learner.predict = tracer.wrap("learners.predict", learner.predict, after_predict)

    members = getattr(learner, "members", None)
    if members is None:
        learner.train = tracer.wrap("learners.train", learner.train)
    else:
        # an accuracy-weighted ensemble: a train call that changes the
        # newest member closed a chunk
        last = [None]

        def before_train(features, label, _train=learner.train):
            last[0] = learner.members[-1][0] if learner.members else None
            return _train(features, label)

        def after_train(result, args, elapsed):
            newest = learner.members[-1][0] if learner.members else None
            if newest is not last[0]:
                counts["learners.chunks"] += 1
                counts["learners.chunk_ns"] += elapsed

        learner.train = tracer.wrap("learners.train", before_train, after_train)

    def after_decide(decision, args, elapsed):
        counts["active.queries"] += bool(decision.query)

    runner.active.decide = tracer.wrap("active.decide", runner.active.decide, after_decide)

    if runner.self_label is not None:

        def after_self_label(decision, args, elapsed):
            counts["selflabel.accepts"] += bool(decision.train)

        runner.self_label.decide = tracer.wrap(
            "selflabel.decide", runner.self_label.decide, after_self_label
        )

    def after_ddm(level, args, elapsed):
        counts["drift.alarms"] += level == CHANGE

    def after_eddm(level, args, elapsed):
        # on a correct outcome EDDM re-reports its stored level, so only
        # an error outcome can raise a fresh alarm
        counts["drift.alarms"] += bool(args[0]) and level == CHANGE

    for monitor, after in (
        (runner.error_monitor, after_ddm),
        (runner.distance_monitor, after_eddm),
        (runner.error_window, None),
    ):
        monitor.update = tracer.wrap("drift.update", monitor.update, after)

    for method in ("update", "accuracy"):
        setattr(
            runner.evaluation,
            method,
            tracer.wrap("evaluation.window", getattr(runner.evaluation, method)),
        )
    return runner


def learner_gauges(tracer, runner):
    """Model-state counters read once a run has ended."""
    learner = runner.learner
    tracer.counts["learners.ht_splits"] += getattr(learner, "n_splits", 0)
    members = getattr(learner, "members", None)
    if members is not None:
        tracer.counts["learners.awe_runs"] += 1
        tracer.counts["learners.awe_members"] += len(members)


class TimedFile:
    """Write-mode file whose lifetime, from open to close, is one span."""

    def __init__(self, fh, tracer, name):
        self._fh = fh
        self._tracer = tracer
        self._name = name
        self._start = perf_counter_ns()

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if not self._fh.closed:
            self._fh.close()
            elapsed = perf_counter_ns() - self._start
            self._tracer.calls[self._name] += 1
            self._tracer.total_ns[self._name] += elapsed
            self._tracer.self_ns[self._name] += elapsed


def timed_open(tracer, name):
    """An ``open`` that times the files opened for writing."""

    def open_(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if "w" in mode or "a" in mode:
            return TimedFile(fh, tracer, name)
        return fh

    return open_


def _per(total, n):
    return total / n if n else 0.0


def metrics(tracer) -> dict:
    """Per-layer figures of the runner-level spans of one traced session."""
    t, c = tracer, tracer.counts
    steps = t.calls["hybrid.step"] + t.calls["hybrid.record"]
    predicts = t.calls["learners.predict"]
    queries = t.calls["active.decide"]
    self_labels = t.calls["selflabel.decide"]
    return {
        "hybrid.step_us": t.mean_us("hybrid.step"),
        "hybrid.self_us": _per(t.self_ns["hybrid.step"], t.calls["hybrid.step"]) / 1e3,
        "hybrid.record_us": t.mean_us("hybrid.record"),
        "core.posterior_us": _per(t.total_ns["learners.predict"] - t.total_ns["learners.scores"], predicts) / 1e3,
        "learners.predict_us": t.mean_us("learners.predict"),
        "learners.predict_calls": predicts,
        "learners.scores_us": t.mean_us("learners.scores"),
        "learners.train_us": t.mean_us("learners.train"),
        "learners.train_calls": t.calls["learners.train"],
        "learners.ht_splits": c["learners.ht_splits"],
        "learners.chunk_ms": _per(c["learners.chunk_ns"], c["learners.chunks"]) / 1e6,
        "learners.chunks": c["learners.chunks"],
        "learners.awe_members": _per(c["learners.awe_members"], c["learners.awe_runs"]),
        "active.decide_us": t.mean_us("active.decide"),
        "active.decide_calls": queries,
        "active.query_ratio": _per(c["active.queries"], queries),
        "selflabel.decide_us": t.mean_us("selflabel.decide"),
        "selflabel.decide_calls": self_labels,
        "selflabel.accept_ratio": _per(c["selflabel.accepts"], self_labels),
        "drift.update_us": t.mean_us("drift.update"),
        "drift.update_calls": t.calls["drift.update"],
        "drift.alarms": c["drift.alarms"],
        "evaluation.window_us": _per(t.total_ns["evaluation.window"], steps) / 1e3,
    }

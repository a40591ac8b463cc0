import numpy as np
import pytest

from driftlab.active import RandomizedVariableUncertainty
from driftlab.core import (
    Attribute,
    ClassPosterior,
    ConfigError,
    Instance,
    LoadedStream,
    NUMERIC,
    SchemaMismatch,
    StreamSchema,
)
from driftlab.hybrid import (
    ACTIVE,
    LEARNERS,
    SELF_LABEL,
    HybridConfig,
    HybridRunner,
    StepRecord,
    build_runner,
    run_stream,
    step_records,
)
from driftlab.selflabel import SelfLabelDecision
from driftlab.streams import parse_stream_spec


SCHEMA = StreamSchema(
    (Attribute("x0", NUMERIC), Attribute("x1", NUMERIC)),
    ("a", "b"),
)


def toy_stream(labels, name="toy"):
    rng = np.random.default_rng(0)
    instances = [
        Instance((float(rng.normal()), float(rng.normal())), int(label))
        for label in labels
    ]
    return LoadedStream(name=name, schema=SCHEMA, instances=instances, metadata={})


def gen_stream(n=2000, seed=0, **kw):
    extra = ",".join(f"{k}={v}" for k, v in kw.items())
    text = f"gen:family=gaussian-clusters,kind=sudden,n={n}"
    if extra:
        text += "," + extra
    return parse_stream_spec(text).load(seed_fallback=seed)


class OracleLearner:
    """Always predicts class 0 with certainty; training is a no-op."""

    def __init__(self):
        self.trained = []

    def predict(self, features):
        return ClassPosterior([1.0, 0.0])

    def train(self, features, label):
        self.trained.append((features, label))


class TraceLearner:
    """Records the order of predict and train calls."""

    def __init__(self):
        self.calls = []

    def predict(self, features):
        self.calls.append(("predict", features))
        return ClassPosterior([0.5, 0.5])

    def train(self, features, label):
        self.calls.append(("train", features, label))


class NeverQuery:
    adaptive_threshold = None

    def decide(self, posterior):
        from driftlab.active import QueryDecision

        return QueryDecision(False, 0.0)


class AlwaysQuery:
    adaptive_threshold = None

    def decide(self, posterior):
        from driftlab.active import QueryDecision

        return QueryDecision(True, 1.0)


class RecordingSelfLabel:
    """Never trains, but keeps what it read from the run at every call."""

    def __init__(self):
        self.snapshots = []
        self.runs = []

    def decide(self, posterior, run):
        self.runs.append(run)
        self.snapshots.append(
            (run.query_threshold, run.error_estimate, len(posterior.probs))
        )
        return SelfLabelDecision(False, 1.0)


class CountingSignals:
    """Stand-in for a detector or window that counts calls to its
    signal readers and passes everything through."""

    READERS = ("epsilon", "similarity", "error_rate")

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.READERS:
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted


class TestBudgetState:
    """The runner's own budget counters and strict spend gate."""

    def test_fresh_spend_is_zero(self):
        runner = HybridRunner(SCHEMA, OracleLearner(), NeverQuery(), None, budget=0.1)
        assert runner.spend == 0.0
        assert (runner.seen, runner.queried, runner.self_labeled, runner.skipped) == (0, 0, 0, 0)

    def test_strict_gate(self):
        # step 1: 0/1 < 0.5 opens; step 2: 1/2 < 0.5 is false; step 3: 1/3 opens
        runner = HybridRunner(SCHEMA, OracleLearner(), AlwaysQuery(), None, budget=0.5)
        actions = [runner.process_instance(i).action for i in toy_stream([0, 0, 0]).instances]
        assert actions == ["queried", "skipped", "queried"]
        assert (runner.seen, runner.queried, runner.skipped) == (3, 2, 1)
        assert runner.spend == 2 / 3


class TestHybridConfig:
    def test_registry_contents(self):
        assert tuple(LEARNERS) == ("nb", "ht", "awe")
        assert tuple(ACTIVE) == ("random", "sampling", "randvar")
        assert tuple(SELF_LABEL) == (
            "none",
            "fixed",
            "uni",
            "randuni",
            "invunc",
            "cddm",
            "ceddm",
            "winerr",
        )

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            HybridConfig(learner="svm", active="randvar")
        with pytest.raises(ConfigError):
            HybridConfig(learner="nb", active="entropy")
        with pytest.raises(ConfigError):
            HybridConfig(learner="nb", active="randvar", self_label="cluster")

    def test_invunc_needs_adaptive_active(self):
        for active in ("random", "sampling"):
            with pytest.raises(ConfigError, match="invunc"):
                HybridConfig(learner="nb", active=active, self_label="invunc")
        HybridConfig(learner="nb", active="randvar", self_label="invunc")

    def test_budget_and_window_validation(self):
        for budget in (-0.1, -0.01, 1.01, 1.5):
            with pytest.raises(ConfigError, match=r"budget must lie in \[0, 1\]"):
                HybridConfig(learner="nb", active="randvar", budget=budget)
        with pytest.raises(ConfigError):
            HybridConfig(learner="nb", active="randvar", window=0)

    @pytest.mark.parametrize(
        "setting, value",
        [("window", 1.7), ("window", 2.0), ("window", "10"), ("seed", 1.5), ("seed", None)],
    )
    def test_window_and_seed_must_be_integers(self, setting, value):
        # a fractional window used to run truncated while to_dict kept the
        # fraction, and a fractional seed failed only inside numpy
        with pytest.raises(ConfigError, match=f"^{setting} must be an integer, got {value!r}$"):
            HybridConfig(learner="nb", active="random", **{setting: value})

    def test_integer_likes_are_stored_as_int(self):
        config = HybridConfig(learner="nb", active="random", window=np.int64(50), seed=np.uint8(3))
        assert type(config.window) is int and type(config.seed) is int
        assert config == HybridConfig(learner="nb", active="random", window=50, seed=3)
        assert build_runner(SCHEMA, config).evaluation.window == 50

    def test_to_dict_round_trip(self):
        config = HybridConfig(
            learner="ht", active="sampling", self_label="uni", budget=0.2, seed=7
        )
        assert HybridConfig(**config.to_dict()) == config

    def test_factories_cover_registries(self):
        for make in LEARNERS.values():
            make(SCHEMA)
        rng = np.random.default_rng(0)
        for make in ACTIVE.values():
            make(0.1, rng)
        assert SELF_LABEL["none"] is None
        for name, make in SELF_LABEL.items():
            if name != "none":
                assert make(rng) is not None
        with pytest.raises(ConfigError, match="choose from nb, ht, awe"):
            HybridConfig(learner="other", active="randvar")


class TestProcessOrdering:
    def test_prediction_before_any_training(self):
        learner = TraceLearner()
        runner = HybridRunner(SCHEMA, learner, AlwaysQuery(), None, budget=1.0)
        stream = toy_stream([0, 1, 0])
        for instance in stream.instances:
            runner.process_instance(instance)
        kinds = [c[0] for c in learner.calls]
        assert kinds == ["predict", "train"] * 3
        # trained on the true label it bought
        assert learner.calls[1][2] == 0

    def test_evaluation_sees_every_instance(self):
        # constant class-0 predictor on a known label pattern: windowed
        # accuracy must reflect all instances, queried or not
        runner = HybridRunner(SCHEMA, OracleLearner(), NeverQuery(), None, budget=0.0)
        labels = [0, 0, 1, 0]
        for instance in toy_stream(labels).instances:
            record = runner.process_instance(instance)
        assert record.windowed_accuracy == 0.75
        assert runner.summary("toy").accuracy == 0.75

    def test_detectors_fed_only_on_queries(self):
        class CountingDetector:
            def __init__(self, inner):
                self.inner = inner
                self.updates = 0

            def update(self, is_error):
                self.updates += 1
                return self.inner.update(is_error)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        stream = gen_stream(n=400)
        runner = build_runner(
            SCHEMA, HybridConfig(learner="nb", active="random", budget=0.3, seed=2)
        )
        runner.distance_monitor = CountingDetector(runner.distance_monitor)
        for instance in stream.instances:
            runner.process_instance(instance)
        assert runner.queried > 0
        assert runner.error_monitor.n == runner.queried
        assert runner.distance_monitor.updates == runner.queried

    def test_detectors_untouched_with_self_labeling(self):
        stream = gen_stream(n=400)
        config = HybridConfig(
            learner="nb", active="random", self_label="fixed", budget=0.1, seed=3
        )
        runner = build_runner(stream.schema, config)
        for instance in stream.instances:
            runner.process_instance(instance)
        assert runner.self_labeled > 0
        assert runner.error_monitor.n == runner.queried

    def test_labeled_counter_only_moves_with_queries(self):
        stream = gen_stream(n=500)
        config = HybridConfig(
            learner="nb", active="randvar", self_label="cddm", budget=0.2, seed=0
        )
        runner = build_runner(stream.schema, config)
        before = 0
        for instance in stream.instances:
            record = runner.process_instance(instance)
            assert runner.queried - before == (record.action == "queried")
            assert runner.queried == record.queried
            before = runner.queried

    def test_feedback_snapshot_is_post_query_state(self):
        # the self-label gate must see the query threshold as updated by
        # this step's query decision, not the previous step's value
        probe = RecordingSelfLabel()
        active = RandomizedVariableUncertainty(rng=np.random.default_rng(0))
        active.noise = 0.0
        runner = HybridRunner(SCHEMA, OracleLearner(), active, probe, budget=1.0)
        stream = toy_stream([1, 1, 1, 1, 1])
        for instance in stream.instances:
            record = runner.process_instance(instance)
            if record.action == "skipped":
                assert probe.snapshots[-1][0] == record.query_threshold

    def test_feedback_carries_class_count(self):
        # a policy is handed the runner itself; the class count rides on
        # the posterior
        probe = RecordingSelfLabel()
        runner = HybridRunner(SCHEMA, OracleLearner(), NeverQuery(), probe, budget=0.0)
        runner.process_instance(toy_stream([0]).instances[0])
        assert probe.runs == [runner]
        assert probe.snapshots[0][2] == SCHEMA.class_count

    # the detector and window readers each policy may call
    READS = {
        "fixed": set(),
        "uni": set(),
        "cddm": {"epsilon"},
        "ceddm": {"similarity"},
        "winerr": {"error_rate"},
    }

    @pytest.mark.parametrize("self_label", READS)
    def test_unrecorded_steps_read_only_the_policys_signal(self, self_label):
        expected = self.READS[self_label]
        stream = gen_stream(n=400)
        config = HybridConfig(
            learner="nb", active="random", self_label=self_label, budget=0.1, seed=1
        )
        runner = build_runner(stream.schema, config)
        calls = dict.fromkeys(CountingSignals.READERS, 0)
        runner.error_monitor = CountingSignals(runner.error_monitor, calls)
        runner.distance_monitor = CountingSignals(runner.distance_monitor, calls)
        runner.error_window = CountingSignals(runner.error_window, calls)
        for instance in stream.instances:
            runner.process_instance(instance, want_record=False)
        assert {name for name, n in calls.items() if n} == expected
        for name in expected:
            # one read per self-label decision, i.e. per unqueried step
            assert calls[name] == runner.seen - runner.queried > 0

    @pytest.mark.parametrize("self_label", ["none", "invunc", "cddm", "ceddm", "winerr"])
    def test_record_signals_are_the_runner_properties(self, self_label):
        stream = gen_stream(n=300)
        config = HybridConfig(
            learner="nb", active="randvar", self_label=self_label, budget=0.2, seed=4
        )
        runner = build_runner(stream.schema, config)
        for instance in stream.instances:
            record = runner.process_instance(instance)
            for name in (
                "query_threshold",
                "error_estimate",
                "similarity",
                "windowed_error",
                "spend",
                "queried",
                "self_labeled",
                "skipped",
            ):
                assert getattr(record, name) == getattr(runner, name), name
        assert runner.error_estimate > 0.0

    def test_self_label_trains_on_prediction(self):
        class AcceptAll:
            def decide(self, posterior, run):
                return SelfLabelDecision(True, 0.0)

        learner = OracleLearner()
        runner = HybridRunner(SCHEMA, learner, NeverQuery(), AcceptAll(), budget=0.0)
        stream = toy_stream([1, 1])  # oracle predicts 0: wrong but confident
        for instance in stream.instances:
            record = runner.process_instance(instance)
            assert record.action == "self_labeled"
            assert record.true_label is None
        assert [label for _, label in learner.trained] == [0, 0]

    def test_query_strategy_not_consulted_when_budget_closed(self):
        class ExplodingQuery:
            adaptive_threshold = None

            def decide(self, posterior):
                raise AssertionError("query strategy consulted with budget closed")

        runner = HybridRunner(SCHEMA, OracleLearner(), ExplodingQuery(), None, budget=0.0)
        record = runner.process_instance(toy_stream([0]).instances[0])
        assert record.action == "skipped"
        assert record.al_threshold is None


class TestBudgetSafety:
    def test_zero_budget_buys_nothing(self):
        stream = gen_stream(n=1500)
        for sl in ("none", "fixed"):
            config = HybridConfig(
                learner="nb", active="randvar", self_label=sl, budget=0.0, seed=1
            )
            _, summary = run_stream(stream, config)
            assert summary.queried == 0
            assert summary.final_spend == 0.0

    def test_full_budget_first_instance_queried_without_jitter(self):
        active = RandomizedVariableUncertainty(rng=np.random.default_rng(0))
        active.noise = 0.0
        runner = HybridRunner(SCHEMA, OracleLearner(), active, None, budget=1.0)
        record = runner.process_instance(toy_stream([0]).instances[0])
        assert record.action == "queried"

    def test_overshoot_bounded_across_budgets_and_seeds(self):
        stream = gen_stream(n=2000)
        for budget in (0.01, 0.1, 0.37, 1.0):
            for seed in (0, 1):
                config = HybridConfig(
                    learner="nb",
                    active="randvar",
                    self_label="winerr",
                    budget=budget,
                    seed=seed,
                )
                _, summary = run_stream(stream, config)
                assert summary.max_budget_overshoot <= 1.0
                assert summary.final_spend <= budget + 1 / summary.instances

    def test_prefix_safety_via_records(self):
        stream = gen_stream(n=1000)
        config = HybridConfig(learner="nb", active="random", budget=0.05, seed=4)
        records, _ = run_stream(stream, config, record_stride=1)
        for record in records:
            assert record.queried <= 0.05 * record.index + 1


class TestRunStream:
    def test_empty_stream_rejected(self):
        with pytest.raises(SchemaMismatch, match="stream 'e' has no instances"):
            LoadedStream(name="e", schema=SCHEMA, instances=[], metadata={})

    def test_unlabeled_instance_rejected(self):
        with pytest.raises(SchemaMismatch, match="label"):
            LoadedStream(
                name="u",
                schema=SCHEMA,
                instances=[Instance((0.0, 0.0), None)],
                metadata={},
            )

    def test_negative_stride_rejected(self):
        stream = toy_stream([0, 1])
        with pytest.raises(ConfigError):
            run_stream(
                stream, HybridConfig(learner="nb", active="randvar"), record_stride=-1
            )

    def test_stride_selects_multiples(self):
        stream = gen_stream(n=1000)
        config = HybridConfig(learner="nb", active="randvar", budget=0.1, seed=0)
        none_records, _ = run_stream(stream, config, record_stride=0)
        assert none_records == []
        sparse, _ = run_stream(stream, config, record_stride=250)
        assert [r.index for r in sparse] == [250, 500, 750, 1000]
        full, _ = run_stream(stream, config, record_stride=1)
        assert len(full) == 1000

    def test_records_come_as_the_run_makes_them(self):
        # step_records keeps nothing: each record is yielded as soon as
        # its instance is processed, and the summary is run_stream's
        stream = gen_stream(n=1000)
        config = HybridConfig(learner="nb", active="randvar", budget=0.1, seed=0)
        runner = build_runner(stream.schema, config)
        steps = step_records(stream, runner, 250)
        assert (next(steps).index, runner.seen) == (250, 250)
        assert [r.index for r in steps] == [500, 750, 1000]
        assert runner.summary(stream.name) == run_stream(stream, config)[1]

    def test_oracle_learner_scores_one(self):
        stream = toy_stream([0] * 50)
        runner = HybridRunner(SCHEMA, OracleLearner(), NeverQuery(), None, budget=0.0)
        for instance in stream.instances:
            runner.process_instance(instance)
        summary = runner.summary("toy")
        assert summary.accuracy == 1.0
        assert summary.mean_windowed_accuracy == 1.0

    def test_deterministic_repeats(self):
        stream = gen_stream(n=800)
        config = HybridConfig(
            learner="ht", active="randvar", self_label="randuni", budget=0.15, seed=9
        )
        first_records, first_summary = run_stream(stream, config, record_stride=1)
        second_records, second_summary = run_stream(stream, config, record_stride=1)
        assert first_summary == second_summary
        assert first_records == second_records

    def test_none_self_label_matches_inert_stub(self):
        # a hybrid run whose self-labeler never fires must walk the same
        # path as pure active learning: same actions, thresholds, spend
        stream = gen_stream(n=600)
        config = HybridConfig(learner="nb", active="randvar", budget=0.1, seed=5)
        pure_records, pure_summary = run_stream(stream, config, record_stride=1)

        runner = build_runner(stream.schema, config)
        runner.self_label = RecordingSelfLabel()
        stub_records = [runner.process_instance(i) for i in stream.instances]
        stub_summary = runner.summary(stream.name)

        assert stub_summary.accuracy == pure_summary.accuracy
        assert stub_summary.queried == pure_summary.queried
        for mine, pure in zip(stub_records, pure_records):
            assert mine._replace(sl_threshold=None) == pure._replace(sl_threshold=None)

    def test_summary_counts_add_up(self):
        stream = gen_stream(n=1200)
        config = HybridConfig(
            learner="awe", active="sampling", self_label="ceddm", budget=0.3, seed=2
        )
        _, summary = run_stream(stream, config)
        total = summary.queried + summary.self_labeled + summary.skipped
        assert total == summary.instances == 1200
        assert summary.to_dict()["queried"] == summary.queried

    def test_invunc_runs_under_randvar(self):
        stream = gen_stream(n=400)
        config = HybridConfig(
            learner="nb", active="randvar", self_label="invunc", budget=0.1, seed=0
        )
        _, summary = run_stream(stream, config)
        assert summary.instances == 400


def test_step_record_fields_round_trip():
    values = {name: i for i, name in enumerate(StepRecord._fields)}
    record = StepRecord(**values)
    assert tuple(record) == tuple(range(len(StepRecord._fields)))
    assert "index=0" in repr(record)

"""Full-scale acceptance gate for the toolkit.

Every test here checks one end-to-end contract at realistic scale:
budget safety over the complete strategy grid, exact math against
high-precision references, detector response benchmarks, the hybrid
gain that motivates pairing self-labeling with active queries, and
byte-level reproducibility. The module is deliberately slow (the grid
sweep alone is several minutes); run it when the fast unit suites are
already green.
"""

import os
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from driftlab.active import RandomizedVariableUncertainty
from driftlab.cli import main as cli_main
from driftlab.core import ClassPosterior, ConfigError
from driftlab.drift import CHANGE, STABLE, DdmDetector, EddmDetector
from driftlab.evaluation import PrequentialWindow
from driftlab.experiments import GridSpec, run_grid
from driftlab.generators import DriftProfile, gen_drift_stream
from driftlab.hybrid import (
    ACTIVE,
    LEARNERS,
    QUERIED,
    SELF_LABEL,
    HybridConfig,
    build_runner,
    run_stream,
)
from driftlab.selflabel import (
    RandomizedAdaptiveConfidence,
    error_scaled_threshold,
    inverted_uncertainty_threshold,
    similarity_scaled_threshold,
)
from driftlab.streams import parse_stream_spec

SWEEP_STREAM = (
    "gen:family=gaussian-clusters,kind=sudden,n=20000,changes=10000,"
    "seed=42,name=sweep-stream"
)
SWEEP_BUDGETS = (0.01, 0.05, 0.10, 0.20, 0.50)
SWEEP_SEEDS = tuple(range(5))

CALIBRATION_STREAM = (
    "gen:family=gaussian-clusters,kind=sudden,n=20000,changes=10000,"
    "classes=4,radius=3.0,spread=0.7,rotation=0.5,name=calibration"
)
CALIBRATION_STRATEGIES = ("fixed", "winerr", "cddm", "ceddm")
CALIBRATION_SEEDS = tuple(range(10))


def _run_monitored(runner, instances, bound_violations, key):
    """Drive one run while watching the adaptive thresholds every step."""
    active = runner.active
    watch_theta = isinstance(active, RandomizedVariableUncertainty)
    gamma_source = runner.self_label
    if not isinstance(gamma_source, RandomizedAdaptiveConfidence):
        gamma_source = None
    floor = 1.0 / runner.schema.class_count
    process = runner.process_instance
    if watch_theta or gamma_source is not None:
        for instance in instances:
            process(instance, want_record=False)
            if watch_theta:
                theta = active.threshold
                if not floor <= theta <= 1.0:
                    bound_violations.append((key, "query threshold", theta))
            if gamma_source is not None:
                gamma = gamma_source.confidence
                if not floor <= gamma <= 1.0:
                    bound_violations.append((key, "confidence bar", gamma))
    else:
        for instance in instances:
            process(instance, want_record=False)


@pytest.fixture(scope="module")
def sweep():
    """Every learner x query strategy x self-label option x budget x seed.

    Runs the full grid once on a 20k-instance drifting stream, plus a
    zero-budget column, collecting per-run summaries and any threshold
    bound violations observed along the way.
    """
    stream = parse_stream_spec(SWEEP_STREAM).load()
    instances = stream.instances
    runs = []
    bound_violations = []
    invalid = 0

    def one_run(learner, al, sl, budget, seed):
        nonlocal invalid
        try:
            config = HybridConfig(
                learner=learner, active=al, self_label=sl, budget=budget, seed=seed
            )
        except ConfigError:
            invalid += 1
            return
        runner = build_runner(stream.schema, config)
        key = (learner, al, sl, budget, seed)
        _run_monitored(runner, instances, bound_violations, key)
        summary = runner.summary(stream.name)
        runs.append(
            {
                "key": key,
                "budget": budget,
                "labeled": runner.queried,
                "queried": summary.queried,
                "seen": summary.instances,
                "overshoot": summary.max_budget_overshoot,
            }
        )

    started = time.perf_counter()
    for learner in LEARNERS:
        for al in ACTIVE:
            for sl in SELF_LABEL:
                for budget in SWEEP_BUDGETS:
                    for seed in SWEEP_SEEDS:
                        one_run(learner, al, sl, budget, seed)
    elapsed = time.perf_counter() - started

    zero_budget_runs = len(runs)
    for learner in LEARNERS:
        for al in ACTIVE:
            for sl in SELF_LABEL:
                for seed in SWEEP_SEEDS:
                    one_run(learner, al, sl, 0.0, seed)
    zero_budget_runs = len(runs) - zero_budget_runs

    return {
        "runs": runs,
        "bound_violations": bound_violations,
        "invalid": invalid,
        "elapsed": elapsed,
        "zero_budget_runs": zero_budget_runs,
    }


@pytest.fixture(scope="module")
def calibration():
    """Hybrid-vs-baseline accuracy gains on the calibration stream."""
    spec = parse_stream_spec(CALIBRATION_STREAM)
    results = {}
    for budget in (0.01, 0.05):
        base = []
        gains = {sl: [] for sl in CALIBRATION_STRATEGIES}
        for seed in CALIBRATION_SEEDS:
            stream = spec.load(seed_fallback=seed)
            config = HybridConfig(
                learner="awe", active="randvar", budget=budget, seed=seed
            )
            _, baseline = run_stream(stream, config)
            base.append(baseline.accuracy)
            for sl in CALIBRATION_STRATEGIES:
                config = HybridConfig(
                    learner="awe",
                    active="randvar",
                    self_label=sl,
                    budget=budget,
                    seed=seed,
                )
                _, hybrid = run_stream(stream, config)
                gains[sl].append(hybrid.accuracy - baseline.accuracy)
        n = len(CALIBRATION_SEEDS)
        results[budget] = {
            "base": sum(base) / n,
            "gains": {sl: sum(g) / n for sl, g in gains.items()},
        }
    return results


def test_01_budget_prefix_safety_across_sweep(sweep):
    # 3 learners x 3 query strategies x 8 self-label options x 5 budgets
    # x 5 seeds, minus the rejected invunc pairings (6 per budget-seed
    # pair: five timed budgets plus the zero-budget column)
    assert sweep["invalid"] == 150 + 30
    timed_runs = [r for r in sweep["runs"] if r["budget"] > 0.0]
    assert len(timed_runs) == 1650
    worst = max(r["overshoot"] for r in timed_runs)
    assert worst <= 1.0, f"budget overshoot {worst} exceeds one label"
    assert sweep["elapsed"] < 600.0, f"sweep took {sweep['elapsed']:.0f}s"


def test_02_self_labeling_never_spends_budget(sweep):
    for run in sweep["runs"]:
        assert run["labeled"] == run["queried"], run["key"]
    zero = [r for r in sweep["runs"] if r["budget"] == 0.0]
    assert len(zero) == sweep["zero_budget_runs"] == 330
    for run in zero:
        assert run["labeled"] == 0, run["key"]

    # step-level trace on a shorter stream: the label counter moves
    # exactly when the action taken was a query, never otherwise
    stream = parse_stream_spec(
        "gen:family=gaussian-clusters,kind=sudden,n=2000,changes=1000,"
        "seed=3,name=trace"
    ).load()
    for learner in LEARNERS:
        for al in ACTIVE:
            for sl in SELF_LABEL:
                if sl == "invunc" and al != "randvar":
                    continue
                for budget in (0.0, 0.05, 0.5):
                    config = HybridConfig(
                        learner=learner, active=al, self_label=sl,
                        budget=budget, seed=0,
                    )
                    runner = build_runner(stream.schema, config)
                    labeled_before = 0
                    for instance in stream.instances:
                        record = runner.process_instance(instance)
                        moved = runner.queried - labeled_before
                        assert moved == (1 if record.action == QUERIED else 0)
                        labeled_before = runner.queried


def test_03_threshold_and_detector_formulas_match_high_precision():
    mp.mp.dps = 60
    rng = np.random.default_rng(17)
    one = mp.mpf(1)

    for _ in range(1000):
        t = float(rng.uniform(0.0, 1.0))
        c = int(rng.integers(2, 13))
        expected = one - mp.mpf(t) + one / c
        assert abs(inverted_uncertainty_threshold(t, c) - float(expected)) <= 1e-12

    for _ in range(1000):
        e = float(rng.uniform(0.0, 1.5))
        c = int(rng.integers(2, 13))
        expected = mp.tanh(2 * (mp.mpf(e) + one / c))
        assert abs(error_scaled_threshold(e, c) - float(expected)) <= 1e-12

    for _ in range(1000):
        z = float(rng.uniform(0.9, 1.0))
        c = int(rng.integers(2, 13))
        expected = one - 10 * (mp.mpf(z) - mp.mpf("0.9")) * (one - one / c)
        assert abs(similarity_scaled_threshold(z, c) - float(expected)) <= 1e-12

    # running error detector: epsilon and the discrete level against an
    # exact-arithmetic replica of the same rules
    checks = 0
    for trial in range(25):
        p_err = float(rng.uniform(0.05, 0.45))
        detector = DdmDetector()
        n = 0
        errors = 0
        p_min = mp.inf
        s_min = mp.inf
        for step in range(400):
            is_error = bool(rng.random() < p_err)
            level = detector.update(is_error)
            n += 1
            if is_error:
                errors += 1
            p = mp.mpf(errors) / n
            s = mp.sqrt(p * (1 - p) / n)
            expected_level = STABLE
            if n >= detector.warmup and errors >= detector.min_errors:
                ps = p + s
                if ps < p_min + s_min:
                    p_min = p
                    s_min = s
                if ps > p_min + 3 * s_min:
                    expected_level = CHANGE
                elif ps > p_min + 2 * s_min:
                    expected_level = "warning"
            assert level == expected_level, (trial, step)
            if detector.n:
                assert abs(detector.epsilon() - float(p + s)) <= 1e-12
                checks += 1
            if expected_level == CHANGE:
                n = 0
                errors = 0
                p_min = mp.inf
                s_min = mp.inf
    assert checks >= 1000

    # distance-between-errors detector: the similarity ratio against an
    # exact-arithmetic replica of the distance moments
    checks = 0
    for trial in range(30):
        p_err = float(rng.uniform(0.2, 0.4))
        detector = EddmDetector()
        count = 0
        mean = mp.mpf(0)
        m2 = mp.mpf(0)
        max_sum = mp.mpf(0)
        since = 0
        raw = mp.mpf(1)
        for step in range(800):
            is_error = bool(rng.random() < p_err)
            level = detector.update(is_error)
            since += 1
            if not is_error:
                continue
            distance = since
            since = 0
            count += 1
            delta = distance - mean
            mean += delta / count
            m2 += delta * (distance - mean)
            dev = mp.sqrt(m2 / count)
            current = mean + 2 * dev
            if current > max_sum:
                max_sum = current
            if count >= detector.warmup_errors:
                raw = current / max_sum
                assert abs(detector._raw - float(raw)) <= 1e-12, (trial, step)
                expected_similarity = min(1.0, max(0.9, float(raw)))
                assert abs(detector.similarity() - expected_similarity) <= 1e-12
                checks += 1
            if level == CHANGE:
                count = 0
                mean = mp.mpf(0)
                m2 = mp.mpf(0)
                max_sum = mp.mpf(0)
    assert checks >= 1000


def test_04_windowed_error_matches_brute_force():
    rng = np.random.default_rng(29)
    window = 1000
    for trial in range(10):
        losses = rng.integers(0, 2, size=50_000)
        cumulative = np.concatenate(([0], np.cumsum(losses)))
        tracker = PrequentialWindow(window)
        observed = []
        for loss in losses:
            tracker.update(int(loss))
            observed.append(tracker.error_rate())
        steps = np.arange(1, len(losses) + 1)
        starts = np.maximum(steps - window, 0)
        sums = cumulative[steps] - cumulative[starts]
        counts = np.minimum(steps, window)
        expected = sums / counts
        assert observed == expected.tolist(), f"trial {trial}"


def test_05_detector_shift_response_and_stability():
    detections = 0
    for seed in range(100):
        rng = np.random.default_rng([5, seed])
        detector = DdmDetector()
        for _ in range(1000):
            detector.update(bool(rng.random() < 0.1))
        for _ in range(200):
            if detector.update(bool(rng.random() < 0.5)) == CHANGE:
                detections += 1
                break
    assert detections >= 95, f"shift detected in only {detections}/100 runs"

    detector = DdmDetector()
    for i in range(50_000):
        level = detector.update(i % 100 == 99)
        assert level == STABLE, f"left stable at step {i}"


def test_06_adaptive_thresholds_bounded_and_jitter_free_equivalence(sweep):
    assert sweep["bound_violations"] == []

    # with the jitter scale at zero the randomized query rule must walk
    # the deterministic uncertainty rule step for step
    rng = np.random.default_rng(31)
    tops = rng.uniform(0.5, 1.0, size=10_000)
    strategy = RandomizedVariableUncertainty(rng=np.random.default_rng(1))
    strategy.noise = 0.0
    theta = 1.0
    for top in tops:
        posterior = ClassPosterior([top, 1.0 - top])
        decision = strategy.decide(posterior)
        assert decision.query == (top <= theta)
        assert decision.threshold == theta
        if decision.query:
            theta *= 1.0 - strategy.step
        else:
            theta *= 1.0 + strategy.step
        theta = min(1.0, max(0.5, theta))
        assert strategy.threshold == theta

    # and the randomized confidence rule must walk the adaptive one
    randomized = RandomizedAdaptiveConfidence(0.0, rng=np.random.default_rng(2))
    gamma = 1.0
    for top in tops:
        posterior = ClassPosterior([top, 1.0 - top])
        decision = randomized.decide(posterior, None)  # blind: reads no run
        assert decision.train == (top >= gamma)
        assert decision.threshold == gamma
        if decision.train:
            gamma *= 1.0 + randomized.step
        else:
            gamma *= 1.0 - randomized.step
        gamma = min(1.0, max(0.5, gamma))
        assert randomized.confidence == gamma


def test_07_hybrid_gain_at_five_percent_budget(calibration):
    gains = calibration[0.05]["gains"]
    best = max(gains.values())
    assert best >= 0.01, f"best hybrid gain {best * 100:+.2f} points, need >= 1"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at a 1% budget no self-labeling configuration can help: the 200"
        " bought labels never complete the ensemble's 500-instance build"
        " chunk, so its posterior stays exactly uniform and sits below"
        " every confidence bar, while the single-model learners saturate"
        " to certainty on one class and self-label that class into a"
        " permanent collapse; measured gain is exactly zero for all four"
        " strategies over ten seeds"
    ),
)
def test_07_hybrid_gain_at_one_percent_budget(calibration):
    gains = calibration[0.01]["gains"]
    best = max(gains.values())
    assert best >= 0.01, f"best hybrid gain {best * 100:+.2f} points, need >= 1"


def test_08_learners_master_separable_stream():
    profile = DriftProfile("sudden", ())
    stream = gen_drift_stream(
        profile,
        "gaussian-clusters",
        10_000,
        seed=7,
        radius=4.0,
        spread=0.6,
        name="separable",
    )
    for learner in ("nb", "ht"):
        config = HybridConfig(learner=learner, active="random", budget=1.0, seed=0)
        records, summary = run_stream(stream, config, record_stride=100)
        assert summary.queried == 10_000  # full labeling
        assert records[-1].windowed_accuracy >= 0.95, learner

    for name in ("nb", "ht", "awe"):
        model = LEARNERS[name](stream.schema)
        assert model.predict((0.0, 0.0)).probs == [0.5, 0.5], name


def test_09_byte_identical_reruns(tmp_path):
    run_stream_spec = (
        "gen:family=gaussian-clusters,kind=sudden,n=2000,changes=1000,"
        "seed=11,name=repro"
    )
    snapshots = []
    for tag in ("first", "second"):
        series = tmp_path / f"{tag}-series.csv"
        summary = tmp_path / f"{tag}-summary.json"
        code = cli_main(
            [
                "run",
                "--stream", run_stream_spec,
                "--sl", "randuni",
                "--budget", "0.2",
                "--series-out", str(series),
                "--summary-out", str(summary),
            ]
        )
        assert code == 0
        snapshots.append(
            series.read_bytes()
            + (tmp_path / f"{tag}-series.csv.meta.json").read_bytes()
            + summary.read_bytes()
        )
    assert snapshots[0] == snapshots[1]

    grids = []
    for tag in ("first", "second"):
        records = tmp_path / f"{tag}-cells.jsonl"
        code = cli_main(
            [
                "compare",
                "--streams", run_stream_spec,
                "--al", "random,randvar",
                "--sl", "fixed,uni",
                "--budgets", "0.05,0.2",
                "--seeds", "2",
                "--records-out", str(records),
            ]
        )
        assert code == 0
        grids.append(records.read_bytes())
    assert grids[0] == grids[1]


def _electricity_path():
    override = os.environ.get("DRIFTLAB_ELEC")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[1] / "data" / "elec.arff"


def test_10_electricity_end_to_end():
    path = _electricity_path()
    if not path.exists():
        pytest.skip(
            "electricity dataset not available in this environment; place"
            " the ARFF file at data/elec.arff or point DRIFTLAB_ELEC at it"
        )
    stream = parse_stream_spec(str(path)).load()
    assert len(stream.instances) == 45_312
    assert stream.schema.n_attributes == 8
    assert stream.schema.class_count == 2

    spec = GridSpec(streams=(parse_stream_spec(str(path)),))
    started = time.perf_counter()
    report = run_grid(spec)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"comparison took {elapsed:.0f}s"
    assert not report.failures

    by_budget = {}
    for cell in report.cells:
        by_budget.setdefault(cell.budget, []).append(cell.accuracy)
    budgets = sorted(by_budget)
    means = [sum(v) / len(v) for v in (by_budget[b] for b in budgets)]
    for lower, upper in zip(means, means[1:]):
        assert upper >= lower - 0.02, (
            f"accuracy fell by more than two points between budgets: {means}"
        )

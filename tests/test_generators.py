import math
import warnings

import numpy as np
import pytest

from driftlab.cli import main
from driftlab.core import ConfigError
from driftlab.generators import (
    FAMILIES,
    DriftProfile,
    GaussianClusters,
    InvalidProfile,
    RotatingHyperplane,
    SeaThresholds,
    gen_drift_stream,
    make_family,
)
from driftlab.streams import parse_stream_spec


def pairs(instances):
    """Instances as (features, label) pairs, which compare by value."""
    return [(inst.features, inst.label) for inst in instances]


class TestDriftProfile:
    def test_unknown_kind(self):
        with pytest.raises(InvalidProfile):
            DriftProfile("wobbly")

    def test_change_points_must_be_positive(self):
        with pytest.raises(InvalidProfile):
            DriftProfile("sudden", (0,))

    def test_change_points_strictly_increasing(self):
        with pytest.raises(InvalidProfile):
            DriftProfile("sudden", (100, 100))

    def test_sudden_rejects_width(self):
        with pytest.raises(InvalidProfile):
            DriftProfile("sudden", (100,), width=10)

    def test_gradual_needs_width(self):
        with pytest.raises(InvalidProfile):
            DriftProfile("gradual", (100,), width=0)

    def test_windows_must_not_overlap_next_point(self):
        with pytest.raises(InvalidProfile):
            DriftProfile("gradual", (100, 150), width=60)
        DriftProfile("gradual", (100, 150), width=50)  # touching is fine

    def test_cycle_length_positive(self):
        with pytest.raises(InvalidProfile):
            DriftProfile("recurring", (10,), width=1, cycle_length=0)

    def test_validate_length_checks_points(self):
        prof = DriftProfile("sudden", (500,))
        prof.validate_length(501)
        with pytest.raises(InvalidProfile):
            prof.validate_length(500)

    def test_validate_length_checks_window_end(self):
        prof = DriftProfile("incremental", (90,), width=20)
        prof.validate_length(110)
        with pytest.raises(InvalidProfile):
            prof.validate_length(109)


def test_sudden_phases_step_at_change_points():
    prof = DriftProfile("sudden", (3, 7))
    rng = np.random.default_rng(0)
    phases = prof.concept_phases(10, rng)
    assert phases.tolist() == [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]


def test_stationary_profile_is_all_zero():
    prof = DriftProfile("sudden")
    phases = prof.concept_phases(5, np.random.default_rng(0))
    assert phases.tolist() == [0, 0, 0, 0, 0]


def test_incremental_phases_ramp_linearly():
    prof = DriftProfile("incremental", (10,), width=4)
    phases = prof.concept_phases(16, np.random.default_rng(0))
    assert phases[:10].tolist() == [0.0] * 10
    assert phases[10:14].tolist() == pytest.approx([0.0, 0.25, 0.5, 0.75])
    assert phases[14:].tolist() == [1.0, 1.0]


def test_gradual_window_edges_are_deterministic():
    # the first in-window position never draws the new concept, the
    # first position past the window always has it
    prof = DriftProfile("gradual", (50,), width=20)
    for seed in range(10):
        phases = prof.concept_phases(100, np.random.default_rng(seed))
        assert phases[50] == 0.0
        assert phases[70:].tolist() == [1.0] * 30
        assert set(phases[50:70].tolist()) <= {0.0, 1.0}


def test_gradual_midpoint_mixes_about_evenly():
    # positions around the window midpoint carry ~50% new-concept mass
    prof = DriftProfile("gradual", (1000,), width=2000)
    phases = prof.concept_phases(4000, np.random.default_rng(7))
    mid = phases[1750:2250]
    assert np.mean(mid) == pytest.approx(0.5, abs=0.07)


def test_gradual_mixture_rate_tracks_ramp():
    prof = DriftProfile("gradual", (100,), width=400)
    hits = np.zeros(400)
    trials = 200
    for seed in range(trials):
        phases = prof.concept_phases(500, np.random.default_rng(seed))
        hits += phases[100:500]
    rate = hits / trials
    ramp = np.arange(400) / 400.0
    assert np.max(np.abs(rate - ramp)) < 0.15


def test_recurring_phases_wrap_modulo_cycle():
    prof = DriftProfile("recurring", (10, 20, 30), width=1, cycle_length=2)
    phases = prof.concept_phases(40, np.random.default_rng(0))
    assert phases[:11].tolist() == [0.0] * 11  # width-1 window holds the old concept
    assert phases[11:21].tolist() == [1.0] * 10
    assert phases[21:31].tolist() == [0.0] * 10
    assert phases[31:].tolist() == [1.0] * 9


class TestGaussianClusters:
    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            GaussianClusters(classes=1)
        with pytest.raises(ConfigError):
            GaussianClusters(dims=1)
        with pytest.raises(ConfigError):
            GaussianClusters(dims=11)
        with pytest.raises(ConfigError):
            GaussianClusters(spread=0.0)

    def test_class_means_at_phase_zero(self):
        # a spread this small puts every sample on its class center
        fam = GaussianClusters(classes=2, dims=2, radius=3.0, spread=1e-12, rotation=0.8)
        x, y = fam.sample(np.random.default_rng(0), np.zeros(200))
        assert set(y.tolist()) == {0, 1}
        for c, center in ((0, [3.0, 0.0]), (1, [-3.0, 0.0])):
            assert x[y == c] == pytest.approx(np.tile(center, ((y == c).sum(), 1)), abs=1e-9)

    def test_class_means_rotate_with_phase(self):
        fam = GaussianClusters(radius=3.0, spread=1e-12, rotation=0.8)
        x, y = fam.sample(np.random.default_rng(0), np.ones(200))
        center = [3.0 * math.cos(0.8), 3.0 * math.sin(0.8)]
        assert x[y == 0] == pytest.approx(np.tile(center, ((y == 0).sum(), 1)), abs=1e-9)

    def test_sample_means_match_oracle(self):
        fam = GaussianClusters(classes=3, dims=4, radius=3.0, spread=1.0, rotation=0.8)
        rng = np.random.default_rng(42)
        x, y = fam.sample(rng, np.zeros(30000))
        # class i is centered at angle 2*pi*i / classes on the radius-3 circle
        oracle = np.zeros((3, 4))
        for c in range(3):
            oracle[c, :2] = 3.0 * math.cos(2.0 * math.pi * c / 3), 3.0 * math.sin(2.0 * math.pi * c / 3)
        for c in range(3):
            emp = x[y == c].mean(axis=0)
            assert emp == pytest.approx(oracle[c], abs=0.06)

    def test_schema_shape(self):
        schema = GaussianClusters(classes=3, dims=5).schema()
        assert schema.n_attributes == 5
        assert schema.class_names == ("c0", "c1", "c2")


class TestRotatingHyperplane:
    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            RotatingHyperplane(dims=1)
        with pytest.raises(ConfigError):
            RotatingHyperplane(noise=0.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rotation_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="rotation must be finite"):
            RotatingHyperplane(rotation=value)

    def test_labels_follow_boundary_exactly_without_noise(self):
        fam = RotatingHyperplane(dims=4, rotation=0.5)
        rng = np.random.default_rng(1)
        phases = np.repeat([0.0, 1.0, 2.0], 500)
        x, y = fam.sample(rng, phases)
        for i in range(len(y)):
            # the normal is (cos a, sin a, 0, ...) at angle a = phase * rotation
            a = phases[i] * 0.5
            assert y[i] == (x[i, 0] * math.cos(a) + x[i, 1] * math.sin(a) >= 0.0)

    def test_noise_flips_labels_at_about_the_requested_rate(self):
        clean = RotatingHyperplane(dims=2, rotation=0.0)
        rng = np.random.default_rng(3)
        x, y = RotatingHyperplane(dims=2, rotation=0.0, noise=0.2).sample(
            rng, np.zeros(20000)
        )
        ideal = (x[:, 0] >= 0.0).astype(int)  # rotation 0: the normal is the first axis
        assert np.mean(y != ideal) == pytest.approx(0.2, abs=0.02)


class TestSeaThresholds:
    def test_threshold_interpolation(self):
        # phase 3.5 wraps around from the last threshold to the first
        for phase, threshold in ((0.0, 8.0), (0.5, 8.5), (2.0, 7.0), (3.5, (9.5 + 8.0) / 2), (4.0, 8.0)):
            x, y = SeaThresholds().sample(np.random.default_rng(5), np.full(2000, phase))
            total = x[:, 0] + x[:, 1]
            assert y.tolist() == (total <= threshold).astype(int).tolist()
            # the cut falls between the largest positive and the smallest negative sum
            assert total[y == 1].max() <= threshold < total[y == 0].min()

    def test_labels_follow_threshold_exactly(self):
        fam = SeaThresholds()
        rng = np.random.default_rng(5)
        phases = np.repeat([0.0, 1.0, 2.5], 400)
        x, y = fam.sample(rng, phases)
        for i in range(len(y)):
            thr = {0.0: 8.0, 1.0: 9.0, 2.5: (7.0 + 9.5) / 2}[phases[i]]
            assert y[i] == (x[i, 0] + x[i, 1] <= thr)

    def test_noise_validation(self):
        with pytest.raises(ConfigError):
            SeaThresholds(noise=-0.1)


def test_family_registry_names():
    assert set(FAMILIES) == {
        "gaussian-clusters",
        "rotating-hyperplane",
        "sea-like-thresholds",
    }


def test_make_family_unknown_name():
    with pytest.raises(ConfigError):
        make_family("mystery-meat")


def test_make_family_bad_params():
    with pytest.raises(ConfigError):
        make_family("sea-like-thresholds", dims=7)


@pytest.mark.parametrize(
    "setting", ["radius=inf", "radius=nan", "spread=nan", "spread=inf", "rotation=inf", "rotation=-inf"]
)
def test_non_finite_gaussian_parameters_are_config_errors(setting):
    # each of these used to load as a stream whose every cell was inf or
    # NaN; the spec is now rejected when it is parsed
    key = setting.partition("=")[0]
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_stream_spec(f"gen:family=gaussian-clusters,n=200,{setting}")


def test_parameters_that_overflow_the_features_are_config_errors():
    with pytest.raises(ConfigError, match="non-finite features"):
        gen_drift_stream(DriftProfile("sudden"), "gaussian-clusters", 50, seed=0, name="g", spread=1e308)


def test_driftlab_run_reports_a_feature_overflow_without_a_numpy_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--stream", "gen:n=300,seed=1,spread=1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow to non-finite features" in err


def test_driftlab_run_rejects_a_non_finite_generator_parameter(capsys):
    # it used to die inside the run with "probability entry 0 is negative or NaN"
    assert main(["run", "--stream", "gen:family=gaussian-clusters,n=200,spread=nan"]) == 2
    assert "spread must be finite" in capsys.readouterr().err


class TestGenDriftStream:
    def test_determinism(self):
        prof = DriftProfile("gradual", (500,), width=100)
        a = gen_drift_stream(prof, "gaussian-clusters", 1000, seed=9, name="a")
        b = gen_drift_stream(prof, "gaussian-clusters", 1000, seed=9, name="b")
        assert pairs(a.instances) == pairs(b.instances)
        c = gen_drift_stream(prof, "gaussian-clusters", 1000, seed=10, name="c")
        assert pairs(a.instances) != pairs(c.instances)

    def test_length_and_schema(self):
        prof = DriftProfile("sudden", (50,))
        stream = gen_drift_stream(prof, "rotating-hyperplane", 200, seed=0, name="h", dims=3)
        assert len(stream) == 200
        assert stream.schema.n_attributes == 3
        assert all(inst.label in (0, 1) for inst in stream.instances)

    def test_metadata_records_settings(self):
        prof = DriftProfile("sudden", (50,))
        stream = gen_drift_stream(prof, "sea-like-thresholds", 100, seed=4, name="s")
        md = stream.metadata
        assert md["source"] == "generator"
        assert md["family"] == "sea-like-thresholds"
        assert md["kind"] == "sudden"
        assert md["change_points"] == [50]
        assert md["n"] == 100
        assert md["seed"] == 4

    def test_rejects_empty_stream(self):
        with pytest.raises(ConfigError):
            gen_drift_stream(DriftProfile("sudden"), "gaussian-clusters", 0, seed=0, name="g")

    def test_rejects_a_negative_seed(self):
        # numpy's default_rng used to end this in a bare ValueError
        with pytest.raises(ConfigError, match="generator seed must be at least 0, got -1"):
            gen_drift_stream(DriftProfile("sudden"), "gaussian-clusters", 10, seed=-1, name="g")

    def test_change_point_must_fit(self):
        with pytest.raises(InvalidProfile):
            gen_drift_stream(DriftProfile("sudden", (100,)), "gaussian-clusters", 100, seed=0, name="g")

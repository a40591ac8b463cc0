"""Synthetic drifting-stream generators.

A :class:`DriftProfile` turns a stream position into a concept *phase*:
a float whose integer part selects a concept and whose fractional part
blends toward the next one. Three concept families interpret phases:

* ``gaussian-clusters``: spherical per-class Gaussians whose means
  rotate between concepts;
* ``rotating-hyperplane``: uniform cube data labeled by a rotating
  linear boundary through the first two dimensions;
* ``sea-like-thresholds``: uniform data labeled by the sum of the
  first two features against a per-concept threshold.

Generation is vectorized and deterministic for a fixed seed: the
profile's mixing draws (gradual/recurring only) come first, then labels,
then feature noise, in that frozen order. A setting no stream can take,
from an inconsistent drift profile to family parameters whose features
overflow, raises ``ConfigError``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    NUMERIC,
    Attribute,
    ConfigError,
    Instance,
    LoadedStream,
    StreamSchema,
)

SUDDEN = "sudden"
GRADUAL = "gradual"
INCREMENTAL = "incremental"
RECURRING = "recurring"
KINDS = (SUDDEN, GRADUAL, INCREMENTAL, RECURRING)


@dataclass(frozen=True)
class DriftProfile:
    """Where and how concepts change along the stream.

    ``change_points`` are 0-based instance indices; the instance at a
    change point is the first one affected by the transition. ``width``
    is the transition window length and must be 0 exactly for sudden
    drift. Recurring drift cycles concept indices modulo
    ``cycle_length`` instead of progressing.
    """

    kind: str
    change_points: tuple[int, ...] = ()
    width: int = 0
    cycle_length: int = 2

    def __post_init__(self):
        if not isinstance(self.change_points, tuple):
            object.__setattr__(self, "change_points", tuple(self.change_points))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown drift kind: {self.kind!r}")
        points = self.change_points
        for p in points:
            if p <= 0:
                raise ConfigError(f"change point {p} must be positive")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ConfigError(f"change points must be strictly increasing: {points}")
        if self.kind == SUDDEN:
            if self.width != 0:
                raise ConfigError("transition width must be 0 for sudden drift")
        else:
            if self.width < 1:
                raise ConfigError(f"{self.kind} drift needs a transition width >= 1")
            for a, b in zip(points, points[1:]):
                if a + self.width > b:
                    raise ConfigError(
                        f"transition window at {a} (width {self.width})"
                        f" overlaps the next change point {b}"
                    )
        if self.cycle_length < 1:
            raise ConfigError("cycle_length must be at least 1")

    def validate_length(self, n: int) -> None:
        for p in self.change_points:
            if p >= n:
                raise ConfigError(f"change point {p} outside stream of {n} instances")
            if self.kind != SUDDEN and p + self.width > n:
                raise ConfigError(
                    f"transition window at {p} (width {self.width})"
                    f" runs past the stream end {n}"
                )

    def concept_phases(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Per-instance concept phase array of length ``n``.

        Sudden/gradual/recurring yield whole-number phases (gradual and
        recurring resolve their in-window mixture with one uniform draw
        per stream position); incremental yields fractional phases that
        ramp linearly from one concept to the next inside each window.
        """
        self.validate_length(n)
        points = self.change_points
        positions = np.arange(n)
        phases = np.searchsorted(points, positions, side="right").astype(np.float64)
        if self.kind == SUDDEN:
            return phases
        # incremental phases follow the ramp; gradual and recurring ones
        # step up where one draw per position falls below it
        mix = None if self.kind == INCREMENTAL else rng.random(n)
        for j, cp in enumerate(points):
            idx = np.arange(cp, cp + self.width)
            ramp = (idx - cp) / self.width
            phases[idx] = j + (ramp if mix is None else mix[idx] < ramp)
        if self.kind == RECURRING:
            phases = np.mod(phases, self.cycle_length)
        return phases


def _require_finite(**params):
    for key, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")


def _check_noise(noise):
    if not 0.0 <= noise < 0.5:
        raise ConfigError("label noise must be in [0, 0.5)")


def _flip_labels(rng: np.random.Generator, y: np.ndarray, noise: float) -> np.ndarray:
    """Two-class labels ``y``, each flipped with probability ``noise``; no
    draw at noise 0."""
    if noise > 0.0:
        y = np.where(rng.random(len(y)) < noise, 1 - y, y)
    return y


@dataclass(frozen=True)
class ConceptFamily:
    """A concept family's dataclass fields are its parameters and its
    ``gen:`` keys, parsed as their defaults' types (:data:`PARAMS`). Its
    streams have ``dims`` numeric attributes ``x0..`` and ``classes``
    classes ``c0..``."""

    def params(self) -> dict:
        return asdict(self)

    def schema(self) -> StreamSchema:
        attrs = tuple(Attribute(f"x{i}", NUMERIC) for i in range(self.dims))
        return StreamSchema(attrs, tuple(f"c{i}" for i in range(self.classes)))


@dataclass(frozen=True)
class GaussianClusters(ConceptFamily):
    """Per-class spherical Gaussians; drift rotates the cluster centers.

    Class ``i`` of concept phase ``t`` is centered on a circle of the
    given radius at angle ``t * rotation + 2*pi*i / classes`` (in the
    first two dimensions; any further dimensions are pure noise).
    """

    name = "gaussian-clusters"
    classes: int = 2
    dims: int = 2
    radius: float = 3.0
    spread: float = 1.0
    rotation: float = 0.8

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("gaussian-clusters needs at least 2 classes")
        if not 2 <= self.dims <= 10:
            raise ConfigError("gaussian-clusters supports 2 to 10 dimensions")
        _require_finite(radius=self.radius, spread=self.spread, rotation=self.rotation)
        if self.spread <= 0:
            raise ConfigError("spread must be positive")

    def sample(self, rng: np.random.Generator, phases: np.ndarray):
        n = len(phases)
        y = rng.integers(0, self.classes, size=n)
        angles = phases * self.rotation + 2.0 * math.pi * y / self.classes
        x = self.spread * rng.standard_normal((n, self.dims))
        x[:, 0] += self.radius * np.cos(angles)
        x[:, 1] += self.radius * np.sin(angles)
        return x, y


@dataclass(frozen=True)
class RotatingHyperplane(ConceptFamily):
    """Uniform data in [-1, 1]^d labeled by a rotating linear boundary.

    The boundary normal starts along the first axis and rotates in the
    plane of the first two dimensions by ``rotation`` radians per
    concept; remaining dimensions are irrelevant attributes.
    """

    name = "rotating-hyperplane"
    classes = 2
    dims: int = 5
    rotation: float = 0.5
    noise: float = 0.0

    def __post_init__(self):
        if self.dims < 2:
            raise ConfigError("rotating-hyperplane needs at least 2 dimensions")
        _require_finite(rotation=self.rotation)
        _check_noise(self.noise)

    def sample(self, rng: np.random.Generator, phases: np.ndarray):
        n = len(phases)
        x = rng.uniform(-1.0, 1.0, size=(n, self.dims))
        a = phases * self.rotation
        score = x[:, 0] * np.cos(a) + x[:, 1] * np.sin(a)
        y = (score >= 0.0).astype(np.int64)
        return x, _flip_labels(rng, y, self.noise)


@dataclass(frozen=True)
class SeaThresholds(ConceptFamily):
    """Three uniform features in [0, 10]; label is x0 + x1 <= threshold.

    Concepts cycle through the classic threshold list (8, 9, 7, 9.5);
    fractional phases interpolate between consecutive thresholds.
    """

    name = "sea-like-thresholds"
    classes = 2
    dims = 3
    thresholds = (8.0, 9.0, 7.0, 9.5)
    noise: float = 0.0

    def __post_init__(self):
        _check_noise(self.noise)

    def sample(self, rng: np.random.Generator, phases: np.ndarray):
        n = len(phases)
        x = rng.uniform(0.0, 10.0, size=(n, self.dims))
        t = np.asarray(self.thresholds)
        k = np.floor(phases).astype(np.int64)
        frac = phases - k
        lo = t[k % len(t)]
        hi = t[(k + 1) % len(t)]
        thr = lo + frac * (hi - lo)
        y = (x[:, 0] + x[:, 1] <= thr).astype(np.int64)
        return x, _flip_labels(rng, y, self.noise)


FAMILIES = {
    GaussianClusters.name: GaussianClusters,
    RotatingHyperplane.name: RotatingHyperplane,
    SeaThresholds.name: SeaThresholds,
}
DEFAULT_FAMILY = GaussianClusters.name
# every family parameter with its type; a name two families share has one type
PARAMS = {f.name: type(f.default) for cls in FAMILIES.values() for f in fields(cls)}


def make_family(family: str, **params):
    try:
        cls = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigError(f"unknown concept family {family!r} (known: {known})") from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for family {family!r}: {exc}") from None


def checked_family(profile: DriftProfile, family: str, n: int, seed, **family_params):
    """The concept family of an ``n``-instance stream under ``profile``,
    built once the length, the seed (None when unset), the family with
    its parameters and the profile's fit to the length are checked."""
    if n < 1:
        raise ConfigError("stream length must be at least 1")
    if seed is not None and seed < 0:
        raise ConfigError(f"generator seed must be at least 0, got {seed}")
    fam = make_family(family, **family_params)
    profile.validate_length(n)
    return fam


def gen_drift_stream(profile: DriftProfile, family, n: int, seed, name, **family_params) -> LoadedStream:
    """Generate ``n`` instances from a concept family under a drift profile.

    Deterministic for fixed (profile, family, params, n, seed): calling
    twice yields identical instances.
    """
    fam = checked_family(profile, family, n, seed, **family_params)
    rng = np.random.default_rng(seed)
    phases = profile.concept_phases(n, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        x, y = fam.sample(rng, phases)
    if not np.isfinite(x).all():
        raise ConfigError(f"{fam.name} parameters {fam.params()} overflow to non-finite features")
    # one list per column, zipped into row tuples: no list per row
    rows = zip(*x.T.tolist())
    instances = [Instance(row, label) for row, label in zip(rows, y.tolist())]
    metadata = {
        "source": "generator",
        "family": fam.name,
        "params": fam.params(),
        "kind": profile.kind,
        "change_points": list(profile.change_points),
        "width": profile.width,
        "cycle_length": profile.cycle_length,
        "n": n,
        "seed": seed,
    }
    return LoadedStream(name, fam.schema(), instances, metadata)

"""Budget-aware online stream classification with active and self-labeling."""

from .core import ClassPosterior, ConfigError, DriftLabError, SchemaMismatch
from .experiments import GridSpec, run_grid
from .generators import DriftProfile, gen_drift_stream
from .hybrid import HybridConfig, HybridRunner, RunSummary, build_runner, run_stream
from .streams import parse_stream_spec, write_csv

__version__ = "0.1.0"

__all__ = [
    "ClassPosterior",
    "ConfigError",
    "DriftLabError",
    "DriftProfile",
    "GridSpec",
    "HybridConfig",
    "HybridRunner",
    "RunSummary",
    "SchemaMismatch",
    "build_runner",
    "gen_drift_stream",
    "parse_stream_spec",
    "run_grid",
    "run_stream",
    "write_csv",
    "__version__",
]

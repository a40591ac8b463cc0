"""The inventory of settable values: every parameter with a default on a
public function, constructor or method in ``driftlab``, plus every flag
of every ``driftlab`` subcommand.

A setting that no caller varies is a class constant, so this list grows
only when a new option gets two callers that want different values. An
edit that adds or removes a setting must edit this list too.
"""

import argparse
import importlib
import inspect
import json
import pathlib
import pkgutil

import pytest

import driftlab
from driftlab import cli

SETTABLE_VALUES = [
    "cli.main(argv)",
    "core.Attribute.__init__(values)",
    "driftlab compare --al",
    "driftlab compare --budgets",
    "driftlab compare --jobs",
    "driftlab compare --learners",
    "driftlab compare --records-out",
    "driftlab compare --seeds",
    "driftlab compare --sl",
    "driftlab compare --streams",
    "driftlab compare --table-out",
    "driftlab generate --out",
    "driftlab generate --stream",
    "driftlab run --al",
    "driftlab run --budget",
    "driftlab run --learner",
    "driftlab run --seed",
    "driftlab run --series-out",
    "driftlab run --sl",
    "driftlab run --stream",
    "driftlab run --stride",
    "driftlab run --summary-out",
    "driftlab run --window",
    "evaluation.CellResult.__init__(best)",
    "evaluation.CellResult.__init__(error)",
    "evaluation.CellResult.__init__(improved)",
    "experiments.GridSpec.__init__(active)",
    "experiments.GridSpec.__init__(budgets)",
    "experiments.GridSpec.__init__(learners)",
    "experiments.GridSpec.__init__(seeds)",
    "experiments.GridSpec.__init__(self_label)",
    "experiments.run_grid(jobs)",
    "generators.DriftProfile.__init__(change_points)",
    "generators.DriftProfile.__init__(cycle_length)",
    "generators.DriftProfile.__init__(width)",
    "generators.GaussianClusters.__init__(classes)",
    "generators.GaussianClusters.__init__(dims)",
    "generators.GaussianClusters.__init__(radius)",
    "generators.GaussianClusters.__init__(rotation)",
    "generators.GaussianClusters.__init__(spread)",
    "generators.RotatingHyperplane.__init__(dims)",
    "generators.RotatingHyperplane.__init__(noise)",
    "generators.RotatingHyperplane.__init__(rotation)",
    "generators.SeaThresholds.__init__(noise)",
    "hybrid.HybridConfig.__init__(budget)",
    "hybrid.HybridConfig.__init__(seed)",
    "hybrid.HybridConfig.__init__(self_label)",
    "hybrid.HybridConfig.__init__(window)",
    "hybrid.HybridRunner.__init__(window)",
    "hybrid.HybridRunner.process_instance(want_record)",
    "hybrid.run_stream(record_stride)",
    "streams.StreamSpec.__init__(generator)",
    "streams.StreamSpec.__init__(path)",
    "streams.StreamSpec.load(seed_fallback)",
    "streams.read_arff(name)",
    "streams.read_csv(name)",
]


def defaulted(qualname, function):
    """``qualname(param)`` for each parameter of ``function`` with a default."""
    parameters = inspect.signature(function).parameters.values()
    return [f"{qualname}({p.name})" for p in parameters if p.default is not inspect.Parameter.empty]


def code_settings():
    """Defaulted parameters of every public function, constructor and
    public method defined in a ``driftlab`` module."""
    found = []
    for info in pkgutil.iter_modules(driftlab.__path__):
        module = importlib.import_module(f"driftlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found += defaulted(qualname, obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        found += defaulted(f"{qualname}.{attr}", member)
    return found


def cli_flags():
    """``driftlab <command> <flag>`` for every flag but ``--help``."""
    found = []
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, parser in action.choices.items():
                found += [
                    f"driftlab {command} {flag.option_strings[0]}"
                    for flag in parser._actions
                    if flag.option_strings and not isinstance(flag, argparse._HelpAction)
                ]
    return found


def test_settable_values_are_exactly_the_inventory():
    assert sorted(code_settings() + cli_flags()) == SETTABLE_VALUES
    assert len(SETTABLE_VALUES) == 56


# Every flag of every subcommand changes some output it computes, or is
# named below with the reason it must not. Outputs are the files each
# subcommand writes, with the settings they echo (``config`` in a run's
# summary and sidecar, ``stream`` in a generated CSV's sidecar) left out:
# a flag that is only echoed changes nothing. Each flag runs once at its
# default, or at the base value if it has none, and once at the value here.
TINY = "gen:family=gaussian-clusters,kind=sudden,n=400,changes=200,seed=1"
OTHER = "gen:family=gaussian-clusters,kind=sudden,n=400,changes=200,seed=2"
BASE = {
    "run": ["--stream", TINY, "--series-out", "series.csv", "--summary-out", "summary.json"],
    "compare": ["--streams", TINY, "--table-out", "table.txt", "--records-out", "records.jsonl"],
    "generate": ["--stream", TINY, "--out", "stream.csv"],
}
CHANGED = {
    "driftlab compare --al": "random",
    "driftlab compare --budgets": "0.3",
    "driftlab compare --learners": "awe",
    "driftlab compare --seeds": "2",
    "driftlab compare --sl": "cddm",
    "driftlab compare --streams": OTHER,
    "driftlab generate --stream": OTHER,
    "driftlab run --al": "random",
    "driftlab run --budget": "0.5",
    "driftlab run --learner": "awe",
    "driftlab run --seed": "1",
    "driftlab run --sl": "cddm",
    "driftlab run --stream": OTHER,
    "driftlab run --stride": "7",
    "driftlab run --window": "50",
}
SAME = {
    "driftlab compare --jobs": ("2", "a grid's outputs do not depend on how many processes run it"),
}
PATHS = {
    "driftlab compare --records-out": "an output path",
    "driftlab compare --table-out": "an output path",
    "driftlab generate --out": "an output path",
    "driftlab run --series-out": "an output path",
    "driftlab run --summary-out": "an output path",
}
ECHOED = ("config", "stream")


def computed_outputs(flag, value=None) -> dict:
    """What ``flag``'s subcommand computes from the base arguments, with
    ``flag`` set to ``value`` (``None`` leaves it at its default)."""
    command, name = flag.split()[1:]
    argv = list(BASE[command])
    if value is not None:
        if name in argv:
            argv[argv.index(name) + 1] = value
        else:
            argv += [name, value]
    assert cli.main([command] + argv) == 0
    outputs = {}
    for path in sorted(pathlib.Path().iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            payload = {k: v for k, v in json.loads(text).items() if k not in ECHOED}
            text = json.dumps(payload, sort_keys=True)
        outputs[path.name] = text
        path.unlink()
    return outputs


def test_every_flag_is_checked_or_named():
    assert sorted({**CHANGED, **SAME, **PATHS}) == sorted(cli_flags())


@pytest.fixture
def outputs_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("DRIFTLAB_JOBS", raising=False)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("flag", sorted(CHANGED))
def test_flag_changes_a_computed_output(flag, outputs_dir):
    assert computed_outputs(flag) != computed_outputs(flag, CHANGED[flag])


@pytest.mark.parametrize("flag", sorted(SAME))
def test_flag_leaves_every_output_the_same(flag, outputs_dir):
    assert computed_outputs(flag) == computed_outputs(flag, SAME[flag][0])

"""Command-line front end: single runs, comparison sweeps, generation.

Outputs are reproducibility-first: every file either embeds the fully
resolved configuration or gets a sidecar that does, nothing embeds a
timestamp, and rerunning a command with the same arguments produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import hybrid
from .core import ConfigError, DriftLabError
from .experiments import GridSpec, resolve_jobs, run_grid
from .evaluation import to_records, to_text
from .hybrid import ACTIVE, LEARNERS, SELF_LABEL, HybridConfig, StepRecord, run_stream, step_records
from .streams import parse_stream_spec, write_csv


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_series(path, records):
    """Write each record as ``records`` yields it, into a sibling file
    that becomes ``path`` only once the run ends: a failed run leaves none."""
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(StepRecord._fields) + "\n")
            for record in records:
                fh.write(",".join(_format_value(v) for v in record) + "\n")
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_stream(flag, text):
    """``parse_stream_spec(text)``, with ``flag`` named before its errors."""
    try:
        return parse_stream_spec(text)
    except DriftLabError as exc:
        raise ConfigError(f"{flag}: {exc}")


def cmd_run(args) -> int:
    if args.stride < 1:
        raise ConfigError("--stride must be at least 1")
    try:
        config = HybridConfig(
            learner=args.learner,
            active=args.al,
            self_label=args.sl,
            budget=args.budget,
            seed=args.seed,
            window=args.window,
        )
    except ConfigError as exc:
        raise ConfigError(f"--learner/--al/--sl/--budget/--seed/--window: {exc}")

    spec = _parse_stream("--stream", args.stream)
    stream = spec.load(seed_fallback=config.seed)
    resolved = dict(config.to_dict(), stream=spec.describe(), stride=args.stride)
    if args.series_out is None:
        summary = run_stream(stream, config)[1]
    else:
        # looked up on the module, where the benchmark's tracer wraps it
        runner = hybrid.build_runner(stream.schema, config)
        _write_series(args.series_out, step_records(stream, runner, args.stride))
        summary = runner.summary(stream.name)
        _write_json(args.series_out + ".meta.json", {"config": resolved})
    if args.summary_out is not None:
        _write_json(
            args.summary_out,
            {"config": resolved, "summary": summary.to_dict()},
        )

    print(
        f"{stream.name}: accuracy={summary.accuracy:.4f}"
        f" spend={summary.final_spend:.4f} queried={summary.queried}"
        f" self_labeled={summary.self_labeled} skipped={summary.skipped}"
    )
    return 0


def _split(text) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_compare(args) -> int:
    try:
        budgets = tuple(float(b) for b in _split(args.budgets))
    except ValueError:
        raise ConfigError(f"--budgets: not a number list: {args.budgets!r}")
    streams = tuple(_parse_stream("--streams", text) for text in args.streams)
    try:
        spec = GridSpec(
            streams=streams,
            learners=tuple(_split(args.learners)),
            active=tuple(_split(args.al)),
            self_label=tuple(_split(args.sl)),
            budgets=budgets,
            seeds=tuple(range(args.seeds)),
            window=args.window,
        )
    except ConfigError as exc:
        raise ConfigError(f"--streams/--learners/--al/--sl/--budgets/--seeds/--window: {exc}")

    report = run_grid(spec, jobs=resolve_jobs(args.jobs))
    text = to_text(report)
    print(text, end="")
    if args.table_out is not None:
        with open(args.table_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.records_out is not None:
        with open(args.records_out, "w", encoding="utf-8") as fh:
            for record in to_records(report):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def cmd_generate(args) -> int:
    spec = _parse_stream("--stream", args.stream)
    if spec.generator is None:
        raise ConfigError(f"--stream: generate needs a gen: spec, got {args.stream!r}")
    stream = spec.load()
    write_csv(args.out, stream)
    sidecar = {
        "stream": spec.describe(),
        "seed": stream.metadata["seed"],
        "class_names": list(stream.schema.class_names),
    }
    _write_json(args.out + ".meta.json", sidecar)
    print(f"wrote {args.out}: {len(stream.instances)} instances")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description=(
            "Budget-aware online stream classification: active label"
            " queries plus self-labeling"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one stream with one configuration")
    run.add_argument("--stream", required=True, help="data file path (.arff is ARFF, anything else CSV) or gen: spec")
    run.add_argument("--learner", choices=LEARNERS, default="nb")
    run.add_argument("--al", choices=ACTIVE, default="randvar", help="query strategy")
    run.add_argument("--sl", choices=SELF_LABEL, default=HybridConfig.self_label, help="self-label strategy")
    run.add_argument("--budget", type=float, default=HybridConfig.budget)
    run.add_argument("--seed", type=int, default=HybridConfig.seed)
    run.add_argument("--window", type=int, default=HybridConfig.window)
    run.add_argument("--stride", type=int, default=100, help="series row spacing (default %(default)s)")
    run.add_argument("--series-out", dest="series_out")
    run.add_argument("--summary-out", dest="summary_out")
    run.set_defaults(handler=cmd_run)

    compare = sub.add_parser("compare", help="strategy-by-budget sweep")
    compare.add_argument(
        "--streams",
        required=True,
        nargs="+",
        help="one or more sources (paths, .arff is ARFF and anything else CSV, or gen: specs)",
    )
    compare.add_argument("--learners", default=",".join(GridSpec.learners))
    compare.add_argument("--al", default=",".join(GridSpec.active))
    compare.add_argument("--sl", default=",".join(GridSpec.self_label))
    # two decimals print the grid's budgets exactly; a finer one needs more
    compare.add_argument("--budgets", default=",".join(f"{b:.2f}" for b in GridSpec.budgets))
    compare.add_argument("--seeds", type=int, default=1, help="seed count")
    compare.add_argument("--window", type=int, default=GridSpec.window)
    compare.add_argument("--jobs", type=int, default=None)
    compare.add_argument("--table-out", dest="table_out")
    compare.add_argument("--records-out", dest="records_out")
    compare.set_defaults(handler=cmd_compare)

    generate = sub.add_parser("generate", help="write a gen: spec's stream as CSV, with a .meta.json sidecar")
    generate.add_argument(
        "--stream",
        required=True,
        help="gen: spec, as run and compare take it; changes= is |-separated (default: no change),"
        " and gradual, incremental and recurring drift need width= >= 1",
    )
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DriftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error{where}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

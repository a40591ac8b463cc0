"""Command-line front end: single runs, comparison sweeps, generation.

Outputs are reproducibility-first: every file either embeds the fully
resolved configuration or gets a sidecar that does, nothing embeds a
timestamp, and rerunning a command with the same arguments produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import DriftLabError
from .core import ConfigError
from .experiments import GridSpec, resolve_jobs, run_grid
from .evaluation import to_records, to_text
from .generators import DriftProfile, gen_drift_stream
from .hybrid import ACTIVE, LEARNERS, SELF_LABEL, HybridConfig, StepRecord, run_stream
from .streams import parse_stream_spec, write_csv

_RUN_KEYS = (
    "stream",
    "format",
    "learner",
    "al",
    "sl",
    "budget",
    "seed",
    "window",
    "stride",
    "series_out",
    "summary_out",
)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_series(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(StepRecord.FIELDS) + "\n")
        for record in records:
            fh.write(",".join(_format_value(v) for v in record.as_tuple()) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_run_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config {path}: not valid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"--config {path}: expected an object of settings")
    for key in raw:
        if key not in _RUN_KEYS:
            raise ConfigError(f"--config {path}: unknown key {key!r}")
    return raw


def cmd_run(args) -> int:
    settings = {key: None for key in _RUN_KEYS}
    if args.config:
        settings.update(_load_run_config(args.config))
    for key in _RUN_KEYS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            settings[key] = flag_value
    if settings["stream"] is None:
        raise ConfigError("--stream is required (path or gen: spec)")

    defaults = {
        "learner": "nb",
        "al": "randvar",
        "sl": "none",
        "budget": 0.1,
        "seed": 0,
        "window": 1000,
        "stride": 100,
    }
    for key, value in defaults.items():
        if settings[key] is None:
            settings[key] = value

    try:
        config = HybridConfig(
            learner=settings["learner"],
            active=settings["al"],
            self_label=settings["sl"],
            budget=float(settings["budget"]),
            seed=int(settings["seed"]),
            window=int(settings["window"]),
        )
    except ConfigError as exc:
        raise ConfigError(f"--learner/--al/--sl/--budget: {exc}")

    spec = parse_stream_spec(settings["stream"], fmt=settings["format"])
    stream = spec.load(seed_fallback=config.seed)
    stride = int(settings["stride"])
    want_series = settings["series_out"] is not None
    records, summary = run_stream(
        stream, config, record_stride=stride if want_series else 0
    )

    resolved = dict(config.to_dict(), stream=spec.describe(), stride=stride)
    if want_series:
        _write_series(settings["series_out"], records)
        _write_json(settings["series_out"] + ".meta.json", {"config": resolved})
    if settings["summary_out"] is not None:
        _write_json(
            settings["summary_out"],
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
    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    streams = tuple(
        parse_stream_spec(text, fmt=args.format) for text in args.streams
    )
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
        raise ConfigError(f"--learners/--al/--sl/--budgets: {exc}")

    result = run_grid(spec, jobs=resolve_jobs(args.jobs))
    text = to_text(result.report)
    print(text, end="")
    if args.table_out is not None:
        with open(args.table_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.records_out is not None:
        with open(args.records_out, "w", encoding="utf-8") as fh:
            for record in to_records(result.report):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def cmd_generate(args) -> int:
    if args.changes is not None:
        try:
            change_points = tuple(int(c) for c in _split(args.changes))
        except ValueError:
            raise ConfigError(f"--changes: not an integer list: {args.changes!r}")
    else:
        change_points = (args.n // 2,)
    try:
        profile = DriftProfile(args.kind, change_points, args.width, args.cycle)
    except DriftLabError as exc:
        raise ConfigError(f"--kind/--changes/--width: {exc}")
    stream = gen_drift_stream(profile, args.family, args.n, seed=args.seed)
    write_csv(args.out, stream, header=True)
    sidecar = {
        "family": args.family,
        "kind": args.kind,
        "n": args.n,
        "change_points": list(change_points),
        "width": args.width,
        "cycle_length": args.cycle,
        "seed": args.seed,
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
    run.add_argument("--stream", help="data file path or gen: spec")
    run.add_argument("--format", choices=("csv", "arff"))
    run.add_argument("--learner", choices=LEARNERS)
    run.add_argument("--al", choices=ACTIVE, help="query strategy")
    run.add_argument("--sl", choices=SELF_LABEL, help="self-label strategy")
    run.add_argument("--budget", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--window", type=int)
    run.add_argument("--stride", type=int, help="series row spacing (default 100)")
    run.add_argument("--series-out", dest="series_out")
    run.add_argument("--summary-out", dest="summary_out")
    run.add_argument("--config", help="JSON settings file; flags override it")
    run.set_defaults(handler=cmd_run)

    compare = sub.add_parser("compare", help="strategy-by-budget sweep")
    compare.add_argument(
        "--streams",
        required=True,
        nargs="+",
        help="one or more sources (paths or gen: specs)",
    )
    compare.add_argument("--format", choices=("csv", "arff"))
    compare.add_argument("--learners", default="nb")
    compare.add_argument("--al", default=",".join(GridSpec.active))
    compare.add_argument("--sl", default=",".join(GridSpec.self_label))
    compare.add_argument("--budgets", default="0.01,0.05,0.10,0.20,0.50")
    compare.add_argument("--seeds", type=int, default=1, help="seed count")
    compare.add_argument("--window", type=int, default=1000)
    compare.add_argument("--jobs", type=int, default=None)
    compare.add_argument("--table-out", dest="table_out")
    compare.add_argument("--records-out", dest="records_out")
    compare.set_defaults(handler=cmd_compare)

    generate = sub.add_parser("generate", help="write a synthetic stream")
    generate.add_argument(
        "--kind",
        required=True,
        choices=("sudden", "gradual", "incremental", "recurring"),
    )
    generate.add_argument("--family", default="gaussian-clusters")
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.add_argument("--changes", help="comma list (default: one at n/2)")
    generate.add_argument("--width", type=int, default=0)
    generate.add_argument("--cycle", type=int, default=2)
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

#!/usr/bin/env python3
"""Benchmark of driftlab's prequential loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload loop-narrow --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory and from
nowhere else. Inputs are generated from ``--seed`` with numpy, written
under ``perfbench/out/`` and handed to the program only through its
public readers and CLI. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, and the full trace goes to ``perfbench/out/``. See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import time

_IMPORTED = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("loop-narrow", "awe-wide", "compare-grid")
LOW, HIGH = 0.05, 0.5
STREAM_N = 20000
GEN_N = 10000
GEN_NAME = "gen-clusters"
GEN_SPEC = f"gen:name={GEN_NAME},family=gaussian-clusters,kind=sudden,n={GEN_N},changes={GEN_N // 2}"
GRID_SEEDS = 2
GRID_LEARNERS = ("nb", "ht")
GRID_ACTIVE = ("random", "sampling", "randvar")
GRID_SELF_LABEL = ("fixed", "uni", "randuni", "invunc", "cddm", "ceddm", "winerr")
GRID_CELLS = 3 * len(GRID_LEARNERS) * 2 * (len(GRID_ACTIVE) + len(GRID_SELF_LABEL))
SAMPLED_CELLS = 3
RUN_CONFIG = ("ht", "randvar", "cddm", LOW)

# (learner, query strategy, self-labeling, budget); the fully supervised
# nb configuration is also what the reference check replays
REFERENCE = ("nb", "random", "none", 1.0)
LOOP_NARROW = [
    (learner, "randvar", sl, budget)
    for learner in ("nb", "ht")
    for sl in ("none", "cddm")
    for budget in (LOW, HIGH)
] + [REFERENCE]
AWE_WIDE = [("awe", "randvar", sl, budget) for sl in ("none", "cddm") for budget in (LOW, HIGH)]

# per-layer figures that only the grid session produces
GRID_LAYERS = (
    "streams.loads",
    "generators.gen_ms",
    "experiments.cell_ms",
    "experiments.cells",
    "experiments.dispatch_share",
    "experiments.speedup",
    "evaluation.report_ms",
    "cli.write_ms",
)


def since_process_start() -> float:
    """Seconds since this process was created (10 ms resolution on Linux)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _IMPORTED


def import_program():
    """Import driftlab from this checkout's ``src`` or exit."""
    sys.path.insert(0, SRC)
    try:
        import driftlab
    except ImportError as exc:
        sys.exit(f"cannot import driftlab from {SRC}: {exc}")
    if not os.path.abspath(driftlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"driftlab was imported from {driftlab.__file__}, not from {SRC}")


def peak_rss_mb(children=False) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Failure(Exception):
    """An output failed a correctness check."""


def require(problem, where=""):
    if problem is not None:
        raise Failure(f"{where}{problem}")


def make_inputs(workdir, seed, names):
    paths = {}
    if "narrow" in names:
        paths["narrow"] = os.path.join(workdir, "narrow.csv")
        inputs.write_narrow_csv(paths["narrow"], STREAM_N, seed)
    if "wide" in names:
        paths["wide"] = os.path.join(workdir, "wide.arff")
        inputs.write_wide_arff(paths["wide"], STREAM_N, seed, "wide")
    return paths


def reader_for(path):
    from driftlab import streams

    return streams.read_arff if path.endswith(".arff") else streams.read_csv


def overhead(untraced_rate, traced_rate):
    return {
        "trace.instances_per_s": traced_rate,
        "trace.overhead": 1.0 - traced_rate / untraced_rate,
    }


# ---------------------------------------------------------------- loop


def run_round(stream, runners):
    """Push the stream through every runner; returns each run's wall time,
    its actions (None for a run that raised) and its summary."""
    times, actions = [], []
    for runner in runners:
        acts = []
        push = acts.append
        step = runner.process_instance
        start = time.perf_counter()
        try:
            for instance in stream.instances:
                push(step(instance, False))
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            acts = None
        times.append(time.perf_counter() - start)
        actions.append(acts)
    summaries = [
        None if acts is None else runner.summary(stream.name).to_dict()
        for runner, acts in zip(runners, actions)
    ]
    return times, actions, summaries


def check_loop(stream, configs, actions, summaries):
    from driftlab import run_stream

    for config, acts, summary in zip(configs, actions, summaries):
        if acts is None:
            continue
        where = f"{config.learner}/{config.active}/{config.self_label}@{config.budget}: "
        require(checks.budget_prefix_error(acts, config.budget), where)
        require(checks.conservation_error(acts, summary, config.self_label), where)
        direct = run_stream(stream, config)[1].to_dict()
        if direct != summary:
            raise Failure(f"{where}run_stream gives {direct}, the timed loop {summary}")


def check_reference(stream, seed):
    """Fully supervised nb: the program and the reference agree per step."""
    from driftlab import HybridConfig, build_runner
    from driftlab.hybrid import QUERIED

    runner = build_runner(stream.schema, HybridConfig(*REFERENCE, seed))
    predicted = []
    for instance in stream.instances:
        record = runner.process_instance(instance)
        if record.action != QUERIED:
            raise Failure(f"step {record.index} of the supervised run was not queried")
        predicted.append(record.predicted)
    cards = [a.cardinality for a in stream.schema.attributes]
    reference = checks.reference_predictions(cards, stream.schema.class_count, stream.instances)
    require(checks.reference_error(predicted, reference), f"{stream.name}: ")


def traced_loop_round(tracer, stream, configs):
    from driftlab import build_runner
    from driftlab.learners import AccuracyWeightedEnsemble, HoeffdingTree, NaiveBayes

    runners = [tracing.instrument_runner(tracer, build_runner(stream.schema, c)) for c in configs]
    scores = tracing.outermost_scores(tracer, (NaiveBayes, HoeffdingTree, AccuracyWeightedEnsemble))
    with tracing.patched(scores):
        result = run_round(stream, runners)
    for runner in runners:
        tracing.learner_gauges(tracer, runner)
    return result


def loop_workload(args, table, stream_kind, tracer):
    from driftlab import HybridConfig, build_runner

    t = time.perf_counter()
    path = make_inputs(args.workdir, args.seed, [stream_kind])[stream_kind]
    generation = time.perf_counter() - t

    read = reader_for(path)
    if tracer is not None:
        read = tracer.wrap("streams.read", read)
    stream = read(path)
    configs = [HybridConfig(*row, args.seed) for row in table]
    runners = [build_runner(stream.schema, c) for c in configs]
    setup_s = since_process_start() - generation

    rounds = []
    start = time.perf_counter()
    while True:
        times, actions, summaries = run_round(stream, runners)
        # the first round's actions are checked; later rounds must
        # reproduce its summaries, and keeping their actions would let
        # the peak resident set grow with the number of rounds
        rounds.append((times, actions if not rounds else None, summaries))
        if tracer is not None or time.perf_counter() - start >= args.seconds:
            break
        runners = [build_runner(stream.schema, c) for c in configs]
    rss = peak_rss_mb()
    if tracer is not None:
        rounds.append(traced_loop_round(tracer, stream, configs))

    correct = True
    try:
        _, first_actions, first_summaries = rounds[0]
        if any(summaries != first_summaries for _, _, summaries in rounds[1:]):
            raise Failure("a repeated round gave different run summaries")
        check_loop(stream, configs, first_actions, first_summaries)
        check_reference(stream, args.seed)
        if tracer is not None and tracer.errors:
            raise Failure(tracer.errors[0])
    except Failure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    attempted = len(configs) * len(rounds)
    failed = sum(s is None for _, _, summaries in rounds for s in summaries)
    instances = len(stream) * len(configs)
    if tracer is not None:
        layers = tracing.metrics(tracer)
        layers.update(dict.fromkeys(GRID_LAYERS, 0.0))
        layers["streams.read_ms"] = tracer.mean_us("streams.read") / 1e3
        untraced, traced = (instances / sum(times) for times, _, _ in rounds)
        layers.update(overhead(untraced, traced))
        return correct, attempted, failed, layers
    # each run's median over the rounds shrugs off bursts of noise from
    # other tenants of the machine better than a median of round totals
    median_round = sum(statistics.median(run) for run in zip(*(times for times, _, _ in rounds)))
    ok = [s for s in first_summaries if s is not None]
    return correct, attempted, failed, {
        "instances_per_s": instances / median_round,
        "setup_s": setup_s,
        "accuracy": sum(s["accuracy"] for s in ok) / len(ok),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------- grid


def grid_jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def grid_instances() -> int:
    """Instances one session pushes through ``process_instance``."""
    runs_per_stream = GRID_CELLS // 3 * GRID_SEEDS
    return runs_per_stream * (2 * STREAM_N + GEN_N) + STREAM_N


def cli_session(paths, outdir, seed, jobs, compare_patches=(), run_patches=()):
    """One ``driftlab compare`` then one ``driftlab run``, in-process as
    the console script runs them; returns the wall time and the outputs."""
    from driftlab import cli, experiments

    # a fresh CLI process starts with an empty stream cache
    getattr(experiments, "_stream_cache", {}).clear()
    out = {name: os.path.join(outdir, name) for name in ("table.txt", "cells.jsonl", "series.csv", "summary.json")}
    compare = [
        "compare", "--streams", paths["narrow"], paths["wide"], GEN_SPEC,
        "--learners", ",".join(GRID_LEARNERS),
        "--al", ",".join(GRID_ACTIVE),
        "--sl", ",".join(GRID_SELF_LABEL),
        "--budgets", f"{LOW},{HIGH}",
        "--seeds", str(GRID_SEEDS),
        "--jobs", str(jobs),
        "--table-out", out["table.txt"],
        "--records-out", out["cells.jsonl"],
    ]
    learner, active, self_label, budget = RUN_CONFIG
    run = [
        "run", "--stream", paths["narrow"],
        "--learner", learner, "--al", active, "--sl", self_label,
        "--budget", str(budget), "--seed", str(seed), "--stride", "1",
        "--series-out", out["series.csv"],
        "--summary-out", out["summary.json"],
    ]
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        with tracing.patched(compare_patches):
            codes = [cli.main(compare)]
        with tracing.patched(run_patches):
            codes.append(cli.main(run))
    wall = time.perf_counter() - start
    if codes != [0, 0]:
        raise RuntimeError(f"driftlab exited with {codes}")
    outputs = {"stdout": printed.getvalue()}
    for name, path in out.items():
        with open(path, encoding="utf-8") as fh:
            outputs[name] = fh.read()
    return wall, outputs


def check_grid(outputs, streams_by_name, seed):
    """Returns (cells attempted, cells failed, mean cell accuracy)."""
    from driftlab import HybridConfig, run_stream

    records = [json.loads(line) for line in outputs["cells.jsonl"].splitlines()]
    cells = [r for r in records if r["kind"] == "cell"]
    failures = [r for r in records if r["kind"] == "failure"]
    table = outputs["table.txt"]
    if not outputs["stdout"].startswith(table):
        raise Failure("compare printed another table than it wrote")
    if not cells or len(cells) + len(failures) != GRID_CELLS:
        raise Failure(f"{len(cells) + len(failures)} cells reported, {GRID_CELLS} expected")
    require(checks.grid_flags_error(records))
    require(checks.table_error(table, records))
    lengths = {name: len(s) for name, s in streams_by_name.items()}
    lengths[GEN_NAME] = GEN_N
    require(checks.cell_spend_error(records, lengths))

    on_files = [r for r in cells if r["stream"] in streams_by_name]
    for r in random.Random(seed).sample(on_files, SAMPLED_CELLS):
        active, _, self_label = r["strategy"].partition("+")
        accuracies = [
            run_stream(
                streams_by_name[r["stream"]],
                HybridConfig(r["learner"], active, self_label or "none", r["budget"], s),
            )[1].accuracy
            for s in range(GRID_SEEDS)
        ]
        require(checks.cell_accuracy_error(r, accuracies))

    written = json.loads(outputs["summary.json"])
    summary, config = written["summary"], written["config"]
    lines = outputs["series.csv"].splitlines()
    column = lines[0].split(",").index("action")
    actions = [line.split(",")[column] for line in lines[1:]]
    require(checks.budget_prefix_error(actions, config["budget"]), "driftlab run series: ")
    require(checks.conservation_error(actions, summary, config["self_label"]), "driftlab run series: ")
    direct = run_stream(
        streams_by_name["narrow"],
        HybridConfig(config["learner"], config["active"], config["self_label"], config["budget"], config["seed"]),
    )[1].to_dict()
    if direct != summary:
        raise Failure(f"driftlab run wrote {summary}, a direct run gives {direct}")
    return len(cells) + len(failures), len(failures), sum(r["accuracy"] for r in cells) / len(cells)


def traced_session(tracer, paths, outdir, seed):
    """A serial session with every layer of the grid timed, and the
    runner of the closing ``driftlab run`` instrumented step by step."""
    from driftlab import cli, experiments, hybrid, streams
    from driftlab.learners import AccuracyWeightedEnsemble, HoeffdingTree, NaiveBayes

    wrap = tracer.wrap
    files = [
        (streams, "read_csv", wrap("streams.read", streams.read_csv)),
        (streams, "read_arff", wrap("streams.read", streams.read_arff)),
        (cli, "open", tracing.timed_open(tracer, "cli.write")),
    ]
    grid = files + [
        (cli, "run_grid", wrap("experiments.grid", cli.run_grid)),
        (experiments, "run_stream", wrap("experiments.cell", experiments.run_stream)),
        (streams.StreamSpec, "load", wrap("streams.load", streams.StreamSpec.load)),
        (streams, "gen_drift_stream", wrap("generators.gen", streams.gen_drift_stream)),
        (experiments, "build_report", wrap("evaluation.report", experiments.build_report)),
        (cli, "to_text", wrap("evaluation.report", cli.to_text)),
        (cli, "to_records", wrap("evaluation.report", cli.to_records)),
    ]
    build = hybrid.build_runner
    built = []

    def build_runner(schema, config):
        built.append(tracing.instrument_runner(tracer, build(schema, config)))
        return built[-1]

    run = files + [(hybrid, "build_runner", build_runner)]
    run += tracing.outermost_scores(tracer, (NaiveBayes, HoeffdingTree, AccuracyWeightedEnsemble))
    result = cli_session(paths, outdir, seed, 1, grid, run)
    for runner in built:
        tracing.learner_gauges(tracer, runner)
    return result


def grid_workload(args, tracer):
    from driftlab import cli

    t = time.perf_counter()
    paths = make_inputs(args.workdir, args.seed, ["narrow", "wide"])
    generation = time.perf_counter() - t
    streams_by_name = {name: reader_for(path)(path) for name, path in paths.items()}
    setup_s = since_process_start() - generation

    jobs = grid_jobs()
    walls, first, repeats_differ = [], None, False
    start = time.perf_counter()
    while True:
        patches = ()
        if tracer is not None:
            patches = [(cli, "run_grid", tracer.wrap("experiments.parallel_grid", cli.run_grid))]
        wall, outputs = cli_session(paths, args.workdir, args.seed, jobs, patches)
        walls.append(wall)
        # compare and drop each repeat, so the peak resident set does not
        # grow with the number of sessions
        first = first or outputs
        repeats_differ |= outputs != first
        if tracer is not None or time.perf_counter() - start >= args.seconds:
            break
    rss = peak_rss_mb(children=True)
    if tracer is not None:
        serial = cli_session(paths, args.workdir, args.seed, 1)
        traced = traced_session(tracer, paths, args.workdir, args.seed)
        for wall, outputs in (serial, traced):
            walls.append(wall)
            repeats_differ |= outputs != first

    correct = True
    cells, failed, accuracy = GRID_CELLS, 0, 0.0
    try:
        if repeats_differ:
            raise Failure("a repeated session wrote different files")
        cells, failed, accuracy = check_grid(first, streams_by_name, args.seed)
        if tracer is not None and tracer.errors:
            raise Failure(tracer.errors[0])
    except Failure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    attempted, failed = cells * len(walls), failed * len(walls)
    rates = [grid_instances() / wall for wall in walls]
    if tracer is None:
        return correct, attempted, failed, {
            "instances_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "accuracy": accuracy,
            "peak_rss_mb": rss,
        }

    ns = tracer.total_ns
    in_cells = ns["experiments.cell"] + ns["streams.load"]
    layers = tracing.metrics(tracer)
    layers.update(
        {
            "streams.read_ms": tracer.mean_us("streams.read") / 1e3,
            "streams.loads": tracer.calls["streams.load"],
            "generators.gen_ms": tracer.mean_us("generators.gen") / 1e3,
            "experiments.cell_ms": tracer.mean_us("experiments.cell") / 1e3,
            "experiments.cells": tracer.calls["experiments.cell"],
            "experiments.dispatch_share": 1.0 - in_cells / ns["experiments.grid"],
            "experiments.speedup": ns["experiments.cell"] / ns["experiments.parallel_grid"],
            "evaluation.report_ms": ns["evaluation.report"] / 1e6,
            "cli.write_ms": tracer.mean_us("cli.write") / 1e3,
        }
    )
    # the serial untraced session against the serial traced one
    layers.update(overhead(rates[1], rates[2]))
    return correct, attempted, failed, layers


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_program()
    global checks, inputs, tracing
    import checks
    import inputs
    import tracing

    # the worker count is part of the workload, not of the environment
    os.environ.pop("DRIFTLAB_JOBS", None)
    os.makedirs(OUT, exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if args.workload == "compare-grid":
            correct, attempted, failed, metrics = grid_workload(args, tracer)
        else:
            table, stream = (LOOP_NARROW, "narrow") if args.workload == "loop-narrow" else (AWE_WIDE, "wide")
            correct, attempted, failed, metrics = loop_workload(args, table, stream, tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    if tracer is not None:
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics, **tracer.to_dict()}, fh, indent=1)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

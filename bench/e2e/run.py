#!/usr/bin/env python3
"""End-to-end benchmark runner (stdlib only; see README.md).

Builds bench/e2e (which compiles ../../src in Release) into
.bench_build/e2e, then runs each workload of vod_e2e in its own process,
taking the child's peak RSS from os.wait4. Prints every metric by name, unit
and value, then one JSON result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, built from a traced rep's Chrome trace and vod_e2e's
exact counters. Exits non-zero when a check failed.

    python3 bench/e2e/run.py --workload paper_grid --seed 1 --seconds 5 --trace 0
    python3 bench/e2e/run.py --out .bench_build/results/head-1.json  # all
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
UNITS = {metric["name"]: metric["unit"]
         for section in ("end_to_end", "per_layer")
         for metric in BENCHMARK[section]}
# A run must end within 180 s; leave headroom for start-up and reporting.
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        with open(log_path, "w") as log:
            code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode
        if code != 0:
            print("\n".join(log_path.read_text().splitlines()[-20:]),
                  file=sys.stderr)
            if "-S" in step:  # configure again next time
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"build step failed: {' '.join(step)} (log: {log_path})")
    return BUILD_DIR / "vod_e2e"


def run_child(binary, workload, args):
    """Runs one workload in its own process; returns (document, rusage)."""
    work_dir = binary.parent / "work"
    trace_dir = binary.parent / "traces"
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--scale={args.scale}",
               f"--workdir={work_dir}"]
    if args.trace:
        command.append(f"--trace={trace_dir}")
    if args.inject_failure:
        command.append("--inject_failure")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        document = json.loads(out)
    except json.JSONDecodeError:
        fail(f"{workload}: vod_e2e exited {proc.returncode} without a result")
    if args.trace:
        document["trace_file"] = str(trace_dir / f"{workload}.trace.json")
    return document, rusage


def end_to_end(doc, rusage):
    wall = statistics.median(doc["wall_s"])
    return {
        "wall_s": wall,
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        "work_per_s": doc["work"] / wall,
    }


def load_spans(path):
    """Complete ('X') events of a Chrome trace, times in seconds."""
    with open(path) as f:
        events = json.load(f)
    spans = []
    for e in events:
        if e.get("ph") == "X":
            spans.append({"name": e["name"], "layer": e["name"].split(" ")[0],
                          "tid": e["tid"], "start": e["ts"] * 1e-6,
                          "dur": e["dur"] * 1e-6})
    return spans


def add_self_times(spans):
    """Self time = a span's duration minus the child spans it covers. Spans
    of one lane nest (they come from scoped timers) or abut; the trace's
    nanosecond rounding is tolerated."""
    tolerance = 1e-8
    by_lane = defaultdict(list)
    for span in spans:
        span["self"] = span["dur"]
        span["end"] = span["start"] + span["dur"]
        by_lane[span["tid"]].append(span)
    for lane in by_lane.values():
        lane.sort(key=lambda s: (s["start"], -s["dur"]))
        stack = []
        for span in lane:
            while stack and stack[-1]["end"] <= span["start"] + tolerance:
                stack.pop()
            if stack and span["end"] <= stack[-1]["end"] + tolerance:
                stack[-1]["self"] -= span["dur"]
            stack.append(span)


def ratio(numerator, denominator):
    return numerator / denominator if denominator > 0 else 0.0


def per_layer(doc, spans):
    """Per-layer metrics: counts, busy times, fractions and rates. No metric is
    a time per call, so a layer a workload bypasses reads a true 0 rather
    than a fabricated per-call time."""
    c = defaultdict(float, doc["counters"])
    calls = defaultdict(int)
    busy = defaultdict(float)
    for span in spans:
        calls[span["layer"]] += 1
        busy[span["layer"]] += span["dur"]

    cells = sorted(s["dur"] for s in spans if s["layer"] == "cell")
    grid_wall = busy["RunExperimentGrid"]
    work_lanes = defaultdict(list)
    for span in spans:
        if span["layer"] == "shard_work":
            work_lanes[span["tid"]].append(span)
    windows = zip(*(sorted(lane, key=lambda s: s["start"])
                    for lane in work_lanes.values()))
    imbalance = [max(s["dur"] for s in w) / statistics.mean(s["dur"] for s in w)
                 for w in windows if statistics.mean(s["dur"] for s in w) > 0]
    sharded_wall = busy["RunShardedServerSimulation"]
    roots = [s for s in spans if s["layer"] in ("rep", "cell")]

    return {
        "exp.grid.cells": c["grid_cells"],
        "exp.grid.cells_per_s": ratio(calls["cell"], grid_wall),
        "exp.grid.straggler_ratio":
            ratio(cells[-1], statistics.median(cells)) if cells else 0.0,
        "exp.grid.idle_frac":
            1.0 - ratio(sum(cells), doc["threads"] * grid_wall) if cells else 0.0,
        "sim.simulator.events": c["sim_events"],
        "sim.simulator.viewers": c["sim_viewers"],
        "sim.simulator.hit_frac": c["sim_hit_frac"],
        "sim.simulator.events_per_s": ratio(c["sim_events"], busy["RunSimulation"]),
        "core.model_gap": c["model_gap"],
        "core.hit_model.calls": calls["AnalyticHitModel"],
        "core.hit_model.calls_per_s":
            ratio(calls["AnalyticHitModel"], busy["AnalyticHitModel"]),
        "core.compile_duration.calls_per_s": ratio(
            calls["CompiledDuration::Create"], busy["CompiledDuration::Create"]),
        "core.sizing.choices": calls["MinimumBufferChoice"],
        "core.sizing.choices_per_s":
            ratio(calls["MinimumBufferChoice"], busy["MinimumBufferChoice"]),
        "core.sizing.curve_points": c["curve_points"],
        "core.sizing.points_per_s":
            ratio(c["curve_points"], busy["ComputeSizingCurve"]),
        "core.sizing.feasible_frac": ratio(c["feasible_points"], c["curve_points"]),
        "core.size_system.calls_per_s":
            ratio(calls["SizeSystem"], busy["SizeSystem"]),
        "core.cost.curves_per_s":
            ratio(calls["ComputeCostCurve"], busy["ComputeCostCurve"]),
        "dist.gamma.samples_per_s":
            ratio(c["probe_gamma_samples"], busy["probe.gamma_sample"]),
        "sim.event_queue.holds_per_s":
            ratio(c["probe_holds"], busy["probe.event_queue_hold"]),
        "sim.sharded.events": c["sharded_events"],
        "sim.sharded.viewers": c["sharded_viewers"],
        "sim.sharded.windows": c["windows"],
        "sim.sharded.messages": c["messages"],
        "sim.shard.events_per_s": ratio(c["sharded_events"], busy["shard_work"]),
        "sim.shard.work_s": busy["shard_work"],
        "sim.shard.barrier_wait_s": busy["barrier_wait"],
        "sim.shard.work_frac":
            ratio(busy["shard_work"], doc["threads"] * sharded_wall),
        "sim.shard.wait_frac":
            ratio(busy["barrier_wait"], busy["shard_work"] + busy["barrier_wait"]),
        "sim.shard.imbalance": statistics.mean(imbalance) if imbalance else 0.0,
        "sim.reserve.grant_frac": ratio(
            c["reserve_granted"], c["reserve_granted"] + c["reserve_refused"]),
        "sim.coordinator.fold_s": busy["coordinator_fold"],
        "sim.coordinator.fold_frac": ratio(busy["coordinator_fold"], sharded_wall),
        "ctrl.plans_solved": c["plans_solved"],
        "ctrl.migrations_committed": c["migrations_committed"],
        "ctrl.admission_sheds": c["admission_sheds"],
        "sim.ladder.transitions": c["ladder_transitions"],
        "sim.vcr.queued": c["vcr_queued"],
        "sim.vcr.blocked": c["vcr_blocked"],
        "trace.overhead_frac":
            ratio(doc["traced_wall_s"], statistics.median(doc["wall_s"])) - 1.0,
        "trace.span_coverage": 1.0 - ratio(sum(s["self"] for s in roots),
                                           sum(s["dur"] for s in roots)),
    }


def layer_table(spans, rep_wall):
    """Human-readable per-layer busy and self time of the traced run."""
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span["layer"]]
        row[0] += 1
        row[1] += span["dur"]
        row[2] += span["self"]
    lines = [f"  {'span':32s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s} "
             f"{'self/rep':>9s}"]
    for layer, (n, total, own) in sorted(rows.items(), key=lambda r: -r[1][2]):
        lines.append(f"  {layer:32s} {n:7d} {total:10.4f} {own:10.4f} "
                     f"{ratio(own, rep_wall):9.3f}")
    return "\n".join(lines)


def git(*args):
    try:
        result = subprocess.run(["git", "-C", str(ROOT), *args],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def provenance(doc, args):
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "compiler": doc["compiler"],
        "build_type": doc["build_type"],
        "nproc": os.cpu_count(),
        "threads": doc["threads"],
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def run_workload(binary, workload, args):
    doc, rusage = run_child(binary, workload, args)
    result = {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
              "failed": doc["failed"], "failures": doc["failures"],
              "reps": len(doc["wall_s"]), "digest": doc["digest"],
              "e2e": end_to_end(doc, rusage)}
    print(f"== {workload}: {result['reps']} reps, digest {doc['digest']}, "
          f"{doc['failed']}/{doc['attempted']} checks failed")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")
    for name, value in result["e2e"].items():
        print(f"  {name:36s} {value:16.6g} {UNITS[name]}")
    if args.trace:
        spans = load_spans(doc["trace_file"])
        add_self_times(spans)
        result["layers"] = per_layer(doc, spans)
        for name, value in result["layers"].items():
            print(f"  {name:36s} {value:16.6g} {UNITS[name]}")
        print(f"  traced run ({doc['trace_file']}):")
        print(layer_table(spans, doc["traced_wall_s"]))
    return doc, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="rep time to measure per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="1 = report per-layer metrics from a traced rep "
                             "(default: 1 for --workload all, else 0)")
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    parser.add_argument("--binary", type=Path,
                        help="use this vod_e2e instead of building one")
    parser.add_argument("--out", type=Path,
                        help="write the result document (input of compare.py)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="force one failing check (tests the exit code)")
    args = parser.parse_args()
    if args.trace is None:
        args.trace = 1 if args.workload == "all" else 0

    binary = args.binary.resolve() if args.binary else build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    doc = None
    for workload in workloads:
        doc, results[workload] = run_workload(binary, workload, args)

    document = {"provenance": provenance(doc, args), "workloads": results}
    print("provenance: " + json.dumps(document["provenance"]))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.out}")

    key = "layers" if args.trace else "e2e"
    metrics = {}
    for workload, result in results.items():
        for name, value in result[key].items():
            label = name if len(results) == 1 else f"{workload}.{name}"
            metrics[label] = {"value": value, "unit": UNITS[name]}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

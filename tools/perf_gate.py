#!/usr/bin/env python3
"""Interleaved A/B perf gate: a change's Release build against its parent's.

Runs every gated google-benchmark row (GATED below) from both build trees,
alternately: PAIRS pairs, the side that runs first flipping each pair.
Inside a pair each gated binary runs on both sides back to back, each run
in its own process, before the next binary starts, so host drift between
binaries lands on both sides of the pair. Peak RSS is the largest
ru_maxrss os.wait4 reports for a side's processes in one pair.

A row is compared on the first metric both sides export, in METRICS order,
through its per-pair ratios (change / parent). It fails only when both:

  * the median pair ratio exceeds the row's tier: KERNEL_TIER for the
    KERNEL_PREFIXES rows, OTHER_TIER for every other row and for peak RSS;
  * the change was slower in at least MIN_SLOWER of the pairs.

Host drift that slows both halves of a pair cancels in its ratio. Drift
that slows one half can still raise a row's median ratio, or make it lose
most pairs, but rarely both at once: the pair count backs the tier. A row
present on only one side is reported, never fatal, so adding or renaming
a bench cannot fail the gate.
A tree whose CMakeCache.txt says anything but Release is refused.

Writes one JSON document: per row, both sides' medians and quartiles (and
the exact `events` count of rows that export one, so a change in work shows
next to a change in time), the per-pair ratios, the pair counts and the
verdict, plus a provenance stamp with both trees' build type, compiler and
git SHA, nproc and the load average. --history LABEL appends the change's line to
BENCH_history.jsonl at the repo root. Exits 1 when any row fails.

Stdlib only. Usage:

    tools/perf_gate.py PARENT_BUILD CHANGE_BUILD --out gate.json \
        [--history LABEL]
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile

# (binary under the build tree, --benchmark_filter): the gated rows.
GATED = (
    ("bench/perf_simulator", "BM_SimulationRun|BM_EventQueueScheduleRun"),
    ("bench/perf_event_queue",
     "BM_HoldModel|BM_PopOnly|BM_ScheduleOnly|BM_ScheduleCancelMix|"
     "BM_CancelBurstThenDrain"),
    ("bench/perf_sharded", "BM_ShardedRun"),
    ("bench/perf_planner", "BM_SolvePlan"),
)
# Single hot loops with low variance, whose regressions are the point of
# gating: held to the tight tier. Some GATED filter selects each of them
# (perf_gate_test.py checks it).
KERNEL_PREFIXES = (
    "BM_SimulationRun",
    "BM_ShardedRun",
    "BM_EventQueueScheduleRun",
    "BM_HoldModel",
    "BM_PopOnly",
    "BM_ScheduleOnly",
    "BM_ScheduleCancelMix",
    "BM_CancelBurstThenDrain",
)
KERNEL_TIER = 1.3
OTHER_TIER = 2.0
PAIRS = 8
MIN_SLOWER = 7
# Preferred metric per row, first exported by both sides wins; lower is
# better for all of them. peak_rss_kb is the RSS row's only metric.
METRICS = ("ns_per_event", "ns_per_item", "real_time_ns", "peak_rss_kb")
HISTORY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_history.jsonl")


def tier(name):
    return KERNEL_TIER if name.startswith(KERNEL_PREFIXES) else OTHER_TIER


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def judge(name, parent, change):
    """Verdict for one row from its per-pair metric dicts on each side.

    `parent` and `change` list one dict per pair (empty when the side does
    not run the row); pair i is (parent[i], change[i]).
    """
    if not parent or not change:
        return {"verdict": "change only" if change else "parent only"}
    metric = next((m for m in METRICS if m in parent[0] and m in change[0]),
                  None)
    if metric is None:
        return {"verdict": "no common metric"}
    p = [run[metric] for run in parent]
    c = [run[metric] for run in change]
    ratios = [b / a for a, b in zip(p, c)]
    ratio = statistics.median(ratios)
    slower = sum(b > a for a, b in zip(p, c))
    limit = tier(name)
    row = {"metric": metric, "tier": limit, "pairs": len(p),
           "slower_pairs": slower, "median_ratio": ratio,
           "pair_ratios": ratios,
           "parent": summary(p), "change": summary(c),
           "verdict": "FAIL" if ratio > limit and slower >= MIN_SLOWER
           else "ok"}
    for side, runs in (("parent", parent), ("change", change)):
        if "events" in runs[0]:
            row[side]["events"] = runs[0]["events"]
    return row


def compare(parent_runs, change_runs):
    """Judges every row of two sides' per-pair {row: metrics} dicts.

    Returns ({row: verdict dict}, whether any row failed).
    """
    names = sorted({n for run in parent_runs + change_runs for n in run})
    rows = {n: judge(n, [r[n] for r in parent_runs if n in r],
                     [r[n] for r in change_runs if n in r]) for n in names}
    return rows, any(r["verdict"] == "FAIL" for r in rows.values())


def row_metrics(bench):
    """The comparable metrics of one google-benchmark JSON row."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[bench["time_unit"]]
    metrics = {"real_time_ns": bench["real_time"] * scale}
    if bench.get("items_per_second", 0) > 0:
        metrics["ns_per_item"] = 1e9 / bench["items_per_second"]
    if bench.get("events_per_second", 0) > 0:
        metrics["ns_per_event"] = 1e9 / bench["events_per_second"]
    if "events" in bench:
        metrics["events"] = int(bench["events"])
    return metrics


def run_binary(tree, binary, benchmark_filter):
    """Runs one gated binary in its own process.

    Returns ({row: metrics}, the process's peak RSS in KiB).
    """
    path = os.path.join(tree, binary)
    with tempfile.TemporaryDirectory() as tmp:
        out, log = os.path.join(tmp, "out.json"), os.path.join(tmp, "log")
        argv = [path, "--benchmark_filter=" + benchmark_filter,
                "--benchmark_out=" + out, "--benchmark_out_format=json"]
        pid = os.posix_spawn(path, argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT,
             0o600), (os.POSIX_SPAWN_DUP2, 1, 2)])
        _, status, usage = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            with open(log) as f:
                sys.stderr.write(f.read())
            raise SystemExit(f"{' '.join(argv)} exited "
                             f"{os.waitstatus_to_exitcode(status)}")
        with open(out) as f:
            report = json.load(f)
    return ({bench["name"]: row_metrics(bench)
             for bench in report["benchmarks"]}, usage.ru_maxrss)


def run_pairs(trees, runner=run_binary):
    """PAIRS pairs of both sides; the side that runs first flips each pair.

    Inside a pair each gated binary runs on both sides back to back.
    Returns {side: one {row: metrics} per pair}, each holding the side's
    peak RSS over the pair as the row peak_rss_kb.
    """
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: {} for side in order}
        peak_kb = {side: 0 for side in order}
        for binary, benchmark_filter in GATED:
            for side in order:
                rows, kb = runner(trees[side], binary, benchmark_filter)
                pair[side].update(rows)
                peak_kb[side] = max(peak_kb[side], kb)
        for side in order:
            pair[side]["peak_rss_kb"] = {"peak_rss_kb": peak_kb[side]}
            runs[side].append(pair[side])
        print(f"pair {i + 1}/{PAIRS} done ({order[0]} first)", flush=True)
    return runs


def provenance(tree):
    """Build type, compiler and source revision of one build tree."""
    cache = {}
    with open(os.path.join(tree, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep:
                cache[key.split(":")[0]] = value
    stamp = {"tree": os.path.abspath(tree),
             "build_type": cache.get("CMAKE_BUILD_TYPE") or "unknown",
             "compiler": cache.get("CMAKE_CXX_COMPILER", "unknown")}
    if stamp["build_type"] != "Release":
        raise SystemExit(f"{tree}: built as {stamp['build_type']}, not "
                         "Release; a non-Release tree waves regressions "
                         "through")
    source = os.path.realpath(cache.get("CMAKE_HOME_DIRECTORY", tree))
    git = ["git", "-C", source]
    stamp["git_sha"] = "unknown"
    try:
        top, sha = subprocess.run(
            git + ["rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        # A `git archive` extract has no repository of its own; one that
        # sits inside another checkout must not borrow that checkout's SHA.
        if os.path.realpath(top) == source:
            stamp["git_sha"] = sha
            stamp["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True,
                text=True, check=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        pass
    return stamp


def print_rows(rows):
    width = max(len(n) for n in rows)
    print(f"{'row':<{width}}  {'metric':>12}  {'parent':>11}  {'change':>11}"
          f"  {'ratio':>6}  slower  verdict")
    for name, row in rows.items():
        if "metric" not in row:
            print(f"{name:<{width}}  ({row['verdict']}: not compared)")
            continue
        events = ""
        if "events" in row["parent"] or "events" in row["change"]:
            events = (f"  events {row['parent'].get('events', '-')} -> "
                      f"{row['change'].get('events', '-')}")
        print(f"{name:<{width}}  {row['metric']:>12}  "
              f"{row['parent']['median']:11.1f}  "
              f"{row['change']['median']:11.1f}  {row['median_ratio']:6.2f}"
              f"  {row['slower_pairs']:>3}/{row['pairs']:<2}  "
              f"{row['verdict']}{events}")


def main():
    parser = argparse.ArgumentParser(
        description="Gate a change's Release build against its parent's "
                    "with interleaved benchmark pairs.")
    parser.add_argument("parent", help="parent Release build tree")
    parser.add_argument("change", help="change Release build tree")
    parser.add_argument("--out", required=True, help="JSON document to write")
    parser.add_argument("--history", metavar="LABEL",
                        help="append the change's line, labelled LABEL, to "
                             "BENCH_history.jsonl")
    args = parser.parse_args()

    trees = {"parent": args.parent, "change": args.change}
    stamp = {side: provenance(tree) for side, tree in trees.items()}
    stamp.update(date=datetime.datetime.now(datetime.timezone.utc)
                 .isoformat(timespec="seconds"),
                 nproc=os.cpu_count(), loadavg_start=os.getloadavg(),
                 pairs=PAIRS, min_slower=MIN_SLOWER)
    runs = run_pairs(trees)
    stamp["loadavg_end"] = os.getloadavg()

    rows, failed = compare(runs["parent"], runs["change"])
    with open(args.out, "w") as f:
        json.dump({"provenance": stamp, "rows": rows}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    print_rows(rows)

    if args.history:
        line = {"label": args.history, "date": stamp["date"],
                "git_sha": stamp["change"]["git_sha"],
                "build_type": stamp["change"]["build_type"],
                "compiler": stamp["change"]["compiler"],
                "nproc": stamp["nproc"], "loadavg": stamp["loadavg_start"],
                "benchmarks": {
                    name: {row["metric"]: row["change"]["median"],
                           "ratio": row["median_ratio"]}
                    for name, row in rows.items() if "metric" in row}}
        with open(HISTORY, "a") as f:
            json.dump(line, f, sort_keys=True)
            f.write("\n")
        print(f"appended '{args.history}' to {HISTORY}")

    for name, row in rows.items():
        if row["verdict"] == "FAIL":
            print(f"REGRESSION: {name} {row['metric']} is "
                  f"{row['median_ratio']:.2f}x the parent (tier "
                  f"{row['tier']:.1f}x), slower in {row['slower_pairs']}/"
                  f"{row['pairs']} pairs", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

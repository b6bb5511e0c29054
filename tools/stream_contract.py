#!/usr/bin/env python3
"""Stream-equivalence contract: did a change move the random stream but no
distribution?

Byte identity cannot tell a change that draws the same variates in another
order (or by another method) from a bug. This tool compares what the Fig 7
cells of the paper grid report, across seeds, between two vodctl builds:

  * the number of resumes and each resume-outcome share (within, jump,
    end and miss over all resumes), as `vodctl simulate` prints them, from
    a --measure=MEASURE run per (cell, seed);
  * the mean VCR duration of each operation, from the `vcr_begin` records
    of a shorter traced run per (cell, seed) (--trace_categories=vcr_begin:
    the records FitBehaviorFromTrace fits, whose empirical mean this is).

The cells are the paper grid's: mixes ff, rw, pau and mixed, w in
{0.5, 1, 2} and n = 10, 30, ... while n * w < 120 (84 cells); --grid=quick
keeps w = 1 and n in {10, 50, 90} (12 cells). Side A runs seeds 1..K and
side B seeds K+1..2K, K = SEEDS = 4, so the two sides are independent even
for one build.

Rule. Each quantity of each cell is one two-sample comparison of the K
per-seed values of side B against side A: a pooled-variance Student t test
(df = 2K - 2; under "no distribution changed" both sides are draws from one
distribution, so the variances are equal). A quantity fails when its
two-sided p-value is below ALPHA / M, M being the number of compared
quantities (Bonferroni). The printed interval is the difference of means
with that same family-wise level. By Bonferroni's inequality a change that
moved no distribution fails with probability at most ALPHA = 1%, whatever
the dependence between quantities (the shares of one cell sum to 1).
A quantity that only one side reports (say, a build that traces no
vcr_begin records or names an operation otherwise) cannot be compared,
and fails too.

--self-test runs the one-build power check: side A against side B of the
same build must pass (A/A), and side A against side B run with
--duration=gamma(2,4.4) (every VCR duration scaled by +10%) must fail.
It exits 0 only when both hold.

Stdlib only. Usage:

    tools/stream_contract.py VODCTL_A VODCTL_B [--grid full]
        [--out contract.json]
    tools/stream_contract.py --self-test VODCTL [--grid quick]

A failing quantity is a finding to explain or fix, never a reason to pick
other seeds.
"""

import argparse
import collections
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ALPHA = 0.01
SEEDS = 4            # seeds a side (K)
MIXES = ("ff", "rw", "pau", "mixed")
OUTCOMES = ("within", "jump", "end", "miss")
MOVIE_LENGTH = 120.0
MEASURE = 30000      # minutes of the untraced run: ~60 000 resumes a cell
TRACED_MEASURE = 3000  # minutes of the traced run: ~6 600 durations a cell
SCALED_DURATION = "gamma(2,4.4)"  # +10% on the default gamma(2,4)
REPORT = re.compile(r"resumes=(\d+) \(within=(\d+), jump=(\d+), end=(\d+), "
                    r"miss=(\d+)\)")


def grid_cells(grid):
    """(mix, w, n) of the paper grid, or of its quick subset."""
    if grid == "quick":
        return [(mix, 1.0, n) for mix in MIXES for n in (10, 50, 90)]
    cells = []
    for mix in MIXES:
        for w in (0.5, 1.0, 2.0):
            n = 10
            while n * w < MOVIE_LENGTH:
                cells.append((mix, w, n))
                n += 20
    return cells


def cell_name(cell):
    mix, w, n = cell
    return f"{mix} w={w:g} n={n}"


def cell_argv(vodctl, cell, seed, measure, extra):
    mix, w, n = cell
    return [vodctl, "simulate", f"--mix={mix}", f"--wait={w:g}",
            f"--streams={n}", f"--measure={measure}", f"--seed={seed}"] + extra


def resume_quantities(report):
    """{resumes: count, share.<outcome>: share} from a simulate report, or
    None when it prints no resume counts."""
    match = REPORT.search(report)
    if match is None:
        return None
    resumes, *counts = (int(g) for g in match.groups())
    values = {"resumes": float(resumes)}
    values.update((f"share.{name}", count / resumes)
                  for name, count in zip(OUTCOMES, counts))
    return values


def run_cell(vodctl, cell, seed, extra):
    """One seed of one cell: {quantity: value} for its resumes, shares and
    durations."""
    out = subprocess.run(cell_argv(vodctl, cell, seed, MEASURE, extra),
                         capture_output=True, text=True, check=True).stdout
    values = resume_quantities(out)
    if values is None:
        raise SystemExit(f"no resume counts in the report of {cell_name(cell)}"
                         f" seed {seed}: {out!r}")
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "vcr.jsonl")
        subprocess.run(cell_argv(vodctl, cell, seed, TRACED_MEASURE, extra) +
                       [f"--trace_out={trace}",
                        "--trace_categories=vcr_begin"],
                       capture_output=True, check=True)
        values.update(mean_durations(trace))
    return values


def mean_durations(path):
    """{duration.<op>: mean} over a trace's vcr_begin records."""
    sums, counts = {}, {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["cat"] != "vcr_begin":
                continue
            value = float(record["value"])
            if not math.isfinite(value) or value < 0.0:
                raise SystemExit(f"{path}: bad VCR duration {line.strip()}")
            op = "duration." + record["sub"]
            sums[op] = sums.get(op, 0.0) + value
            counts[op] = counts.get(op, 0) + 1
    return {op: sums[op] / counts[op] for op in sums}


def run_side(vodctl, cells, seeds, extra, jobs):
    """{cell name: {quantity: [one value per seed]}} for one side."""
    side = {cell_name(cell): {} for cell in cells}
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(run_cell, vodctl, cell, seed, extra):
                   (cell, seed) for cell in cells for seed in seeds}
        results = {futures[f]: f.result() for f in futures}
    for cell in cells:
        for seed in seeds:
            for quantity, value in results[(cell, seed)].items():
                side[cell_name(cell)].setdefault(quantity, []).append(value)
    return side


# ---- statistics ---------------------------------------------------------


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x /
                          ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                     a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def t_two_sided_p(t, df):
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def t_critical(p, df):
    """The |t| whose two-sided p-value is p (bisection)."""
    lo, hi = 0.0, 1.0
    while t_two_sided_p(hi, df) > p:
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if t_two_sided_p(mid, df) > p else (lo, mid)
    return hi


def pooled_t(a, b):
    """Pooled two-sample t: (mean b - mean a, its standard error, df)."""
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    df = len(a) + len(b) - 2
    ss = sum((x - ma) ** 2 for x in a) + sum((x - mb) ** 2 for x in b)
    se = math.sqrt(ss / df * (1.0 / len(a) + 1.0 / len(b)))
    return mb - ma, se, df


def compare(side_a, side_b, alpha=ALPHA):
    """Judges every quantity of every cell under the Bonferroni rule.

    Returns (rows, passed): one row per (cell, quantity) with both means,
    the difference, its family-wise interval, the p-value and the verdict.
    A quantity that only one side reports fails; its row has p = 0 and
    `only_on`, the side that reports it, in place of the statistics.
    """
    cells = list(side_a) + [cell for cell in side_b if cell not in side_a]
    keys = [(cell, q) for cell in cells
            for q in sorted(set(side_a.get(cell, {})) |
                            set(side_b.get(cell, {})))]
    compared = [(cell, q) for cell, q in keys
                if q in side_a.get(cell, {}) and q in side_b.get(cell, {})]
    per_test = alpha / max(1, len(compared))
    rows = []
    for cell, q in keys:
        a, b = side_a.get(cell, {}).get(q), side_b.get(cell, {}).get(q)
        if a is None or b is None:
            rows.append({"cell": cell, "quantity": q, "p": 0.0,
                         "verdict": "FAIL", "only_on": "A" if b is None
                         else "B"})
            continue
        diff, se, df = pooled_t(a, b)
        if se > 0.0:
            p = t_two_sided_p(diff / se, df)
        else:
            p = 1.0 if diff == 0.0 else 0.0
        half = t_critical(per_test, df) * se
        rows.append({"cell": cell, "quantity": q,
                     "mean_a": sum(a) / len(a), "mean_b": sum(b) / len(b),
                     "diff": diff, "interval": [diff - half, diff + half],
                     "p": p, "verdict": "FAIL" if p < per_test else "ok"})
    return rows, all(r["verdict"] == "ok" for r in rows)


# ---- driver ----------------------------------------------------------------


def report(title, rows, passed, alpha=ALPHA):
    cells = len({r["cell"] for r in rows})
    compared = [r for r in rows if "only_on" not in r]
    failed = [r for r in compared if r["verdict"] == "FAIL"]
    one_sided = collections.Counter((r["only_on"], r["quantity"])
                                    for r in rows if "only_on" in r)
    missing = len(rows) - len(compared)
    print(f"{title}: {len(compared)} quantities over {cells} cells, {SEEDS} "
          f"seeds a side, Bonferroni alpha={alpha:g} "
          f"(per quantity {alpha / max(1, len(compared)):.2e}): "
          f"{'PASS' if passed else 'FAIL'} ({len(failed)} failed"
          f"{f', {missing} on one side only' if missing else ''})")
    for (side, quantity), count in sorted(one_sided.items()):
        print(f"  FAIL  {quantity} is reported by side {side} only, "
              f"in {count} cells")
    worst = sorted(compared, key=lambda r: r["p"])[:5 if passed else 10]
    for r in worst:
        lo, hi = r["interval"]
        print(f"  {r['verdict']:>4}  {r['cell']:<18} {r['quantity']:<16} "
              f"{r['mean_a']:.5f} -> {r['mean_b']:.5f}  "
              f"diff {r['diff']:+.5f} in [{lo:+.5f}, {hi:+.5f}]  "
              f"p={r['p']:.2e}")


def main():
    parser = argparse.ArgumentParser(
        description="Compare the Fig 7 resume counts and shares and VCR "
                    "durations of two vodctl builds across seeds.")
    parser.add_argument("vodctl", nargs="+",
                        help="VODCTL_A VODCTL_B, or one VODCTL with "
                             "--self-test")
    parser.add_argument("--self-test", action="store_true",
                        help="one build: A/A must pass and a +10%% "
                             "duration scale must fail")
    parser.add_argument("--grid", choices=("full", "quick"), default=None,
                        help="cells to run (default: full, quick with "
                             "--self-test)")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="vodctl processes at once")
    parser.add_argument("--out", help="JSON document to write")
    args = parser.parse_args()
    if len(args.vodctl) != (1 if args.self_test else 2):
        parser.error("give VODCTL_A VODCTL_B, or --self-test VODCTL")

    cells = grid_cells(args.grid or ("quick" if args.self_test else "full"))
    seeds_a = range(1, SEEDS + 1)
    seeds_b = range(SEEDS + 1, 2 * SEEDS + 1)
    vodctl_a, vodctl_b = args.vodctl[0], args.vodctl[-1]
    side_a = run_side(vodctl_a, cells, seeds_a, [], args.jobs)
    side_b = run_side(vodctl_b, cells, seeds_b, [], args.jobs)
    rows, passed = compare(side_a, side_b)
    document = {"alpha": ALPHA, "seeds": SEEDS, "cells": len(cells),
                "measure": MEASURE, "traced_measure": TRACED_MEASURE,
                "vodctl_a": os.path.abspath(vodctl_a),
                "vodctl_b": os.path.abspath(vodctl_b),
                "passed": passed, "rows": rows}
    if args.self_test:
        report("A/A (seeds 1..K against K+1..2K)", rows, passed)
        scaled = run_side(vodctl_b, cells, seeds_b,
                          [f"--duration={SCALED_DURATION}"], args.jobs)
        scaled_rows, scaled_passed = compare(side_a, scaled)
        report(f"A against B with --duration={SCALED_DURATION}", scaled_rows,
               scaled_passed)
        document["scaled"] = {"duration": SCALED_DURATION,
                              "passed": scaled_passed, "rows": scaled_rows}
        ok = passed and not scaled_passed
        print("power self-test: " + ("PASS (A/A passes, the +10% scale fails)"
                                     if ok else "FAIL"))
    else:
        report("A against B", rows, passed)
        ok = passed
    if args.out:
        with open(args.out, "w") as f:
            json.dump(document, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of e2e benchmark results (stdlib only; see README.md).

Each set is one or more result documents written by `run.py --out`, e.g.
several runs of the parent commit against several runs of a change, or two
independent sets of runs of one commit. For every (workload, end-to-end
metric) it prints both sides' median and quartiles, the pairs the change won
(runs paired in the order given), and a verdict against the bound in
BENCHMARK.json:

  worse       the change's median is worse by more than the bound;
  unresolved  a side's quartile spread exceeds the bound, unless every
              change run beats every base run;
  improved    better by more than the base's own quartile spread, winning
              at least 9 in 10 of at least 10 pairs;
  unchanged   otherwise.

Exits 1 if any verdict is "worse".

    python3 bench/e2e/compare.py --base parent-*.json --change change-*.json
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# A gain needs at least ten pairs of runs; with fewer, a better median reads
# "unchanged".
MIN_PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    q1b, mb, q3b = quartiles(base)
    q1c, mc, q3c = quartiles(change)
    worse_by = sign * (mc - mb) / mb
    spread = max((q3b - q1b) / mb, (q3c - q1c) / mc)
    pairs = list(zip(base, change))
    won = sum(sign * (c - b) < 0 for b, c in pairs)
    if worse_by > bound:
        return "worse", won, len(pairs)
    if spread > bound and not all(sign * (c - b) < 0
                                  for b in base for c in change):
        return "unresolved", won, len(pairs)
    if (len(pairs) >= MIN_PAIRS and -worse_by * mb > q3b - q1b and
            won >= 0.9 * len(pairs)):
        return "improved", won, len(pairs)
    return "unchanged", won, len(pairs)


def load(paths):
    """{workload: {metric: [values in file order]}}"""
    values = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, result in document["workloads"].items():
            for metric, value in result["e2e"].items():
                values.setdefault(workload, {}).setdefault(metric, []).append(value)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base, change = load(args.base), load(args.change)
    print(f"{'workload':14s} {'metric':12s} {'base q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'delta':>8s} {'won':>6s}  verdict")
    worse = False
    for workload in sorted(base.keys() & change.keys()):
        for metric in metrics:
            name = metric["name"]
            b, c = base[workload].get(name), change[workload].get(name)
            if not b or not c:
                continue
            result, won, pairs = verdict(b, c, metric["better"], metric["bound"])
            worse |= result == "worse"
            qb, qc = quartiles(b), quartiles(c)
            delta = (qc[1] - qb[1]) / qb[1]
            print(f"{workload:14s} {name:12s} "
                  f"{'/'.join(f'{q:.4g}' for q in qb):>32s} "
                  f"{'/'.join(f'{q:.4g}' for q in qc):>32s} "
                  f"{delta:+8.3f} {won:>3d}/{pairs:<2d}  {result} "
                  f"(bound {metric['bound']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the e2e benchmark, run by `ctest --test-dir build-e2e`.

Runs every workload at --scale smoke through run.py and asserts that:
  * exactly the metric names and units declared in BENCHMARK.json are
    emitted, end-to-end and per-layer, for every workload;
  * a single-workload run's last stdout line is the result object
    {"correct", "attempted", "failed", "metrics"};
  * a run with a forced check failure exits non-zero and says so.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parents[1] / "BENCHMARK.json").read_text())


def run(binary, *extra):
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--binary",
               str(binary), "--scale", "smoke", "--seconds", "0", *extra]
    proc = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", type=Path, required=True)
    binary = parser.parse_args().binary

    with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
        out = Path(tmp) / "smoke.json"
        code, _ = run(binary, "--out", str(out))
        expect(code == 0, f"all-workload smoke run exited {code}")
        document = json.loads(out.read_text())
    e2e_units = declared("end_to_end")
    for workload, result in document["workloads"].items():
        expect(set(result["e2e"]) == set(e2e_units),
               f"{workload}: end-to-end metric names differ from BENCHMARK.json")
        expect(set(result["layers"]) == set(declared("per_layer")),
               f"{workload}: per-layer metric names differ from BENCHMARK.json")
        expect(all(result["e2e"][n] > 0 for n in e2e_units),
               f"{workload}: an end-to-end metric reads 0")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, line = run(binary, "--workload", "capacity_plan",
                         "--trace", str(trace))
        expect(code == 0 and sorted(line) ==
               ["attempted", "correct", "failed", "metrics"],
               f"--trace {trace}: bad result line {line}")
        units = {n: m["unit"] for n, m in line["metrics"].items()}
        expect(units == declared(section),
               f"--trace {trace}: metrics or units differ from BENCHMARK.json")

    code, line = run(binary, "--workload", "giant_server", "--inject-failure")
    expect(code != 0 and line["correct"] is False and line["failed"] >= 1,
           f"a forced check failure exited {code} with {line}")
    print("PASS")


if __name__ == "__main__":
    main()

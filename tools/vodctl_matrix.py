#!/usr/bin/env python3
"""Runs a fixed matrix of vodctl invocations and records everything they
leave behind, so two builds can be compared byte for byte.

Usage: vodctl_matrix.py VODCTL OUTDIR [--server-as=COMMAND]

Each case runs its steps in its own directory OUTDIR/<case>/. Step i
writes <i>.stdout, <i>.stderr and <i>.exit there, next to the side files
the step wrote itself (reports, traces, metrics, sharded checkpoints,
postmortem bundles). Compare two runs with `diff -r OUTDIR_A OUTDIR_B`.

Normalised so that equal programs give equal trees:
  - grid-sweep checkpoints (*.gridckpt) are deleted: they carry the
    scenario fingerprint, whose encoding is not part of the output;
  - profiles (--profile_out) hold wall-clock spans and are replaced by a
    marker line;
  - `soak` cycle lines, which depend on when a SIGKILL lands, are dropped.

Each vodctl process runs under a 2 GiB address-space limit.

--server-as=simulate runs the `server` cases as `simulate`, for a build
that predates the `server` command (every server case spells out
--reserve, which there selected the server engine).

The matrix covers seeds 1-3 of every subcommand and engine mode: faults
with and without the degradation ladder, the controller with a flash
crowd, replicated and checkpointed sweeps, four shard configurations (one
with the controller and the ladder together),
traced runs with `inspect`, postmortems, soaks, audited controller
re-plans on both server engines, the paper's artifacts (`reproduce`), and
the failure modes.
"""

import os
import re
import resource
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOG = os.path.join(REPO, "data", "catalog_example.csv")
MALFORMED = os.path.join(REPO, "data", "catalog_malformed.csv")
MEMORY_LIMIT = 2 << 30  # bytes of address space per vodctl process
COMMANDS = ["model", "size", "simulate", "server", "shard", "catalog",
            "timeline", "soak", "inspect", "reproduce"]

TRACED = ["--trace_out=run.trace.jsonl", "--metrics_out=run.prom",
          "--metrics_csv=run.series.csv"]
SWEEP = ["--replications=3", "--threads=1", "--checkpoint=sweep.gridckpt",
         "--checkpoint_every=1"]
REPLAN = ["--movies=12", "--measure=4000", "--reserve=20", "--controller",
          "--audit"]


def seeded_cases(seed):
    """Cases repeated for each seed: every engine mode."""
    s = "--seed=%d" % seed
    m = ["--measure=1500", s]
    ladder = ["--reserve=30", "--faults=4:800:120", "--queue_deadline=2"]
    drift = ["--movies=3", "--controller", "--flash=0:300:600:4",
             "--reserve=30"]
    shard_a = ["shard", "--movies=4", "--shards=2", "--threads=2", "--audit"]
    shard_b = ["shard", "--movies=6", "--shards=3", "--threads=2",
               "--reserve=24", "--faults=4:700:350", "--queue_deadline=5",
               "--audit"]
    shard_c = ["shard", "--movies=8", "--shards=4", "--threads=1",
               "--window=30", "--controller", "--flash=0:200:400:4",
               "--reserve=40"]
    # The controller with the ladder armed, so its traffic policy can shed.
    shard_d = ["shard", "--movies=12", "--measure=6000", "--reserve=12",
               "--controller", "--flash=0:1000:3000:6", "--faults=4:600:300",
               "--queue_deadline=5", "--shards=3", "--threads=2"]
    return {
        "simulate": [["simulate"] + m],
        "simulate_ff_buffer": [["simulate", "--mix=ff", "--buffer=60"] + m],
        "simulate_mix_csv_rw": [["simulate", "--mix=0.2,0.7,0.1",
                                 "--duration=exp(5)", "--streams=30"] + m],
        "simulate_piggyback": [["simulate", "--piggyback=0.05"] + m],
        "simulate_paranoid": [["simulate", "--paranoid"] + m],
        "simulate_replicated": [["simulate", "--replications=3",
                                 "--threads=2", "--measure=800", s]],
        "simulate_checkpointed": [["simulate", "--measure=800", s] + SWEEP,
                                  ["simulate", "--measure=800", s] + SWEEP +
                                  ["--resume", "--report_out=resumed.txt"]],
        "simulate_traced": [["simulate"] + m + TRACED +
                            ["--profile_out=run.profile.json"],
                            ["inspect", "--trace=run.trace.jsonl"]],
        "server": [["server", "--reserve=100"] + m],
        "server_movies": [["server", "--movies=4", "--zipf=0.8",
                           "--reserve=30"] + m],
        "server_faults": [["server", "--reserve=30",
                           "--faults=4:800:120"] + m],
        "server_faults_ladder": [["server"] + ladder + m],
        "server_controller_flash": [["server", "--measure=3000", s] + drift],
        "server_piggyback_audit": [["server", "--reserve=50",
                                    "--piggyback=0.05", "--audit"] + m],
        "server_replicated": [["server", "--movies=3", "--reserve=40",
                               "--replications=3", "--threads=2",
                               "--measure=800", s]],
        "server_checkpointed": [["server", "--measure=800", s] + drift +
                                SWEEP,
                                ["server", "--measure=800", s] + drift +
                                SWEEP + ["--resume"]],
        "server_traced": [["server"] + ladder + m + TRACED,
                          ["inspect", "--trace=run.trace.jsonl"],
                          ["inspect", "--trace=run.trace.jsonl", "--csv"]],
        "shard_a": [shard_a + m],
        "shard_b_ladder": [shard_b + m],
        "shard_c_controller": [shard_c + ["--measure=2000", s]],
        "shard_controller_ladder": [shard_d + [s]],
        "shard_checkpointed": [shard_b + m + ["--checkpoint=shard.ckpt",
                                              "--checkpoint_every=2",
                                              "--stop_after_windows=5"],
                               shard_b + m + ["--checkpoint=shard.ckpt",
                                              "--checkpoint_every=2",
                                              "--resume",
                                              "--report_out=resumed.txt"]],
        "shard_traced": [shard_b + m + TRACED,
                         ["inspect", "--trace=run.trace.jsonl"]],
        "shard_postmortem": [shard_a + m + ["--corrupt_window=3",
                                            "--postmortem_out=pm.jsonl"],
                             ["inspect", "--postmortem=pm.jsonl"]],
    }


def fixed_cases():
    """Seedless cases: the analytic commands, help, soaks and failures."""
    cases = {
        "model": [["model"]],
        "model_buffer": [["model", "--streams=40", "--buffer=80"]],
        "model_exp_csv": [["model", "--streams=20", "--wait=2",
                           "--duration=exp(5)", "--ff_rate=4", "--csv"]],
        "size": [["size"]],
        "size_curve": [["size", "--length=60", "--wait=0.5", "--pstar=0.5",
                        "--duration=exp(5)", "--mix=ff", "--curve"]],
        "size_curve_csv": [["size", "--curve", "--csv", "--pstar=0.7"]],
        "catalog": [["catalog", "--file=" + CATALOG]],
        "catalog_budget_csv": [["catalog", "--file=" + CATALOG,
                                "--budget=300", "--zipf=0.5", "--csv"]],
        "timeline": [["timeline"]],
        "timeline_small": [["timeline", "--rows=6", "--width=60",
                            "--buffer=40", "--streams=8"]],
        "soak": [["soak", "--cycles=1", "--replications=3",
                  "--measure=3000", "--kill_min_ms=5", "--kill_max_ms=40",
                  "--prefix=soak", "--trace"]],
        "soak_drift": [["soak", "--drift", "--cycles=1", "--replications=3",
                        "--measure=3000", "--kill_min_ms=5",
                        "--kill_max_ms=40", "--prefix=soak"]],
        "soak_shards": [["soak", "--shards=3", "--cycles=1",
                         "--measure=3000", "--kill_min_ms=5",
                         "--kill_max_ms=40", "--prefix=soak"]],
        # Declared differences from a build that picked engines by which
        # flags were present: a bare shard runs one movie, and defaults
        # spelled out are accepted.
        "shard_bare": [["shard", "--measure=1500"]],
        "shard_explicit_ladder_defaults": [
            ["shard", "--movies=4", "--measure=1500", "--queue_deadline=0"]],
        "server_explicit_empty_specs": [["server", "--reserve=100",
                                         "--faults=", "--flash=",
                                         "--measure=1500"]],
        "model_explicit_buffer_default": [["model", "--buffer=-1"]],
        # A controller that re-plans while earlier reclaims still drain,
        # audited on both engines (the buffer budget must stay whole).
        "server_controller_replan_audit": [["server"] + REPLAN],
        "shard_controller_replan_audit": [["shard"] + REPLAN +
                                          ["--shards=4", "--threads=2"]],
        # Newly rejected input.
        "rejects_mix_junk": [["simulate", "--mix=0.5,0.5,0junk"]],
        "rejects_huge_disk_count": [["server", "--reserve=100",
                                     "--faults=2000000000:2000:120"]],
        "rejects_nan_duration": [["model", "--duration=gamma(nan,4)"]],
        "rejects_nan_mix": [["simulate", "--measure=200",
                             "--mix=nan,0.5,0.5"]],
        "rejects_nan_flash_start": [["server", "--movies=2", "--measure=200",
                                     "--flash=0:nan:100:2"]],
        "rejects_inf_fault_mtbf": [["server", "--movies=2", "--measure=200",
                                    "--faults=4:inf:120"]],
        "rejects_negative_duration": [["simulate", "--measure=200",
                                       "--duration=det(-3)"]],
        "rejects_tiny_window": [["shard", "--movies=2", "--shards=1",
                                 "--threads=1", "--measure=200",
                                 "--window=1e-300"]],
        # Output sizes are bounded. --rows sits just past its bound: an
        # unbounded build prints every row into this script's memory.
        "rejects_huge_timeline_width": [["timeline",
                                         "--width=1000000000000"]],
        "rejects_huge_timeline_rows": [["timeline", "--rows=4097"]],
        "rejects_unknown_artifact": [["reproduce", "--artifact=fig10"]],
        # The paper's artifacts: the analytic ones, and one simulated sweep.
        "reproduce_fig8_csv": [["reproduce", "--artifact=fig8", "--csv"]],
        "reproduce_examples": [["reproduce", "--artifact=example1"],
                               ["reproduce", "--artifact=example2"]],
        "reproduce_fig9": [["reproduce", "--artifact=fig9"]],
        "reproduce_fig7c": [["reproduce", "--artifact=fig7c"]],
    }
    for command in ("simulate", "server", "shard"):
        cases["rejects_tiny_metrics_cadence_" + command] = [
            [command, "--measure=100", "--metrics_every=1e-300",
             "--metrics_csv=run.series.csv"]]
    failures = [
        ["frobnicate"],
        ["model", "--streams=abc"],
        ["simulate", "--no_such_flag=1"],
        ["catalog", "--file=" + MALFORMED],
        ["catalog"],
        ["server", "--reserve=30", "--faults=4disks"],
        ["server", "--reserve=30", "--faults=0:2000:120"],
        ["server", "--reserve=30", "--flash=0:1:2"],
        ["server", "--reserve=30", "--movies=2", "--flash=5:100:100:2"],
        ["server", "--reserve=30", "--movies=0"],
        ["simulate", "--wait=nan"],
        ["simulate", "--streams=40x"],
        ["simulate", "--replications=3", "--resume"],
        # A single run refuses a sweep's crash-recovery flags.
        ["simulate", "--measure=300", "--checkpoint=single.ckpt"],
        ["simulate", "--measure=300", "--resume"],
        ["server", "--measure=300", "--checkpoint_every=3"],
        ["soak", "--replications=1", "--cycles=1", "--measure=300",
         "--prefix=soak"],
        ["simulate", "--length=-5"],
        ["simulate", "--mix=bogus"],
        ["simulate", "--duration=bogus(1)"],
        ["simulate", "--streams=4294967336", "--wait=1", "--measure=200"],
        ["shard", "--movies=4", "--measure=300", "--shards=4294967299"],
        ["shard", "--movies=4", "--window=0"],
        ["shard", "--movies=4", "--corrupt_window=3"],
        ["timeline", "--width=5"],
        ["size", "--wait=0"],
        ["inspect"],
        ["inspect", "--trace=missing.jsonl"],
        ["soak", "--cycles=0"],
    ]
    for i, argv in enumerate(failures):
        cases["fails_%02d_%s" % (i, argv[0])] = [argv]
    for command in COMMANDS:
        cases["help_" + command] = [[command, "--help"]]
    return cases


def limit_memory():
    # A build that sizes a table by an untrusted count then fails alone
    # (bad_alloc) instead of drawing the machine into its OOM killer.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_step(vodctl, argv, case_dir, index):
    done = subprocess.run([vodctl] + argv, cwd=case_dir, capture_output=True,
                          timeout=600, preexec_fn=limit_memory)
    stdout = done.stdout
    if argv[0] == "soak":
        stdout = re.sub(rb"(?m)^soak: cycle .*\n", b"", stdout)
    for name, data in (("stdout", stdout), ("stderr", done.stderr),
                       ("exit", b"%d\n" % done.returncode)):
        with open(os.path.join(case_dir, "%d.%s" % (index, name)), "wb") as f:
            f.write(data)


def normalise(case_dir):
    for name in os.listdir(case_dir):
        path = os.path.join(case_dir, name)
        if name.endswith(".gridckpt"):
            os.remove(path)
        elif name.endswith(".profile.json"):
            with open(path, "w") as f:
                f.write("profile written\n")


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--server-as=")]
    server_as = [a.split("=", 1)[1] for a in sys.argv[1:]
                 if a.startswith("--server-as=")]
    if len(args) != 2:
        sys.exit(__doc__)
    vodctl, outdir = os.path.abspath(args[0]), args[1]
    cases = fixed_cases()
    for seed in (1, 2, 3):
        for name, steps in seeded_cases(seed).items():
            cases["s%d_%s" % (seed, name)] = steps
    shutil.rmtree(outdir, ignore_errors=True)
    invocations = 0
    for name, steps in sorted(cases.items()):
        case_dir = os.path.join(outdir, name)
        os.makedirs(case_dir)
        for index, argv in enumerate(steps):
            if server_as and argv[0] == "server":
                argv = server_as[:1] + argv[1:]
            run_step(vodctl, argv, case_dir, index)
            invocations += 1
        normalise(case_dir)
    print("%d cases, %d invocations under %s" % (len(cases), invocations,
                                                   outdir))


if __name__ == "__main__":
    main()

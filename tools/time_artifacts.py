#!/usr/bin/env python3
"""Times each artifact of `vodctl reproduce` in its own process.

Usage: time_artifacts.py VODCTL [ROUNDS]

Each round runs `VODCTL reproduce --artifact=NAME` once for each row of
the artifact table (read from `VODCTL reproduce --help`), in table order,
so host drift spreads over all of them; ROUNDS defaults to 5. os.wait4 reads each child's wall time, CPU time
(user + system, all threads) and peak RSS. Prints a markdown table of the
median and min-max per artifact, stamped with the git sha, the date, the
build type, nproc and the load average before and after. Stdout of the
children is discarded: no timing enters the record.
"""

import os
import re
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def artifact_names(vodctl):
    """The rows of the artifact table, in order, as --help lists them:
    'all, fig7a (Fig 7(a)), ..., drift (X10); all prints ...'."""
    help_text = subprocess.run([vodctl, "reproduce", "--help"],
                               capture_output=True, text=True).stdout
    listed = help_text.split("the artifact to print: ", 1)[1].split(";")[0]
    return re.findall(r"(?:^|, )(\w+) \(", listed)


def run_once(vodctl, artifact):
    """(wall s, CPU s, peak RSS MiB) of one child process."""
    with open(os.devnull, "wb") as devnull:
        start = time.perf_counter()
        child = subprocess.Popen([vodctl, "reproduce", "--artifact=" + artifact],
                                 stdout=devnull)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit("vodctl reproduce --artifact=%s exited %d" % (artifact, code))
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def build_type(vodctl):
    """CMAKE_BUILD_TYPE of the build tree VODCTL sits in; the top-level
    CMakeLists.txt builds an empty one as RelWithDebInfo."""
    cache = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(vodctl))), "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "RelWithDebInfo"
    except OSError:
        pass
    return "unknown"


def cell(values, digits):
    return "%.*f (%.*f–%.*f)" % (digits, statistics.median(values), digits,
                                 min(values), digits, max(values))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    vodctl = sys.argv[1]
    rounds = int(sys.argv[2]) if len(sys.argv) == 3 else 5
    sha = subprocess.run(["git", "-C", REPO, "describe", "--always",
                          "--dirty"], capture_output=True,
                         text=True).stdout.strip()
    artifacts = artifact_names(vodctl)
    load_before = os.getloadavg()[0]
    samples = dict((name, []) for name in artifacts)
    for _ in range(rounds):
        for name in artifacts:
            samples[name].append(run_once(vodctl, name))
    print("sha %s, %s, %s build, nproc %d, 1-min load %.1f before, %.1f "
          "after, %d rounds, median (min–max)\n" % (
              sha, time.strftime("%Y-%m-%d"), build_type(vodctl),
              os.cpu_count(), load_before, os.getloadavg()[0], rounds))
    print("| artifact | wall s | CPU s | peak RSS MiB |")
    print("|---|---|---|---|")
    for name in artifacts:
        wall, cpu, rss = zip(*samples[name])
        print("| %s | %s | %s | %s |" % (name, cell(wall, 2), cell(cpu, 2),
                                         cell(rss, 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

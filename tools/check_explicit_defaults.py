#!/usr/bin/env python3
"""Checks that spelling a vodctl flag out at its default changes nothing.

Usage: check_explicit_defaults.py VODCTL

For each scenario subcommand the script reads every flag's default from
`VODCTL <command> --help`, then runs the command twice: once bare (with
the FIXED values of the flags the command takes: a small --measure, and
one fast reproduce row rather than all of them) and once with every other
flag spelled out at its listed default. Both runs must exit 0 and print
the same stdout. Exits 1 and names each command that differs.
"""

import re
import subprocess
import sys

COMMANDS = ["model", "size", "simulate", "server", "shard", "timeline",
            "reproduce"]
FIXED = {"measure": "300", "artifact": "example2"}
DEFAULT_LINE = re.compile(r"^  --(\w+)  \(default: (.*)\)$")


def run(vodctl, argv):
    done = subprocess.run([vodctl] + argv, capture_output=True, text=True,
                          timeout=300)
    return done.returncode, done.stdout, done.stderr


def check(vodctl, command):
    """Returns None when the two runs agree, else a one-line reason."""
    code, help_text, _ = run(vodctl, [command, "--help"])
    defaults = dict(m.groups() for m in map(DEFAULT_LINE.match,
                                            help_text.splitlines()) if m)
    if code != 0 or not defaults:
        return "cannot read its defaults from --help"
    fixed = ["--%s=%s" % item for item in FIXED.items() if item[0] in defaults]
    spelled = ["--%s=%s" % (name, value) for name, value in defaults.items()
               if name not in FIXED]
    bare = run(vodctl, [command] + fixed)
    explicit = run(vodctl, [command] + fixed + spelled)
    if bare[0] != 0:
        return "bare run exited %d: %s" % (bare[0], bare[2].strip())
    if explicit[:2] != bare[:2]:
        return "explicit defaults exited %d and printed %s stdout: %s" % (
            explicit[0], "the same" if explicit[1] == bare[1] else "different",
            explicit[2].strip() or "(no stderr)")
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    failures = 0
    for command in COMMANDS:
        reason = check(sys.argv[1], command)
        print("%-8s %s" % (command, reason or "ok"))
        failures += reason is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

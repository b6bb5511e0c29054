#!/usr/bin/env python3
"""Checks the committed record of `vodctl reproduce`, and the numbers
EXPERIMENTS.md quotes from it.

Usage:
  check_paper_record.py record VODCTL RECORD
      Runs `VODCTL reproduce --csv` and compares its stdout with RECORD
      byte for byte; on a mismatch prints a unified diff and exits 1. A
      row whose experiment checks a law makes vodctl exit 1, which fails
      this too. Regenerate the record with
        build/tools/vodctl reproduce --csv > data/paper_artifacts.csv
  check_paper_record.py docs RECORD EXPERIMENTS_MD
      Matches each number EXPERIMENTS.md quotes to its artifact in RECORD:
      the Fig 7 w = 1 table, Example 1's measured rows, Example 2's
      constants and the stream counts of the Fig 9 table by artifact, row
      and column; the drift and sharded-ladder tables by row and column;
      every number in an ablation or extension bullet (one that opens with
      `--artifact=NAME`), as printed, in that one artifact's output and in
      its print order, and every number of each drift claim on one printed
      line of the drift output, in its order there (numbers in code spans
      are notation and skipped). Exits 1 naming each doc line whose number
      differs or comes out of order, and each quoted group it cannot find.
"""

import csv
import difflib
import itertools
import re
import subprocess
import sys

# The first line of each artifact's output, in `vodctl reproduce` order.
TITLES = [("fig7a", "Figure 7(a):"), ("fig7b", "Figure 7(b):"),
          ("fig7c", "Figure 7(c):"), ("fig7d", "Figure 7(d):"),
          ("fig8", "Figure 8:"), ("example1", "Example 1:"),
          ("example2", "Example 2:"), ("fig9", "Figure 9:"),
          ("interactivity", "Ablation: measured P(hit) vs mean time"),
          ("population", "Ablation: hit probability by issuing population"),
          ("speed", "Ablation: P(hit) vs display speed"),
          ("piggyback", "Extension: phase-2 piggyback merging"),
          ("blocking", "Extension: shared VCR stream reserve"),
          ("duration_shape", "Ablation: P(hit) across equal-mean"),
          ("diurnal", "Extension: load dependence"),
          ("abandonment", "Extension: abandonment skews"),
          ("failures", "Extension: disk failures"),
          ("drift", "Extension: popularity drift")]
FIG7 = ["fig7a", "fig7b", "fig7c", "fig7d"]  # the doc table's column order
# EXPERIMENTS.md's Example 1 row labels -> the sizing case's index.
EXAMPLE1_ROWS = {"FF-only": 0, "Fig-7(d) mixed": 1}
# EXPERIMENTS.md's Example 2 names -> the record's quantity rows.
EXAMPLE2_NAMES = {"C_b": "C_b ($/movie-minute)", "C_n": "C_n ($/stream)",
                  "streams/disk": "streams per disk",
                  "φ": "phi = C_b / C_n"}
# A doc table's header start -> (artifact, which of its tables, key columns).
# A key cell "1/4/8" names three record rows that must all match.
DOC_TABLES = {"| scenario | mode |": ("drift", 0, ["scenario", "mode"]),
              "| faults | shards |": ("failures", 1, ["faults", "shards"])}
NUMBER = re.compile(r"\d+(?:\.\d+)?")
BULLET = re.compile(r"^\* `--artifact=(\w+)`")


def check_record(vodctl, record_path):
    done = subprocess.run([vodctl, "reproduce", "--csv"],
                          capture_output=True, timeout=600)
    if done.returncode != 0:
        print("vodctl reproduce --csv exited %d: %s" %
              (done.returncode, done.stderr.decode(errors="replace")))
        return 1
    with open(record_path, "rb") as f:
        record = f.read()
    if done.stdout == record:
        print("%s: %d bytes, identical" % (record_path, len(record)))
        return 0
    diff = difflib.unified_diff(
        record.decode().splitlines(True), done.stdout.decode().splitlines(True),
        record_path, "vodctl reproduce --csv")
    sys.stdout.writelines(diff)
    print("\n%s differs from `vodctl reproduce --csv` (above)" % record_path)
    return 1


def sections(record_text):
    """The record split into {artifact: [lines]} at each title line."""
    found, name = {}, None
    for line in record_text.splitlines():
        for key, title in TITLES:
            if line.startswith(title):
                name = key
                found[name] = []
        if name is not None:
            found[name].append(line)
    return found


def tables(lines):
    """CSV tables in an artifact's lines, each a list of {header: cell}. A
    table's header follows a blank, '---' or ':'-ended line, and its rows
    (at least one) run while they have the header's field count."""
    parsed = []
    rows = list(csv.reader(lines))
    for i in range(1, len(rows)):
        if len(rows[i]) < 2 or (lines[i - 1] and
                                not lines[i - 1].startswith("---") and
                                not lines[i - 1].endswith(":")):
            continue
        table = []
        for row in rows[i + 1:]:
            if len(row) != len(rows[i]):
                break
            table.append(dict(zip(rows[i], row)))
        if table:
            parsed.append(table)
    return parsed


class DocCheck:
    def __init__(self, record_text, doc_path):
        self.artifacts = sections(record_text)
        self.doc_path = doc_path
        self.failures = []
        self.checked = {}

    def expect(self, group, lineno, what, quoted, recorded):
        self.checked[group] = self.checked.get(group, 0) + 1
        if quoted != recorded:
            self.failures.append("%s:%d: %s reads %s, the record has %s" % (
                self.doc_path, lineno, what, quoted, recorded))

    def fig7(self, lineno, cells):
        n, buffer, pairs = cells[0], cells[1], cells[2:]
        if len(pairs) != len(FIG7) or any(p.count("/") != 1 for p in pairs):
            self.failures.append("%s:%d: not a row of 'model / sim' pairs" %
                                 (self.doc_path, lineno))
            return
        for artifact, pair in zip(FIG7, pairs):
            model, sim = [v.strip() for v in pair.split("/")]
            rows = [r for r in tables(self.artifacts[artifact])[0]
                    if r["w"] == "1.0" and r["n"] == n]
            if not rows:
                self.failures.append("%s:%d: %s has no w = 1.0, n = %s row" %
                                     (self.doc_path, lineno, artifact, n))
                continue
            what = "%s w=1 n=%s" % (artifact, n)
            self.expect("fig7", lineno, what + " B", buffer, rows[0]["B"])
            self.expect("fig7", lineno, what + " model", model,
                        rows[0]["P(hit) model"])
            self.expect("fig7", lineno, what + " sim", sim,
                        rows[0]["P(hit) sim"])

    def example1(self, lineno, label, cells):
        case = EXAMPLE1_ROWS[label]
        lines = self.artifacts["example1"]
        movies = tables(lines)[case]
        totals = [re.match(r"sized allocation\s*:\s*(\d+) streams, "
                           r"([\d.]+) buffer-minutes", line)
                  for line in lines]
        totals = [m for m in totals if m][case]
        pairs = [re.match(r"\(([\d.]+), (\d+)\)$", cell) for cell in cells[:3]]
        if len(cells) < 5 or not all(pairs):
            self.failures.append("%s:%d: not a row of three (B, n) pairs, "
                                 "sum B and sum n" % (self.doc_path, lineno))
            return
        for movie, pair in zip(movies, pairs):
            buffer, streams = pair.groups()
            what = "Example 1 %s %s" % (label, movie["movie"])
            self.expect("example1", lineno, what + " B*", buffer,
                        movie["B* (min)"])
            self.expect("example1", lineno, what + " n*", streams,
                        movie["n*"])
        self.expect("example1", lineno, "Example 1 %s sum B" % label,
                    cells[3], totals.group(2))
        self.expect("example1", lineno, "Example 1 %s sum n" % label,
                    cells[4], totals.group(1))

    def example2(self, lineno, line):
        values = dict((row["quantity"], row["value"])
                      for row in tables(self.artifacts["example2"])[0])
        quoted = dict(re.findall(r"([^\s*,]+) = \$?([\d.]+\d)", line))
        for name, row in EXAMPLE2_NAMES.items():
            self.expect("example2", lineno, "Example 2 " + name,
                        quoted.get(name), values[row])

    def table_row(self, lineno, key, header, cells):
        """A row of the DOC_TABLES table `key`, matched to its record rows
        by the key columns and compared column by column (digit-group
        spaces and bold dropped)."""
        artifact, index, keys = DOC_TABLES[key]
        record = tables(self.artifacts[artifact])[index]
        columns = [c.strip() for c in header.strip().strip("|").split("|")]
        quoted = dict(zip(columns, cells))
        for combo in itertools.product(*(quoted[k].split("/") for k in keys)):
            want = dict(zip(keys, combo))
            rows = [r for r in record
                    if all(r[k] == v for k, v in want.items())]
            what = "%s %s" % (artifact, " ".join(combo))
            if not rows:
                self.failures.append("%s:%d: %s has no such row" %
                                     (self.doc_path, lineno, what))
                continue
            for column in columns:
                if column not in keys:
                    self.expect(artifact + " table", lineno,
                                "%s %s" % (what, column),
                                quoted[column].replace(" ", ""),
                                rows[0][column])

    def prose(self, lineno, artifact, group, scopes, live, text):
        """Each number in `text` (code spans dropped) must appear, exactly
        as printed, in one scope of `artifact`'s output, and there after the
        number matched before it: a bullet quotes its artifact's numbers in
        print order, so two of them swapped fail. A bullet's one scope is
        its artifact's whole output; a drift claim's scopes are the drift
        output's lines, since a claim quotes one printed line. `live` maps
        each scope every number so far matched in to the position after its
        last match; returns it updated for the bullet's next line."""
        for number in NUMBER.findall(re.sub(r"`[^`]*`", "", text)):
            found = {i: scopes[i].index(number, at) + 1
                     for i, at in live.items() if number in scopes[i][at:]}
            if found:
                live = found
                recorded = number
            elif not any(number in scope for scope in scopes):
                recorded = "no " + number
            elif len(scopes) == 1:
                recorded = "it only before " + scopes[0][live[0] - 1]
            else:
                recorded = "it on no line with the numbers quoted before it"
            self.expect(group, lineno, "%s prose number" % artifact, number,
                        recorded)
        return live

    def open_prose(self, artifact, group, by_line):
        """The state of a bullet or claim that opens: [artifact, group, its
        scopes, every scope live at position 0]."""
        lines = self.artifacts[artifact]
        scopes = ([NUMBER.findall(line) for line in lines] if by_line
                  else [NUMBER.findall("\n".join(lines))])
        return [artifact, group, scopes, dict.fromkeys(range(len(scopes)), 0)]

    def fig9(self, lineno, phi, streams):
        minima = dict(re.findall(r"^Figure 9\(.\): phi = (\d+) -> minimum "
                                 r"cost \d+ at (\d+) streams",
                                 "\n".join(self.artifacts["fig9"]), re.M))
        self.expect("fig9", lineno, "Fig 9 phi=%s minimum streams" % phi,
                    streams, minima.get(phi))

    def run(self):
        missing = [key for key, _ in TITLES if key not in self.artifacts]
        if missing:
            return ["record: no output for " + ", ".join(missing)]
        in_fig7 = in_drift = False
        doc_table = None  # (key, header line) of the DOC_TABLES table open
        prose = None      # open_prose's state of the bullet or claim open
        with open(self.doc_path, encoding="utf-8") as f:
            doc = f.read().splitlines()
        for lineno, line in enumerate(doc, 1):
            cells = [c.strip().strip("*")
                     for c in line.strip().strip("|").split("|")]
            if line.startswith("| n | B | 7(a)"):
                in_fig7 = True
            elif not line.startswith("|"):
                in_fig7 = False
            elif in_fig7 and not line.startswith("|---"):
                self.fig7(lineno, cells)
            key = next((k for k in DOC_TABLES if line.startswith(k)), None)
            if key:
                doc_table = (key, line)
            elif not line.startswith("|"):
                doc_table = None
            elif doc_table and not line.startswith("|---"):
                self.table_row(lineno, *doc_table, cells)
            if line.startswith("## "):
                in_drift = line.startswith("## Popularity drift")
            opened = BULLET.match(line)
            claim = in_drift and re.match(r"\d\. ", line)
            if opened:
                prose = self.open_prose(opened.group(1), "extensions", False)
                text = line[opened.end():]
            elif claim:
                prose = self.open_prose("drift", "drift claims", True)
                text = line[claim.end():]
            elif prose and line.startswith("  ") and line.strip():
                text = line
            else:
                prose = None
            if prose:
                prose[3] = self.prose(lineno, *prose, text)
            if line.startswith("|") and cells[0] in EXAMPLE1_ROWS:
                self.example1(lineno, cells[0], cells[1:])
            if line.startswith("Measured: **C_b = "):
                self.example2(lineno, line)
            fig9 = re.match(r"\| (\d+) \| interior \(≈ (\d+) streams\)", line)
            if fig9:
                self.fig9(lineno, *fig9.groups())
        for group, want in (("fig7", "the Fig 7 w = 1 table"),
                            ("example1", "Example 1's measured rows"),
                            ("example2", "Example 2's measured line"),
                            ("fig9", "the Fig 9 table's stream counts"),
                            ("extensions", "the ablation and extension "
                             "bullets"),
                            ("drift table", "the drift table"),
                            ("drift claims", "the drift claims"),
                            ("failures table", "the sharded-ladder table")):
            if not self.checked.get(group):
                self.failures.append("%s: found no number of %s" %
                                     (self.doc_path, want))
        return self.failures


def check_docs(record_path, doc_path):
    with open(record_path, encoding="utf-8") as f:
        check = DocCheck(f.read(), doc_path)
    failures = check.run()
    for failure in failures:
        print(failure)
    print("%s: %s numbers checked against %s, %d differ" % (
        doc_path, ", ".join("%s %d" % item for item in
                            sorted(check.checked.items())),
        record_path, len(failures)))
    return 1 if failures else 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "record":
        return check_record(sys.argv[2], sys.argv[3])
    if len(sys.argv) == 4 and sys.argv[1] == "docs":
        return check_docs(sys.argv[2], sys.argv[3])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main())

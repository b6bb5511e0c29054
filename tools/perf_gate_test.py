#!/usr/bin/env python3
"""Unit tests of perf_gate.py's decision rule, on synthetic pairs."""

import contextlib
import io
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

KERNEL = "BM_SimulationRun/10000"
# Per-pair host drift, applied to both halves of a pair.
DRIFT = (1.0, 1.6, 0.8, 2.0, 1.1, 0.7, 1.4, 1.9)


def pairs(ratio, drift=(1.0,) * 8):
    """Per-pair ns/event dicts: the change costs `ratio` times the parent."""
    parent = [{"ns_per_event": 200.0 * d} for d in drift]
    change = [{"ns_per_event": 200.0 * d * ratio} for d in drift]
    return parent, change


class JudgeTest(unittest.TestCase):

    def test_identical_sides_pass(self):
        row = perf_gate.judge(KERNEL, *pairs(1.0))
        self.assertEqual(row["verdict"], "ok")
        self.assertEqual(row["slower_pairs"], 0)
        self.assertEqual(row["median_ratio"], 1.0)

    def test_drift_that_slows_both_sides_of_every_pair_passes(self):
        row = perf_gate.judge(KERNEL, *pairs(1.05, DRIFT))
        self.assertEqual(row["verdict"], "ok")
        self.assertEqual(row["slower_pairs"], 8)
        self.assertAlmostEqual(row["median_ratio"], 1.05)

    def test_kernel_row_under_its_tier_passes(self):
        row = perf_gate.judge(KERNEL, *pairs(1.25))
        self.assertEqual((row["verdict"], row["slower_pairs"]), ("ok", 8))

    def test_kernel_row_over_its_tier_fails(self):
        row = perf_gate.judge(KERNEL, *pairs(1.5))
        self.assertEqual((row["verdict"], row["slower_pairs"]), ("FAIL", 8))
        self.assertEqual(row["tier"], perf_gate.KERNEL_TIER)

    def test_median_over_tier_without_enough_slower_pairs_passes(self):
        parent, change = pairs(1.5)
        for i in (1, 4):  # the change wins two pairs
            change[i] = {"ns_per_event": parent[i]["ns_per_event"] * 0.9}
        row = perf_gate.judge(KERNEL, parent, change)
        self.assertGreater(row["median_ratio"], perf_gate.KERNEL_TIER)
        self.assertEqual((row["verdict"], row["slower_pairs"]), ("ok", 6))

    def test_first_metric_both_sides_export_is_compared(self):
        parent = [{"ns_per_item": 100.0, "real_time_ns": 5.0}] * 8
        change = [{"ns_per_event": 10.0, "ns_per_item": 100.0,
                   "real_time_ns": 50.0, "events": 7}] * 8
        row = perf_gate.judge(KERNEL, parent, change)
        self.assertEqual((row["metric"], row["verdict"]),
                         ("ns_per_item", "ok"))
        self.assertEqual(row["change"]["events"], 7)
        self.assertNotIn("events", row["parent"])

    def test_row_on_one_side_is_reported_never_fatal(self):
        parent, change = pairs(1.0)
        parent_runs = [{KERNEL: p, "BM_Gone/1": p} for p in parent]
        change_runs = [{KERNEL: c, "BM_New/1": c} for c in change]
        rows, failed = perf_gate.compare(parent_runs, change_runs)
        self.assertFalse(failed)
        self.assertEqual(rows["BM_Gone/1"]["verdict"], "parent only")
        self.assertEqual(rows["BM_New/1"]["verdict"], "change only")
        self.assertEqual(rows[KERNEL]["verdict"], "ok")

    def test_peak_rss_is_held_to_the_other_tier(self):
        parent = [{"peak_rss_kb": 100_000}] * 8
        row = perf_gate.judge("peak_rss_kb", parent,
                              [{"peak_rss_kb": 190_000}] * 8)
        self.assertEqual((row["tier"], row["verdict"]),
                         (perf_gate.OTHER_TIER, "ok"))
        row = perf_gate.judge("peak_rss_kb", parent,
                              [{"peak_rss_kb": 210_000}] * 8)
        self.assertEqual(row["verdict"], "FAIL")


class GatedTableTest(unittest.TestCase):

    def test_every_kernel_prefix_is_selected_by_some_filter(self):
        # google-benchmark searches each row name for the filter regex; a
        # prefix no filter selects would hold rows to a tier never timed.
        for prefix in perf_gate.KERNEL_PREFIXES:
            self.assertTrue(
                any(re.search(benchmark_filter, prefix + "/1000")
                    for _, benchmark_filter in perf_gate.GATED),
                prefix + " is in KERNEL_PREFIXES but no GATED filter "
                "selects it")


    def test_the_replan_row_is_gated_at_the_other_tier(self):
        # The controller's re-plan is a whole solver, not one hot loop.
        self.assertIn(("bench/perf_planner", "BM_SolvePlan"),
                      perf_gate.GATED)
        self.assertEqual(perf_gate.tier("BM_SolvePlan/384"),
                         perf_gate.OTHER_TIER)


class RunOrderTest(unittest.TestCase):

    def test_each_binary_runs_on_both_sides_back_to_back(self):
        binaries = [binary for binary, _ in perf_gate.GATED]
        calls = []

        def fake_runner(tree, binary, benchmark_filter):
            calls.append((tree, binary))
            kb = {"P": 1000, "C": 2000}[tree] + binaries.index(binary)
            return {binary + "/row": {"real_time_ns": 1.0}}, kb

        with contextlib.redirect_stdout(io.StringIO()):
            runs = perf_gate.run_pairs({"parent": "P", "change": "C"},
                                       runner=fake_runner)
        per_pair = 2 * len(binaries)
        self.assertEqual(len(calls), perf_gate.PAIRS * per_pair)
        for i in range(perf_gate.PAIRS):
            first, second = ("P", "C") if i % 2 == 0 else ("C", "P")
            expected = [(tree, binary) for binary in binaries
                        for tree in (first, second)]
            self.assertEqual(calls[i * per_pair:(i + 1) * per_pair],
                             expected, "pair %d" % i)
        # Each side keeps its own rows and its own largest RSS per pair.
        top = len(binaries) - 1
        self.assertEqual(len(runs["parent"]), perf_gate.PAIRS)
        self.assertEqual(runs["parent"][0]["peak_rss_kb"],
                         {"peak_rss_kb": 1000 + top})
        self.assertEqual(runs["change"][1]["peak_rss_kb"],
                         {"peak_rss_kb": 2000 + top})
        self.assertIn(binaries[-1] + "/row", runs["change"][0])

    def test_the_document_keeps_every_pair_ratio(self):
        row = perf_gate.judge(KERNEL, *pairs(1.0, DRIFT))
        self.assertEqual(row["pair_ratios"], [1.0] * 8)
        parent, change = pairs(1.0)
        change[3] = {"ns_per_event": 300.0}
        row = perf_gate.judge(KERNEL, parent, change)
        self.assertEqual(row["pair_ratios"][3], 1.5)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests of stream_contract.py's statistics and parsing."""

import json
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stream_contract as sc  # noqa: E402


class StudentTTest(unittest.TestCase):

    def test_known_two_sided_p_values(self):
        # Table values: t_{0.975} for df 6 and 10, and df 1 (Cauchy).
        self.assertAlmostEqual(sc.t_two_sided_p(2.446912, 6), 0.05, places=6)
        self.assertAlmostEqual(sc.t_two_sided_p(2.228139, 10), 0.05, places=6)
        self.assertAlmostEqual(sc.t_two_sided_p(1.0, 1), 0.5, places=12)
        self.assertAlmostEqual(
            sc.t_two_sided_p(3.0, 1), 1.0 - 2.0 / math.pi * math.atan(3.0),
            places=12)
        self.assertEqual(sc.t_two_sided_p(0.0, 6), 1.0)

    def test_critical_value_inverts_the_p_value(self):
        for p, df in ((0.05, 6), (1e-4, 6), (2e-5, 14)):
            t = sc.t_critical(p, df)
            self.assertAlmostEqual(sc.t_two_sided_p(t, df) / p, 1.0, places=6)
        self.assertAlmostEqual(sc.t_critical(0.05, 6), 2.446912, places=5)


def side(values_by_quantity, cell="ff w=1 n=10"):
    return {cell: {q: list(v) for q, v in values_by_quantity.items()}}


class CompareTest(unittest.TestCase):

    def test_equal_sides_pass(self):
        a = side({"share.end": [0.06, 0.07, 0.065, 0.068]})
        rows, passed = sc.compare(a, a)
        self.assertTrue(passed)
        self.assertEqual(rows[0]["p"], 1.0)

    def test_a_shift_far_outside_the_seed_spread_fails(self):
        a = side({"share.end": [0.0667, 0.0669, 0.0664, 0.0668]})
        b = side({"share.end": [0.0733, 0.0731, 0.0736, 0.0730]})
        rows, passed = sc.compare(a, b)
        self.assertFalse(passed)
        lo, hi = rows[0]["interval"]
        self.assertTrue(lo > 0.0 and lo < rows[0]["diff"] < hi)

    def test_bonferroni_divides_alpha_over_every_quantity(self):
        # p = 0.005 fails alone at alpha 0.01, and passes in a family of
        # three quantities, where each is held to 0.01 / 3.
        t = sc.t_critical(0.005, 6)
        spread = [-1.0, 1.0, -1.0, 1.0]
        se = math.sqrt(sum(x * x for x in spread) * 2 / 6 * 0.5)
        shifted = [x + t * se for x in spread]
        rows, passed = sc.compare(side({"q": spread}), side({"q": shifted}))
        self.assertAlmostEqual(rows[0]["p"], 0.005, places=9)
        self.assertFalse(passed)
        three_a = side({"q": spread, "r": spread, "s": spread})
        three_b = side({"q": shifted, "r": spread, "s": spread})
        self.assertTrue(sc.compare(three_a, three_b)[1])

    def test_constant_sides_pass_when_equal_and_fail_when_not(self):
        zero = side({"share.within": [0.0] * 4})
        self.assertTrue(sc.compare(zero, zero)[1])
        moved = side({"share.within": [1e-4] * 4})
        self.assertFalse(sc.compare(zero, moved)[1])

    def test_a_quantity_on_one_side_only_fails(self):
        # A build that traces no vcr_begin records, or renames an operation,
        # must not drop those quantities from the check unnoticed.
        a = side({"duration.ff": [8.0, 8.1, 7.9, 8.0]})
        b = side({"duration.ff": [8.0, 8.1, 7.9, 8.0],
                  "duration.rw": [1.0, 1.0, 1.0, 1.0]})
        for first, second, only_on in ((a, b, "B"), (b, a, "A")):
            rows, passed = sc.compare(first, second)
            self.assertFalse(passed)
            verdicts = {r["quantity"]: r["verdict"] for r in rows}
            self.assertEqual(verdicts, {"duration.ff": "ok",
                                        "duration.rw": "FAIL"})
            self.assertEqual([r["only_on"] for r in rows if "only_on" in r],
                             [only_on])

    def test_a_cell_on_one_side_only_fails(self):
        a = side({"share.end": [0.06, 0.07, 0.065, 0.068]})
        b = dict(a, **side({"share.end": [0.06, 0.07, 0.065, 0.068]},
                           cell="rw w=1 n=10"))
        rows, passed = sc.compare(a, b)
        self.assertFalse(passed)
        self.assertEqual([(r["cell"], r.get("only_on")) for r in rows],
                         [("ff w=1 n=10", None), ("rw w=1 n=10", "B")])

    def test_bonferroni_counts_only_the_quantities_both_sides_report(self):
        # The one-sided quantity fails on its own; it does not tighten the
        # level the compared ones are held to.
        # p = 0.007 fails at 0.01 and would pass at 0.01 / 2.
        t = sc.t_critical(0.007, 6)
        spread = [-1.0, 1.0, -1.0, 1.0]
        se = math.sqrt(sum(x * x for x in spread) * 2 / 6 * 0.5)
        shifted = [x + t * se for x in spread]
        rows, _ = sc.compare(side({"q": spread}),
                             side({"q": shifted, "r": spread}))
        self.assertEqual([r["verdict"] for r in rows], ["FAIL", "FAIL"])
        self.assertAlmostEqual(rows[0]["p"], 0.007, places=9)


class GridAndParsingTest(unittest.TestCase):

    def test_the_full_grid_is_the_paper_grids_84_cells(self):
        cells = sc.grid_cells("full")
        self.assertEqual(len(cells), 84)
        self.assertEqual(len(set(cells)), 84)
        self.assertIn(("rw", 0.5, 230), cells)
        self.assertNotIn(("rw", 2.0, 70), cells)  # 70 * 2 >= 120
        self.assertEqual(len(sc.grid_cells("quick")), 12)

    def test_report_counts_parse_into_resumes_and_shares(self):
        line = ("SimulationReport{P(hit)=0.690565 [0.687009, 0.694098], "
                "resumes=65319 (within=2788, jump=37992, end=4327, "
                "miss=20212), admissions=15025}")
        self.assertEqual(sc.resume_quantities(line),
                         {"resumes": 65319.0,
                          "share.within": 2788 / 65319,
                          "share.jump": 37992 / 65319,
                          "share.end": 4327 / 65319,
                          "share.miss": 20212 / 65319})
        self.assertIsNone(sc.resume_quantities("SimulationReport{}"))

    def test_mean_durations_per_op_from_vcr_begin_records(self):
        records = [{"cat": "vcr_begin", "sub": "ff", "value": 2.0},
                   {"cat": "vcr_begin", "sub": "ff", "value": 4.0},
                   {"cat": "resume", "sub": "hit", "value": 99.0},
                   {"cat": "vcr_begin", "sub": "pau", "value": 1.5}]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.jsonl")
            with open(path, "w") as f:
                f.writelines(json.dumps(r) + "\n" for r in records)
            self.assertEqual(sc.mean_durations(path),
                             {"duration.ff": 3.0, "duration.pau": 1.5})
            with open(path, "a") as f:
                f.write(json.dumps({"cat": "vcr_begin", "sub": "rw",
                                    "value": -1.0}) + "\n")
            with self.assertRaises(SystemExit):
                sc.mean_durations(path)


if __name__ == "__main__":
    unittest.main()

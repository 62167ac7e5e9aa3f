#!/usr/bin/env python3
"""Tests of perfbench_gate's decision and report on synthetic results.

    python3 .github/scripts/test_perfbench_gate.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perfbench_gate import (decide, fmt, quartiles, summary,  # noqa: E402
                            table_lines)

RATE = {"name": "maps_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}


def run(correct=True, code=0, **values):
    """One run as the gate records it: (exit code, result line)."""
    return code, {"correct": correct, "metrics": {
        name: {"value": value, "unit": "-"} for name, value in values.items()}}


def runs(metric, *values):
    return [run(**{metric["name"]: v}) for v in values]


def verdicts(metric, base, head):
    rows, failures = decide([metric], base, head)
    return [row[-1] for row in rows], failures


class DecideTest(unittest.TestCase):
    def test_higher_metric_dropping_past_its_bound_fails(self):
        got, failures = verdicts(RATE, runs(RATE, *[100] * 5),
                                 runs(RATE, *[70] * 5))
        self.assertEqual(got, ["FAIL"])
        self.assertEqual(len(failures), 1)
        self.assertIn("maps_per_s", failures[0])

    def test_higher_metric_dropping_within_its_bound_passes(self):
        got, failures = verdicts(RATE, runs(RATE, *[100] * 5),
                                 runs(RATE, *[80] * 5))
        self.assertEqual((got, failures), (["ok"], []))

    def test_lower_metric_rising_past_its_bound_fails(self):
        got, failures = verdicts(LATENCY, runs(LATENCY, *[2.0] * 5),
                                 runs(LATENCY, *[2.6] * 5))
        self.assertEqual(got, ["FAIL"])
        self.assertIn("latency_p50_ms", failures[0])

    def test_lower_metric_rising_within_its_bound_passes(self):
        got, failures = verdicts(LATENCY, runs(LATENCY, *[2.0] * 5),
                                 runs(LATENCY, *[2.4] * 5))
        self.assertEqual((got, failures), (["ok"], []))

    def test_large_improvement_passes(self):
        self.assertEqual(verdicts(RATE, runs(RATE, *[100] * 5),
                                  runs(RATE, *[300] * 5)), (["ok"], []))
        self.assertEqual(verdicts(LATENCY, runs(LATENCY, *[2.0] * 5),
                                  runs(LATENCY, *[0.5] * 5)), (["ok"], []))

    def test_incorrect_run_fails_on_either_side(self):
        good = runs(RATE, *[100] * 5)
        bad = list(good)
        # The result line alone fails the run, whatever its exit code.
        bad[2] = run(correct=False, code=0, maps_per_s=100)
        for base, head, side in ((good, bad, "head"), (bad, good, "base")):
            got, failures = verdicts(RATE, base, head)
            self.assertEqual(got, ["ok"])
            self.assertEqual(len(failures), 1)
            self.assertIn(f"{side} run with seed 3", failures[0])

    def test_run_without_result_fails(self):
        head = runs(RATE, *[100] * 4) + [(2, None)]
        _, failures = verdicts(RATE, runs(RATE, *[100] * 5), head)
        self.assertEqual(len(failures), 1)
        self.assertIn("head run with seed 5: exit 2", failures[0])

    def test_one_outlier_does_not_flip_a_median(self):
        base = runs(RATE, 100, 101, 99, 100, 102)
        # One slow run among good ones passes...
        slow = runs(RATE, 98, 20, 99, 101, 100)
        self.assertEqual(verdicts(RATE, base, slow)[0], ["ok"])
        self.assertEqual(verdicts(RATE, slow, base)[0], ["ok"])
        # ...and one fast run among slow ones does not rescue them.
        fast = runs(RATE, 60, 61, 59, 500, 60)
        self.assertEqual(verdicts(RATE, base, fast)[0], ["FAIL"])

    def test_metric_missing_from_the_base_is_new_and_not_gated(self):
        rows, failures = decide([RATE, LATENCY], runs(RATE, *[100] * 5),
                                [run(maps_per_s=100, latency_p50_ms=9.0)] * 5)
        self.assertEqual([row[-1] for row in rows], ["ok", "new"])
        self.assertEqual(failures, [])



class ReportTest(unittest.TestCase):
    def test_quartiles_of_a_known_five_run_set(self):
        self.assertEqual(quartiles(runs(RATE, 40, 10, 50, 20, 30),
                                   "maps_per_s"), (20, 30, 40))
        self.assertEqual(quartiles(runs(RATE, 1.5, 9.0, 2.5, 4.0, 2.0),
                                   "maps_per_s"), (2.0, 2.5, 4.0))
        self.assertEqual(quartiles(runs(RATE, 7), "maps_per_s"), (7, 7, 7))
        self.assertIsNone(quartiles(runs(RATE, 7), "latency_p50_ms"))

    def test_json_rows_match_the_printed_table(self):
        zero = {"name": "ok_pct", "better": "lower", "bound": 0.01}
        spec = [RATE, LATENCY, zero]
        table, failures = [], []
        for workload, base, head in (
                ("signoff", [run(maps_per_s=v, ok_pct=0) for v in
                             (100, 90, 110, 105, 95)],
                 [run(maps_per_s=v, latency_p50_ms=2.0, ok_pct=1) for v in
                  (60, 70, 65, 75, 80)]),
                ("build", [run(maps_per_s=10, latency_p50_ms=v, ok_pct=0)
                           for v in (2.0, 2.2, 2.1, 1.9, 2.05)],
                 [run(maps_per_s=12, latency_p50_ms=v, ok_pct=0)
                  for v in (2.1, 2.0, 2.3, 2.2, 1.8)])):
            rows, bad = decide(spec, base, head)
            table += [(workload, *row) for row in rows]
            failures += bad
        report = json.loads(json.dumps(
            summary(table, range(1, 6), 12.34, failures)))
        self.assertEqual((report["pairs"], report["seeds"]),
                         (5, [1, 2, 3, 4, 5]))
        self.assertEqual(report["nproc"], os.cpu_count())
        self.assertEqual(report["wall_min"], 12.3)
        self.assertFalse(report["passed"])
        self.assertEqual(report["failures"], failures)

        lines = table_lines(table)
        self.assertEqual(len(lines) - 1, len(table))
        self.assertEqual(sum(len(m) for m in report["workloads"].values()),
                         len(table))
        for line in lines[1:]:
            workload, name, base, head, change, bound, verdict = line.split()
            row = report["workloads"][workload][name]
            for printed, side in ((base, "base"), (head, "head")):
                want = row[side] and row[side]["median"]
                self.assertEqual(printed, fmt(want), line)
                if row[side]:
                    self.assertLessEqual(row[side]["q1"], want)
                    self.assertLessEqual(want, row[side]["q3"])
            self.assertEqual(change, fmt(row["change"], "{:+.1%}"), line)
            self.assertEqual(bound, f"{row['bound']:.0%}", line)
            self.assertEqual(verdict, row["verdict"], line)
        signoff = report["workloads"]["signoff"]
        self.assertEqual(signoff["maps_per_s"]["head"],
                         {"q1": 65, "median": 70, "q3": 75})
        self.assertEqual(signoff["latency_p50_ms"]["verdict"], "new")
        # A base median of 0 leaves no number for the change.
        self.assertIsNone(signoff["ok_pct"]["change"])
        self.assertEqual(signoff["ok_pct"]["verdict"], "FAIL")


if __name__ == "__main__":
    unittest.main()

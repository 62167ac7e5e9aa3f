#!/usr/bin/env python3
"""Tests of perfbench_gate.decide on synthetic base and head results.

    python3 .github/scripts/test_perfbench_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perfbench_gate import decide  # noqa: E402

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


if __name__ == "__main__":
    unittest.main()

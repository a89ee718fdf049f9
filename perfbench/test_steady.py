#!/usr/bin/env python3
"""Tests of the steadiness tool's statistics and result parsing.

    python3 perfbench/test_steady.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import steady  # noqa: E402  (import after the path is set)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 9.9, 11.5]
        med, q1, q3, rel = steady.spread(values)
        self.assertAlmostEqual(med, 10.35)
        self.assertAlmostEqual(q1, 9.8)
        self.assertAlmostEqual(q3, 11.125)
        self.assertAlmostEqual(rel, (11.125 - 9.8) / 10.35)

    def test_single_value_has_no_spread(self):
        self.assertEqual(steady.spread([3.0]), (3.0, 3.0, 3.0, 0.0))


class ParseResultTest(unittest.TestCase):
    def test_takes_the_last_line(self):
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                           "metrics": {"x": {"value": 1.5, "unit": "ms"}}})
        result = steady.parse_result("report\nmore\n" + line + "\n\n")
        self.assertEqual(result["metrics"]["x"]["value"], 1.5)

    def test_rejects_incomplete_results(self):
        with self.assertRaises(ValueError):
            steady.parse_result('{"correct": true}\n')
        with self.assertRaises(ValueError):
            steady.parse_result("")


class BenchmarkSpecTest(unittest.TestCase):
    def test_every_end_to_end_metric_has_a_bound(self):
        spec, bounds = steady.load_bounds(steady.ROOT)
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertEqual(bounds[metric["name"]], metric["bound"])
        self.assertIn("setup_s", bounds)


if __name__ == "__main__":
    unittest.main()

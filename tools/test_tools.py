#!/usr/bin/env python3
"""Tests for the sidecar tools: malformed input is a schema error, never a
crash, and bench_compare's counter gate.

Each loader gets a minimal valid document; every value in it, top-level
fields and everything nested in them, is then replaced in turn by null,
an int, a string, [], {} and true (skipping replacements of the value's
own JSON type). Every mutated document must exit 2 with no traceback.
Run: python3 tools/test_tools.py
"""

import contextlib
import copy
import importlib
import io
import json
import os
import sys
import tempfile
import traceback
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)

BENCH = {
    "schema_version": 2, "git_sha": "abc", "timestamp": "2026-01-02T03:04:05Z",
    "quick": True, "driver_repetitions": 1,
    "benchmarks": [{"name": "fig06_classes",
                    "counters": {"messages_sent": 10, "model_fits": 3}}],
}

TIMELINE = {
    "schema_version": 1, "kind": "snapq-timeline", "benchmark": "soak",
    "git_sha": "abc", "quick": True, "horizon": 100, "sample_interval": 10,
    "samples": 2,
    "series": {"health.live": {
        "last": 1.0, "ewma": 1.0, "min": 1.0, "max": 1.0, "mean": 1.0,
        "slope": 0.0, "samples": 2,
        "bins": [{"t0": 0, "t1": 10, "min": 1.0, "max": 1.0, "mean": 1.0,
                  "count": 2}]}},
    "slo": {"rules": ["health.live < 0.5"], "breaches": [], "verdict": "pass"},
}

TOPO = {
    "schema_version": 1, "kind": "snapq-topo", "benchmark": "fig09",
    "git_sha": "abc", "quick": True, "t": 5, "num_nodes": 2, "live": 2,
    "summary": {"partitions": 1, "bridges": 1, "articulation_nodes": 0,
                "isolated": 0, "avg_degree": 1.0, "max_degree": 1,
                "weak_links": 0, "links_observed": 1},
    "clusters": [{"rep": 0, "size": 2, "radius": 0.5, "depth": 1}],
    "bridges": [[0, 1]], "articulation": [], "extras": {"churn.rate": 0.0},
    "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "alive": True, "degree": 1,
               "component": 0, "rep": 0},
              {"id": 1, "x": 0.5, "y": 0.0, "alive": True, "degree": 1,
               "component": 0, "rep": 0}],
    "links": [{"from": 0, "to": 1, "deliveries": 3, "snoops": 0,
               "losses": 0, "ewma": 1.0, "last": 4}],
}

CAUSES = {"election": 2.0, "maintenance": 0.0, "data": 0.0, "query": 0.0,
          "cache": 0.0, "direct": 0.0, "killed": 0.0}
ENERGY = {
    "schema_version": 1, "kind": "snapq-energymap", "benchmark": "table3",
    "git_sha": "abc", "quick": True, "t": 10, "runs": 1, "num_nodes": 1,
    "unlimited": False, "initial_battery": 100.0,
    "totals": {"drained": 2.0, "remaining": 98.0, "deaths": 0,
               "by_cause": CAUSES,
               "by_direction": {"tx": 1.0, "rx": 1.0, "snoop": 0.0},
               "by_root_kind": {"election": 2.0, "reelection": 0.0,
                                "heartbeat_round": 0.0, "query": 0.0,
                                "violation": 0.0, "untraced": 0.0}},
    "forecast": {"first_death_tick": -1.0, "coverage_knee_tick": -1.0},
    "extras": {"savings": 0.5},
    "nodes": [{"id": 0, "x": 0.5, "y": 0.5, "remaining": 98.0,
               "drained": 2.0, "deaths": 0, "by_cause": dict(CAUSES)}],
}

# tool module -> (valid document, argv templates; "{}" is the file path)
LOADERS = {
    "bench_compare": (BENCH, [["--validate", "{}"]]),
    "timeline_check": (TIMELINE, [["--validate", "{}"],
                                  ["--validate", "--json", os.devnull, "{}"]]),
    "topo_report": (TOPO, [["{}"], ["{}", "--validate"],
                           ["{}", "--validate", "--json", os.devnull]]),
    "energy_report": (ENERGY, [["{}"], ["{}", "--json"]]),
}

REPLACEMENTS = [None, 7, "x", [], {}, True]


def json_type(value):
    if isinstance(value, bool):
        return bool
    if isinstance(value, (int, float)):
        return float
    return type(value)


def field_paths(doc, prefix=()):
    """The path (keys and list indices) of every value inside `doc`."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def run_tool(module, argv):
    """Runs module.main() with argv; returns (exit code, stdout, stderr).
    An exception escaping main() is a crash and comes back as code None
    with its traceback on stderr."""
    tool = importlib.import_module(module)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = [module + ".py"] + argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tool.main()
            except SystemExit as e:
                code = e.code
            except Exception:  # pylint: disable=broad-except
                traceback.print_exc(file=err)
                code = None
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


class ToolTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.files = 0

    def write(self, doc):
        self.files += 1
        path = os.path.join(self.tmp.name, f"doc{self.files}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path


class MalformedInputTest(ToolTest):
    def check_loader(self, module):
        doc, templates = LOADERS[module]
        valid = self.write(doc)
        for template in templates:
            argv = [valid if a == "{}" else a for a in template]
            code, _, err = run_tool(module, argv)
            self.assertEqual(code, 0, f"{module} {argv}: fixture invalid\n"
                             f"{err}")
        cases = 0
        for path in field_paths(doc):
            for replacement in REPLACEMENTS:
                if json_type(replacement) is json_type(lookup(doc, path)):
                    continue
                mutated = copy.deepcopy(doc)
                lookup(mutated, path[:-1])[path[-1]] = replacement
                file = self.write(mutated)
                for template in templates:
                    argv = [file if a == "{}" else a for a in template]
                    code, _, err = run_tool(module, argv)
                    where = f"{module} {template} {path}={replacement!r}"
                    self.assertNotIn("Traceback", err, where)
                    self.assertEqual(code, 2, f"{where}\n{err}")
                    cases += 1
        self.assertGreater(cases, 0)

    def test_bench_compare(self):
        self.check_loader("bench_compare")

    def test_timeline_check(self):
        self.check_loader("timeline_check")

    def test_topo_report(self):
        self.check_loader("topo_report")

    def test_energy_report(self):
        self.check_loader("energy_report")


class BenchCompareTest(ToolTest):
    def with_counter(self, name, value):
        doc = copy.deepcopy(BENCH)
        doc["benchmarks"][0]["counters"][name] = value
        return self.write(doc)

    def test_schema_2_validates(self):
        code, out, _ = run_tool("bench_compare",
                                ["--validate", self.write(BENCH)])
        self.assertEqual(code, 0)
        self.assertIn("valid (schema 2", out)

    def test_schema_1_is_rejected(self):
        old = copy.deepcopy(BENCH)
        old["schema_version"] = 1
        old["harness_repetitions"] = 1
        old["benchmarks"][0]["wall_ms"] = {"median": 1.0, "mean": 1.0,
                                           "min": 1.0, "max": 1.0, "reps": 1}
        code, _, err = run_tool("bench_compare",
                                ["--validate", self.write(old)])
        self.assertEqual(code, 2)
        self.assertIn("schema_version 1 != 2", err)

    def test_fail_on_regression_is_exact(self):
        base = self.write(BENCH)
        same = self.write(BENCH)
        drifted = self.with_counter("model_fits", 4)
        code, _, _ = run_tool("bench_compare",
                              ["--fail-on-regression", base, same])
        self.assertEqual(code, 0)
        code, out, _ = run_tool("bench_compare",
                                ["--fail-on-regression", base, drifted])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION: fig06_classes: counter model_fits 3 -> 4",
                      out)
        code, out, _ = run_tool("bench_compare", [
            "--fail-on-regression", base, self.with_counter("cache_ops", 0)])
        self.assertEqual(code, 1)
        self.assertIn("counter cache_ops None -> 0", out)

    def test_plain_compare_notes_drift(self):
        code, out, _ = run_tool("bench_compare", [
            self.write(BENCH), self.with_counter("messages_sent", 11)])
        self.assertEqual(code, 0)
        self.assertIn("note: fig06_classes: counter messages_sent 10 -> 11",
                      out)


if __name__ == "__main__":
    unittest.main()

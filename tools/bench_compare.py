#!/usr/bin/env python3
"""Validate and diff BENCH.json performance reports.

Two modes:

  bench_compare.py --validate CURRENT.json [--min-benchmarks N]
      schema-check one report (CI gates on this).

  bench_compare.py BASELINE.json CURRENT.json [--warn-only] [tolerances]
      schema-check both, then compare per-benchmark wall time, throughput
      and peak RSS against percentage tolerances. Each wall line carries
      the baseline/current speedup factor; wall and peak-RSS changes past
      the tolerance in the good direction print as "[improved]" notes.
      Exits 1 on regression unless --warn-only; schema violations always
      exit 2.

With --fail-on-regression, counter mismatches are regressions instead of
notes: the hot-op counters are fully seeded, so two reports of the same
tree must agree exactly. This is the determinism gate for the parallel
experiment engine — a `--jobs 1` and a `--jobs N` run must produce
bit-identical counter sets, only their wall clocks may differ.

The schema is the one frozen by bench/bench_report.h (schema_version 1)
and pinned by tests/bench/bench_report_test.cc — update all three
together.
"""

import argparse
import json
import sys

from sidecar_schema import check_fields, is_number

SCHEMA_VERSION = 1

SUMMARY_FIELDS = {"median": float, "mean": float, "min": float, "max": float,
                  "reps": int}
LATENCY_FIELDS = {"count": int, "p50": float, "p95": float, "p99": float,
                  "max": float}
TOP_FIELDS = {"schema_version": int, "git_sha": str, "timestamp": str,
              "quick": bool, "harness_repetitions": int,
              "driver_repetitions": int, "benchmarks": list}


def validate(report, path, min_benchmarks):
    """Returns a list of schema-violation strings (empty = valid)."""
    errors = []
    if not isinstance(report, dict):
        return [f"{path}: top level is not an object"]
    check_fields(report, TOP_FIELDS, path, errors)
    if report.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"{path}: schema_version "
                      f"{report.get('schema_version')!r} != {SCHEMA_VERSION}")
    benchmarks = report.get("benchmarks", [])
    if isinstance(benchmarks, list):
        if len(benchmarks) < min_benchmarks:
            errors.append(f"{path}: only {len(benchmarks)} benchmarks, "
                          f"wanted >= {min_benchmarks}")
        for b in benchmarks:
            where = f"{path}:{b.get('name', '?') if isinstance(b, dict) else '?'}"
            if not isinstance(b, dict):
                errors.append(f"{where}: benchmark entry is not an object")
                continue
            check_fields(b, {"name": str, "wall_ms": dict, "cpu_ms": dict,
                         "counters": dict, "throughput": dict,
                         "latency_us": dict, "peak_rss_kb": int},
                         where, errors)
            for key in ("wall_ms", "cpu_ms"):
                if isinstance(b.get(key), dict):
                    check_fields(b[key], SUMMARY_FIELDS, f"{where}.{key}",
                                 errors)
            for key, value in b.get("counters", {}).items() \
                    if isinstance(b.get("counters"), dict) else []:
                if not is_number(value, int):
                    errors.append(f"{where}.counters.{key}: not an integer")
            for key, value in b.get("throughput", {}).items() \
                    if isinstance(b.get("throughput"), dict) else []:
                if not is_number(value, float):
                    errors.append(f"{where}.throughput.{key}: not a number")
            for key, value in b.get("latency_us", {}).items() \
                    if isinstance(b.get("latency_us"), dict) else []:
                if isinstance(value, dict):
                    check_fields(value, LATENCY_FIELDS,
                                 f"{where}.latency_us.{key}", errors)
                else:
                    errors.append(f"{where}.latency_us.{key}: not an object")
    return errors


def pct_change(old, new):
    """Percentage change, or None when it is undefined (zero baseline,
    nonzero current): the old float("inf") rendered as a bogus "+inf%"
    and poisoned tolerance comparisons."""
    if old == 0:
        return 0.0 if new == 0 else None
    return 100.0 * (new - old) / old


def fmt_delta(delta):
    return "new: zero baseline" if delta is None else f"{delta:+.1f}%"


def compare(base, cur, args):
    """Returns (regressions, notes) as lists of message strings."""
    regressions, notes = [], []
    base_by_name = {b["name"]: b for b in base["benchmarks"]}
    cur_by_name = {b["name"]: b for b in cur["benchmarks"]}

    for name in sorted(set(base_by_name) - set(cur_by_name)):
        notes.append(f"{name}: present in baseline only")
    for name in sorted(set(cur_by_name) - set(base_by_name)):
        notes.append(f"{name}: new benchmark (no baseline)")
    if base.get("quick") != cur.get("quick"):
        notes.append("quick-mode mismatch between reports; wall/throughput "
                     "comparison is apples-to-oranges")

    for name in sorted(set(base_by_name) & set(cur_by_name)):
        b, c = base_by_name[name], cur_by_name[name]

        delta = pct_change(b["wall_ms"]["median"], c["wall_ms"]["median"])
        old_wall, new_wall = b["wall_ms"]["median"], c["wall_ms"]["median"]
        speedup = f", {old_wall / new_wall:.2f}x speedup" if new_wall > 0 \
            else ""
        line = (f"{name}: wall {old_wall:.1f} -> {new_wall:.1f} ms "
                f"({fmt_delta(delta)}{speedup})")
        if delta is None:
            # A zero baseline cannot be compared against a tolerance; flag
            # the measurement explicitly instead of failing on "+inf%".
            notes.append(line)
        elif delta > args.wall_tol:
            regressions.append(line)
        elif delta < -args.wall_tol:
            notes.append(line + " [improved]")

        for key, old in b["throughput"].items():
            new = c["throughput"].get(key)
            if new is None or old == 0:
                continue
            delta = pct_change(old, new)
            if delta < -args.throughput_tol:
                regressions.append(f"{name}: throughput {key} "
                                   f"{old:.0f} -> {new:.0f} ({delta:+.1f}%)")

        delta = pct_change(b["peak_rss_kb"], c["peak_rss_kb"])
        line = (f"{name}: peak RSS {b['peak_rss_kb']} -> "
                f"{c['peak_rss_kb']} KB ({fmt_delta(delta)})")
        if delta is None:
            notes.append(line)
        elif delta > args.rss_tol:
            regressions.append(line)
        elif delta < -args.rss_tol:
            notes.append(line + " [improved]")

        for key, old in b["counters"].items():
            new = c["counters"].get(key)
            if new is not None and new != old:
                msg = f"{name}: counter {key} {old} -> {new} " \
                      "(seeded work changed)"
                if args.fail_on_regression:
                    regressions.append(msg)
                else:
                    notes.append(msg)
    return regressions, notes


def load(path, min_benchmarks):
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    errors = validate(report, path, min_benchmarks)
    if errors:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        sys.exit(2)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH.json (or the only "
                        "file with --validate)")
    parser.add_argument("current", nargs="?", help="current BENCH.json")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check only, no comparison")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="treat counter mismatches as regressions "
                             "(determinism gate: seeded runs must agree "
                             "exactly)")
    parser.add_argument("--min-benchmarks", type=int, default=1,
                        help="fail validation below this many benchmarks")
    parser.add_argument("--wall-tol", type=float, default=25.0,
                        help="%% wall-time growth tolerated (default 25)")
    parser.add_argument("--throughput-tol", type=float, default=25.0,
                        help="%% throughput drop tolerated (default 25)")
    parser.add_argument("--rss-tol", type=float, default=15.0,
                        help="%% peak-RSS growth tolerated (default 15)")
    args = parser.parse_args()

    if args.validate:
        if args.current:
            parser.error("--validate takes a single file")
        report = load(args.baseline, args.min_benchmarks)
        print(f"{args.baseline}: valid (schema {SCHEMA_VERSION}, "
              f"{len(report['benchmarks'])} benchmarks, "
              f"git {report['git_sha']})")
        return 0

    if not args.current:
        parser.error("need BASELINE and CURRENT (or --validate)")
    base = load(args.baseline, args.min_benchmarks)
    cur = load(args.current, args.min_benchmarks)

    regressions, notes = compare(base, cur, args)
    for n in notes:
        print(f"note: {n}")
    for r in regressions:
        print(f"REGRESSION: {r}")
    print(f"compared {len(cur['benchmarks'])} benchmarks: "
          f"{len(regressions)} regression(s)")
    if regressions and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

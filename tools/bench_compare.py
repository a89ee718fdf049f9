#!/usr/bin/env python3
"""Validate and diff BENCH.json counter reports.

Two modes:

  bench_compare.py --validate CURRENT.json [--min-benchmarks N]
      schema-check one report (CI gates on this).

  bench_compare.py BASELINE.json CURRENT.json [--fail-on-regression]
      schema-check both, then compare every benchmark's hot-op counters.
      A counter that differs prints as a note (the seeded work changed)
      and the tool exits 0.

With --fail-on-regression, counter mismatches are regressions (exit 1)
instead of notes: the hot-op counters are fully seeded, so two reports of
the same tree must agree exactly. This is the determinism gate for the
parallel experiment engine — a `--jobs 1` and a `--jobs N` run must
produce bit-identical counter sets. Schema violations always exit 2.

BENCH.json holds no timings: time and memory are measured by perfbench
(BENCHMARK.json). The schema is the one frozen by bench/bench_report.h
(schema_version 2) and pinned by tests/bench/bench_report_test.cc —
update all three together.
"""

import argparse
import sys

from sidecar_schema import check_fields, is_number, load

SCHEMA_VERSION = 2

TOP_FIELDS = {"schema_version": int, "git_sha": str, "timestamp": str,
              "quick": bool, "driver_repetitions": int, "benchmarks": list}
BENCHMARK_FIELDS = {"name": str, "counters": dict}


def validate(report, path, min_benchmarks):
    """Returns a list of schema-violation strings (empty = valid)."""
    errors = []
    if not isinstance(report, dict):
        return [f"{path}: top level is not an object"]
    if report.get("schema_version") != SCHEMA_VERSION:
        # Another version's fields would each be reported; one line says it.
        return [f"{path}: schema_version {report.get('schema_version')!r} "
                f"!= {SCHEMA_VERSION}"]
    check_fields(report, TOP_FIELDS, path, errors)
    benchmarks = report.get("benchmarks")
    if not isinstance(benchmarks, list):
        return errors
    if len(benchmarks) < min_benchmarks:
        errors.append(f"{path}: only {len(benchmarks)} benchmarks, "
                      f"wanted >= {min_benchmarks}")
    for i, b in enumerate(benchmarks):
        where = f"{path}:benchmarks[{i}]"
        if not isinstance(b, dict):
            errors.append(f"{where}: not an object")
            continue
        check_fields(b, BENCHMARK_FIELDS, where, errors)
        counters = b.get("counters")
        for key, value in counters.items() if isinstance(counters, dict) \
                else []:
            if not is_number(value, int):
                errors.append(f"{where}.counters.{key}: not an integer")
    return errors


def compare(base, cur, args):
    """Returns (regressions, notes) as lists of message strings."""
    regressions, notes = [], []
    base_by_name = {b["name"]: b for b in base["benchmarks"]}
    cur_by_name = {b["name"]: b for b in cur["benchmarks"]}

    for name in sorted(set(base_by_name) - set(cur_by_name)):
        notes.append(f"{name}: present in baseline only")
    for name in sorted(set(cur_by_name) - set(base_by_name)):
        notes.append(f"{name}: new benchmark (no baseline)")
    if base["quick"] != cur["quick"]:
        notes.append("quick-mode mismatch between reports; the counters "
                     "count different work")

    for name in sorted(set(base_by_name) & set(cur_by_name)):
        base_counters = base_by_name[name]["counters"]
        cur_counters = cur_by_name[name]["counters"]
        for key in sorted(set(base_counters) | set(cur_counters)):
            old, new = base_counters.get(key), cur_counters.get(key)
            if new != old:
                msg = f"{name}: counter {key} {old} -> {new} " \
                      "(seeded work changed)"
                (regressions if args.fail_on_regression else notes).append(
                    msg)
    return regressions, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH.json (or the only "
                        "file with --validate)")
    parser.add_argument("current", nargs="?", help="current BENCH.json")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check only, no comparison")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="treat counter mismatches as regressions "
                             "(determinism gate: seeded runs must agree "
                             "exactly)")
    parser.add_argument("--min-benchmarks", type=int, default=1,
                        help="fail validation below this many benchmarks")
    args = parser.parse_args()

    if args.validate:
        if args.current:
            parser.error("--validate takes a single file")
        report, _ = load(args.baseline, validate, args.min_benchmarks)
        print(f"{args.baseline}: valid (schema {SCHEMA_VERSION}, "
              f"{len(report['benchmarks'])} benchmarks, "
              f"git {report['git_sha']})")
        return 0

    if not args.current:
        parser.error("need BASELINE and CURRENT (or --validate)")
    base, _ = load(args.baseline, validate, args.min_benchmarks)
    cur, _ = load(args.current, validate, args.min_benchmarks)

    regressions, notes = compare(base, cur, args)
    for n in notes:
        print(f"note: {n}")
    for r in regressions:
        print(f"REGRESSION: {r}")
    print(f"compared {len(cur['benchmarks'])} benchmarks: "
          f"{len(regressions)} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

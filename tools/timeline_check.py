#!/usr/bin/env python3
"""Validate and diff *.timeline.json telemetry sidecars.

Two modes:

  timeline_check.py --validate CURRENT.json [--require-pass] [--min-series N]
                    [--json PATH]
      schema-check one sidecar (the soak-smoke CI job gates on this).
      --require-pass additionally fails (exit 1) when the SLO verdict is
      "breach". --json writes a machine-readable verdict object to PATH
      ("-" for stdout) regardless of outcome — schema violations included —
      so CI consumes one JSON document instead of scraping stdout.

  timeline_check.py BASELINE.json CURRENT.json [--tol PCT]
      schema-check both, then compare per-series all-time mean and max
      against a percentage tolerance, and flag any series whose slope sign
      flipped from flat/negative to positive (a new upward trend — the
      memory-leak smell for proc.rss_kb). Exits 1 on regression or breach,
      2 on schema violation, 0 otherwise.

The schema is the one frozen by src/obs/timeline.h (schema_version 1,
kind "snapq-timeline") and pinned by tests/obs/timeseries_test.cc —
update all three together.
"""

import argparse
import sys

from sidecar_schema import check_fields, load, write_json_verdict

SCHEMA_VERSION = 1
KIND = "snapq-timeline"

TOP_FIELDS = {"schema_version": int, "kind": str, "benchmark": str,
              "git_sha": str, "quick": bool, "horizon": int,
              "sample_interval": int, "samples": int, "series": dict,
              "slo": dict}
SERIES_FIELDS = {"last": float, "ewma": float, "min": float, "max": float,
                 "mean": float, "slope": float, "samples": int, "bins": list}
BIN_FIELDS = {"t0": int, "t1": int, "min": float, "max": float,
              "mean": float, "count": int}
SLO_FIELDS = {"rules": list, "breaches": list, "verdict": str}
BREACH_FIELDS = {"rule": str, "metric": str, "since": int, "confirmed": int,
                 "observed": float, "threshold": float}


def validate(doc, path, min_series):
    """Returns a list of schema-violation strings (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    check_fields(doc, TOP_FIELDS, path, errors)
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"{path}: schema_version "
                      f"{doc.get('schema_version')!r} != {SCHEMA_VERSION}")
    if doc.get("kind") != KIND:
        errors.append(f"{path}: kind {doc.get('kind')!r} != {KIND!r}")

    series = doc.get("series", {})
    if isinstance(series, dict):
        if len(series) < min_series:
            errors.append(f"{path}: only {len(series)} series, "
                          f"wanted >= {min_series}")
        for name, s in series.items():
            where = f"{path}:series.{name}"
            if not isinstance(s, dict):
                errors.append(f"{where}: not an object")
                continue
            check_fields(s, SERIES_FIELDS, where, errors)
            bins = s.get("bins", [])
            if not isinstance(bins, list):
                continue
            retained = 0
            prev_t1 = None
            for i, b in enumerate(bins):
                bwhere = f"{where}.bins[{i}]"
                if not isinstance(b, dict):
                    errors.append(f"{bwhere}: not an object")
                    continue
                check_fields(b, BIN_FIELDS, bwhere, errors)
                if isinstance(b.get("count"), int):
                    retained += b["count"]
                if isinstance(b.get("t0"), int) and isinstance(
                        b.get("t1"), int):
                    if b["t1"] < b["t0"]:
                        errors.append(f"{bwhere}: t1 {b['t1']} < t0 {b['t0']}")
                    if prev_t1 is not None and b["t0"] < prev_t1:
                        errors.append(f"{bwhere}: bins out of time order "
                                      f"(t0 {b['t0']} < previous t1 "
                                      f"{prev_t1})")
                    prev_t1 = b["t1"]
            # The count invariant: bins merge, they never drop, so the
            # retained mass must equal the all-time sample count.
            if isinstance(s.get("samples"), int) and retained != s["samples"]:
                errors.append(f"{where}: retained bin count {retained} != "
                              f"samples {s['samples']}")

    slo = doc.get("slo", {})
    if isinstance(slo, dict):
        check_fields(slo, SLO_FIELDS, f"{path}:slo", errors)
        if slo.get("verdict") not in ("pass", "breach"):
            errors.append(f"{path}:slo: verdict {slo.get('verdict')!r} "
                          "not 'pass'/'breach'")
        for rule in slo.get("rules", []) \
                if isinstance(slo.get("rules"), list) else []:
            if not isinstance(rule, str):
                errors.append(f"{path}:slo.rules: entry is not a string")
        for i, b in enumerate(slo.get("breaches", [])) \
                if isinstance(slo.get("breaches"), list) else []:
            if isinstance(b, dict):
                check_fields(b, BREACH_FIELDS, f"{path}:slo.breaches[{i}]",
                             errors)
            else:
                errors.append(f"{path}:slo.breaches[{i}]: not an object")
        breaches = slo.get("breaches")
        if slo.get("verdict") == "pass" and isinstance(breaches, list) \
                and breaches:
            errors.append(f"{path}:slo: verdict 'pass' with "
                          f"{len(breaches)} breach(es)")
    return errors


def pct_change(old, new):
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return 100.0 * (new - old) / old


def compare(base, cur, args):
    """Returns (regressions, notes) as lists of message strings."""
    regressions, notes = [], []
    base_series, cur_series = base["series"], cur["series"]

    for name in sorted(set(base_series) - set(cur_series)):
        notes.append(f"{name}: present in baseline only")
    for name in sorted(set(cur_series) - set(base_series)):
        notes.append(f"{name}: new series (no baseline)")
    if base.get("quick") != cur.get("quick"):
        notes.append("quick-mode mismatch between sidecars; comparison is "
                     "apples-to-oranges")

    if cur["slo"]["verdict"] == "breach":
        for b in cur["slo"]["breaches"]:
            regressions.append(f"SLO breach: {b['rule']} "
                               f"(observed {b['observed']:.4g} at "
                               f"t={b['confirmed']})")

    for name in sorted(set(base_series) & set(cur_series)):
        b, c = base_series[name], cur_series[name]
        for stat in ("mean", "max"):
            delta = pct_change(b[stat], c[stat])
            line = (f"{name}: {stat} {b[stat]:.4g} -> {c[stat]:.4g} "
                    f"({delta:+.1f}%)")
            if abs(delta) > args.tol:
                if delta > 0:
                    regressions.append(line)
                else:
                    notes.append(line + " [improved]")
        # A slope that turns positive means the series started trending up
        # where the baseline was flat or falling.
        if b["slope"] <= args.slope_eps < c["slope"] - args.slope_eps:
            regressions.append(f"{name}: slope {b['slope']:.4g} -> "
                               f"{c['slope']:.4g} (new upward trend)")
    return regressions, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline timeline sidecar (or the "
                        "only file with --validate)")
    parser.add_argument("current", nargs="?", help="current timeline sidecar")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check only, no comparison")
    parser.add_argument("--require-pass", action="store_true",
                        help="with --validate, exit 1 when the SLO verdict "
                             "is 'breach'")
    parser.add_argument("--min-series", type=int, default=1,
                        help="fail validation below this many series")
    parser.add_argument("--tol", type=float, default=50.0,
                        help="%% per-series mean/max growth tolerated "
                             "(default 50)")
    parser.add_argument("--slope-eps", type=float, default=1e-6,
                        help="slope magnitude treated as flat")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--json", metavar="PATH",
                        help="with --validate, write a machine-readable "
                             "verdict object to PATH ('-' for stdout)")
    args = parser.parse_args()

    if args.json and not args.validate:
        parser.error("--json requires --validate")

    if args.validate:
        if args.current:
            parser.error("--validate takes a single file")
        doc, errors = load(args.baseline, validate, args.min_series,
                           strict=False)
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        valid = not errors
        verdict = doc["slo"]["verdict"] if valid else "invalid"
        breaches = doc["slo"]["breaches"] if valid else []
        if valid:
            print(f"{args.baseline}: valid (schema {SCHEMA_VERSION}, "
                  f"{len(doc['series'])} series, {doc['samples']} samples, "
                  f"slo {verdict})")
            if args.require_pass and verdict != "pass":
                for b in breaches:
                    print(f"SLO breach: {b['rule']} (observed "
                          f"{b['observed']:.4g} at t={b['confirmed']})")
        exit_code = 2 if not valid else (
            1 if args.require_pass and verdict != "pass" else 0)
        if args.json:
            write_json_verdict(args.json, {
                "file": args.baseline,
                "valid": valid,
                "schema_version": SCHEMA_VERSION,
                "series": len(doc["series"]) if valid else 0,
                "samples": doc["samples"] if valid else 0,
                "verdict": verdict,
                "breaches": breaches,
                "errors": errors,
                "exit_code": exit_code,
            })
        return exit_code

    if not args.current:
        parser.error("need BASELINE and CURRENT (or --validate)")
    base, _ = load(args.baseline, validate, args.min_series)
    cur, _ = load(args.current, validate, args.min_series)

    regressions, notes = compare(base, cur, args)
    for n in notes:
        print(f"note: {n}")
    for r in regressions:
        print(f"REGRESSION: {r}")
    print(f"compared {len(cur['series'])} series: "
          f"{len(regressions)} regression(s)")
    if regressions and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

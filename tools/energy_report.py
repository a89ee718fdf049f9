#!/usr/bin/env python3
"""Validate and summarize `.energymap.json` sidecars.

    energy_report.py MAP.json
        schema-check the sidecar, print the per-cause joule summary and an
        ASCII spatial heatmap of where the network spent its energy.

    energy_report.py MAP.json --baseline bench/baseline/energy_savings.json
        additionally gate the savings ratios the driver recorded in the
        sidecar's `extras` against the committed baseline: every baseline
        key must be present and must not fall more than `tolerance` below
        its committed value. This is the CI regression gate on Table 3's
        snapshot-vs-regular participation savings.

    energy_report.py MAP.json --json [...]
        emit a machine-readable verdict instead of the human report.

Exit status: 0 ok, 1 gate regression, 2 schema violation / unreadable
input. The schema is the one frozen by src/obs/energy_ledger.h
(kEnergyMapSchemaVersion) and pinned by tests/obs/energy_map_schema_test
-- update all three together.
"""

import argparse
import json
import math
import os
import sys

from sidecar_schema import is_number, load

SCHEMA_VERSION = 1
KIND = "snapq-energymap"

CAUSES = ["election", "maintenance", "data", "query", "cache", "direct",
          "killed"]
DIRECTIONS = ["tx", "rx", "snoop"]
ROOT_KINDS = ["election", "reelection", "heartbeat_round", "query",
              "violation", "untraced"]
NODE_FIELDS = ["id", "x", "y", "remaining", "drained", "deaths", "by_cause"]

HEAT_RAMP = " .:-=+*#%@"
GRID_W = 24
GRID_H = 12


def _num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_cause_object(obj, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: not an object")
        return
    if list(obj.keys()) != CAUSES:
        errors.append(f"{where}: keys {list(obj.keys())} != {CAUSES}")
        return
    for key, value in obj.items():
        if not _num(value):
            errors.append(f"{where}.{key}: not a number")


def validate(doc):
    """Returns a list of schema violations (empty when valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]

    def field(name, pred, desc):
        if name not in doc:
            errors.append(f"missing field '{name}'")
            return None
        if not pred(doc[name]):
            errors.append(f"field '{name}' is not {desc}")
            return None
        return doc[name]

    version = field("schema_version", lambda v: is_number(v, int),
                    "an int")
    if version is not None and version != SCHEMA_VERSION:
        errors.append(f"schema_version {version} != {SCHEMA_VERSION}")
    kind = field("kind", lambda v: isinstance(v, str), "a string")
    if kind is not None and kind != KIND:
        errors.append(f"kind '{kind}' != '{KIND}'")
    field("benchmark", lambda v: isinstance(v, str), "a string")
    field("git_sha", lambda v: isinstance(v, str), "a string")
    field("quick", lambda v: isinstance(v, bool), "a bool")
    field("t", lambda v: is_number(v, int), "an int")
    runs = field("runs", lambda v: is_number(v, int) and v >= 1,
                 "a positive int")
    num_nodes = field("num_nodes", lambda v: is_number(v, int) and v >= 0,
                      "a non-negative int")
    field("unlimited", lambda v: isinstance(v, bool), "a bool")
    field("initial_battery", _num, "a number")

    totals = field("totals", lambda v: isinstance(v, dict), "an object")
    if totals is not None:
        for key in ("drained", "remaining"):
            if not _num(totals.get(key)):
                errors.append(f"totals.{key}: not a number")
        if not is_number(totals.get("deaths"), int):
            errors.append("totals.deaths: not an int")
        _check_cause_object(totals.get("by_cause"), "totals.by_cause", errors)
        for key, keys in (("by_direction", DIRECTIONS),
                          ("by_root_kind", ROOT_KINDS)):
            obj = totals.get(key)
            if not isinstance(obj, dict) or list(obj.keys()) != keys:
                errors.append(f"totals.{key}: keys != {keys}")
                continue
            for name, value in obj.items():
                if not _num(value):
                    errors.append(f"totals.{key}.{name}: not a number")

    forecast = field("forecast", lambda v: isinstance(v, dict), "an object")
    if forecast is not None:
        for key in ("first_death_tick", "coverage_knee_tick"):
            if not _num(forecast.get(key)):
                errors.append(f"forecast.{key}: not a number")

    extras = field("extras", lambda v: isinstance(v, dict), "an object")
    if extras is not None:
        for key, value in extras.items():
            if not _num(value):
                errors.append(f"extras.{key}: not a number")

    nodes = field("nodes", lambda v: isinstance(v, list), "a list")
    if nodes is not None:
        if num_nodes is not None and len(nodes) != num_nodes:
            errors.append(f"nodes: {len(nodes)} rows != num_nodes "
                          f"{num_nodes}")
        for i, row in enumerate(nodes):
            if not isinstance(row, dict) or list(row.keys()) != NODE_FIELDS:
                errors.append(f"nodes[{i}]: keys != {NODE_FIELDS}")
                continue
            if row["id"] != i:
                errors.append(f"nodes[{i}]: id {row['id']} out of order")
            for key in ("x", "y", "remaining", "drained"):
                if not _num(row[key]):
                    errors.append(f"nodes[{i}].{key}: not a number")
            if not is_number(row["deaths"], int):
                errors.append(f"nodes[{i}].deaths: not an int")
            _check_cause_object(row["by_cause"], f"nodes[{i}].by_cause",
                                errors)

    # Internal consistency: the per-node map and the cause breakdown must
    # both re-sum to the drained total (the ledger's conservation
    # invariant, modulo JSON number formatting).
    if not errors and nodes and totals is not None:
        drained = totals["drained"]
        tol = 1e-6 * max(1.0, abs(drained))
        node_sum = sum(row["drained"] for row in nodes)
        if not math.isclose(node_sum, drained, abs_tol=tol):
            errors.append(f"sum(nodes.drained)={node_sum!r} != "
                          f"totals.drained={drained!r}")
        cause_sum = sum(totals["by_cause"].values())
        if not math.isclose(cause_sum, drained, abs_tol=tol):
            errors.append(f"sum(totals.by_cause)={cause_sum!r} != "
                          f"totals.drained={drained!r}")
    return errors


def gate_against_baseline(doc, baseline):
    """Returns (failures, checked) for the savings gate."""
    failures = []
    tolerance = baseline.get("tolerance", 0.05)
    extras = doc.get("extras", {})
    want = baseline.get("savings", {})
    for key, committed in sorted(want.items()):
        current = extras.get(key)
        if current is None:
            failures.append(f"{key}: missing from sidecar extras")
        elif current < committed - tolerance:
            failures.append(f"{key}: {current:.3f} < baseline "
                            f"{committed:.3f} - tol {tolerance:.3f}")
    return failures, len(want)


def heatmap(doc):
    """ASCII spatial map of drained joules; 'X' marks cells with deaths."""
    nodes = doc["nodes"]
    if not nodes:
        return "(no nodes)"
    grid = [[0.0] * GRID_W for _ in range(GRID_H)]
    died = [[False] * GRID_W for _ in range(GRID_H)]
    for row in nodes:
        gx = min(GRID_W - 1, max(0, int(row["x"] * GRID_W)))
        gy = min(GRID_H - 1, max(0, int(row["y"] * GRID_H)))
        grid[gy][gx] += row["drained"]
        if row["deaths"] > 0:
            died[gy][gx] = True
    peak = max(max(r) for r in grid)
    lines = ["+" + "-" * GRID_W + "+"]
    for gy in range(GRID_H - 1, -1, -1):  # y grows upward
        cells = []
        for gx in range(GRID_W):
            if died[gy][gx]:
                cells.append("X")
            elif peak <= 0.0:
                cells.append(" ")
            else:
                level = grid[gy][gx] / peak
                idx = min(len(HEAT_RAMP) - 1, int(level * len(HEAT_RAMP)))
                cells.append(HEAT_RAMP[idx])
        lines.append("|" + "".join(cells) + "|")
    lines.append("+" + "-" * GRID_W + "+")
    lines.append(f"drained joules per cell, peak={peak:.2f}; "
                 "X = node death in cell")
    return "\n".join(lines)


def human_report(doc):
    totals = doc["totals"]
    print(f"energymap: {doc['benchmark']} "
          f"(git {doc['git_sha'][:12]}, t={doc['t']}, runs={doc['runs']}, "
          f"{'quick' if doc['quick'] else 'full'})")
    battery = ("unlimited" if doc["unlimited"]
               else f"{doc['initial_battery']:g} J/node")
    print(f"nodes: {doc['num_nodes']}, battery: {battery}")
    print(f"drained: {totals['drained']:.2f} J/run, "
          f"deaths: {totals['deaths']}")
    print("\nby cause (J/run):")
    drained = totals["drained"]
    for cause in CAUSES:
        joules = totals["by_cause"][cause]
        if joules <= 0.0:
            continue
        share = 100.0 * joules / drained if drained > 0 else 0.0
        print(f"  {cause:<12} {joules:12.2f}  {share:5.1f}%")
    by_dir = totals["by_direction"]
    print("by direction (J/run): " +
          ", ".join(f"{d}={by_dir[d]:.2f}" for d in DIRECTIONS))
    traced = {k: v for k, v in totals["by_root_kind"].items() if v > 0.0}
    if traced:
        print("by trace root (J/run): " +
              ", ".join(f"{k}={v:.2f}" for k, v in traced.items()))
    forecast = doc["forecast"]
    for key, label in (("first_death_tick", "first death"),
                       ("coverage_knee_tick", "coverage knee")):
        tick = forecast[key]
        print(f"forecast {label}: " +
              (f"~t={tick:.0f}" if tick >= 0 else "beyond horizon"))
    if doc["extras"]:
        print("\nextras:")
        for key, value in doc["extras"].items():
            print(f"  {key} = {value:g}")
    print("\nspatial heat (drained J):")
    print(heatmap(doc))


def main():
    parser = argparse.ArgumentParser(
        description="Validate, summarize and gate .energymap.json sidecars")
    parser.add_argument("map", help="path to the .energymap.json sidecar")
    parser.add_argument("--baseline",
                        help="committed savings baseline to gate against")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable verdict")
    args = parser.parse_args()

    doc, _ = load(args.map)
    errors = validate(doc)
    failures, checked = [], 0
    if not errors and args.baseline:
        baseline, _ = load(args.baseline)
        failures, checked = gate_against_baseline(doc, baseline)

    if args.json:
        verdict = {
            "ok": not errors and not failures,
            "schema_errors": errors,
            "gate": {"checked": checked, "failures": failures},
        }
        print(json.dumps(verdict, indent=2))
    else:
        if errors:
            for err in errors:
                print(f"schema: {err}", file=sys.stderr)
        else:
            human_report(doc)
            if checked:
                print(f"\nsavings gate: {checked} cell(s) checked, "
                      f"{len(failures)} regression(s)")
                for failure in failures:
                    print(f"  REGRESSION {failure}")
    if errors:
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped through head/less that closed early — not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)

#!/usr/bin/env python3
"""Validate, render and export *.topo.json topology sidecars.

Three modes (combinable; validation always runs first):

  topo_report.py FILE
      human report: structural summary, churn extras, per-cluster table
      and an ASCII spatial map (component digits, 'x' dead, '!'
      articulation node, 'o' bridge endpoint, 'R' representative).

  topo_report.py FILE --validate [--max-partitions N] [--json PATH]
      schema-check the sidecar (the tools-check CI job gates on this).
      --max-partitions additionally fails (exit 1) when the component
      count exceeds N. --json writes a machine-readable verdict object to
      PATH ("-" for stdout) regardless of outcome — schema violations
      included — so CI consumes one JSON document instead of scraping
      stdout.

  topo_report.py FILE --dot PATH
      Graphviz DOT export: nodes positioned by deployment coordinates and
      colored by component, observed links as edges (weak links dashed
      red), bridges bold, articulation nodes double-circled.

Exits 0 on success, 1 on a failed --max-partitions verdict, 2 on schema
violation. The schema is the one frozen by src/obs/topo.h
(schema_version 1, kind "snapq-topo") and pinned by
tests/obs/topo_schema_test.cc — update all three together.
"""

import argparse
import json
import sys

from sidecar_schema import check_fields, is_number, write_json_verdict

SCHEMA_VERSION = 1
KIND = "snapq-topo"

TOP_FIELDS = {"schema_version": int, "kind": str, "benchmark": str,
              "git_sha": str, "quick": bool, "t": int, "num_nodes": int,
              "live": int, "summary": dict, "clusters": list,
              "bridges": list, "articulation": list, "extras": dict,
              "nodes": list, "links": list}
SUMMARY_FIELDS = {"partitions": int, "bridges": int,
                  "articulation_nodes": int, "isolated": int,
                  "avg_degree": float, "max_degree": int, "weak_links": int,
                  "links_observed": int}
CLUSTER_FIELDS = {"rep": int, "size": int, "radius": float, "depth": int}
NODE_FIELDS = {"id": int, "x": float, "y": float, "alive": bool,
               "degree": int, "component": int, "rep": int}
LINK_FIELDS = {"from": int, "to": int, "deliveries": int, "snoops": int,
               "losses": int, "ewma": float, "last": int}

WEAK_EWMA = 0.5  # render threshold only; the monitor's is configurable


def validate(doc, path):
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

    summary = doc.get("summary", {})
    if isinstance(summary, dict):
        check_fields(summary, SUMMARY_FIELDS, f"{path}:summary", errors)

    for i, c in enumerate(doc.get("clusters", [])
                          if isinstance(doc.get("clusters"), list) else []):
        where = f"{path}:clusters[{i}]"
        if isinstance(c, dict):
            check_fields(c, CLUSTER_FIELDS, where, errors)
        else:
            errors.append(f"{where}: not an object")

    for i, b in enumerate(doc.get("bridges", [])
                          if isinstance(doc.get("bridges"), list) else []):
        if not (isinstance(b, list) and len(b) == 2
                and all(is_number(v, int) for v in b)):
            errors.append(f"{path}:bridges[{i}]: not an [u, v] pair")

    for i, a in enumerate(doc.get("articulation", [])
                          if isinstance(doc.get("articulation"), list)
                          else []):
        if not is_number(a, int):
            errors.append(f"{path}:articulation[{i}]: not an int")

    extras = doc.get("extras", {})
    if isinstance(extras, dict):
        for key, value in extras.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{path}:extras.{key}: not a number")

    nodes = doc.get("nodes", [])
    live = 0
    isolated = 0
    components = set()
    if isinstance(nodes, list):
        if isinstance(doc.get("num_nodes"), int) \
                and len(nodes) != doc["num_nodes"]:
            errors.append(f"{path}: {len(nodes)} node entries != num_nodes "
                          f"{doc['num_nodes']}")
        for i, n in enumerate(nodes):
            where = f"{path}:nodes[{i}]"
            if not isinstance(n, dict):
                errors.append(f"{where}: not an object")
                continue
            check_fields(n, NODE_FIELDS, where, errors)
            if n.get("alive") is True:
                live += 1
                if n.get("degree") == 0:
                    isolated += 1
                if isinstance(n.get("component"), int):
                    if n["component"] < 0:
                        errors.append(f"{where}: live node with component "
                                      f"{n['component']}")
                    else:
                        components.add(n["component"])
            elif n.get("alive") is False and n.get("component") != -1:
                errors.append(f"{where}: dead node with component "
                              f"{n.get('component')!r} (wanted -1)")
    # Cross-checks: the summary must agree with the per-node detail. A
    # list field of the wrong type was reported above and is not counted.
    def count(key):
        value = doc.get(key, [])
        return len(value) if isinstance(value, list) else None

    if isinstance(summary, dict):
        checks = [("live (top-level)", doc.get("live"), live),
                  ("summary.partitions", summary.get("partitions"),
                   len(components)),
                  ("summary.isolated", summary.get("isolated"), isolated),
                  ("summary.bridges", summary.get("bridges"),
                   count("bridges")),
                  ("summary.articulation_nodes",
                   summary.get("articulation_nodes"), count("articulation")),
                  ("summary.links_observed", summary.get("links_observed"),
                   count("links"))]
        for label, claimed, actual in checks:
            if actual is not None and isinstance(claimed, int) \
                    and claimed != actual:
                errors.append(f"{path}: {label} {claimed} != derived "
                              f"{actual}")

    for i, l in enumerate(doc.get("links", [])
                          if isinstance(doc.get("links"), list) else []):
        where = f"{path}:links[{i}]"
        if isinstance(l, dict):
            check_fields(l, LINK_FIELDS, where, errors)
        else:
            errors.append(f"{where}: not an object")
    return errors


def component_char(component):
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    return digits[component % len(digits)]


def ascii_map(doc, width=64, height=24):
    """Renders the deployment as a character grid. Overlapping nodes keep
    the highest-priority marker: dead > articulation > bridge endpoint >
    representative > component digit."""
    nodes = doc["nodes"]
    if not nodes:
        return "(no nodes)\n"
    xs = [n["x"] for n in nodes]
    ys = [n["y"] for n in nodes]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    articulation = set(doc["articulation"])
    bridge_ends = {v for pair in doc["bridges"] for v in pair}
    reps = {c["rep"] for c in doc["clusters"]}

    def priority(n):
        if not n["alive"]:
            return 4, "x"
        if n["id"] in articulation:
            return 3, "!"
        if n["id"] in bridge_ends:
            return 2, "o"
        if n["id"] in reps:
            return 1, "R"
        return 0, component_char(n["component"])

    grid = [["." for _ in range(width)] for _ in range(height)]
    rank = [[-1 for _ in range(width)] for _ in range(height)]
    for n in nodes:
        col = min(width - 1, int((n["x"] - x0) / xspan * (width - 1)))
        # Row 0 is the top of the terminal but the max-y edge of the field.
        row = min(height - 1,
                  int((y1 - n["y"]) / yspan * (height - 1)))
        p, ch = priority(n)
        if p > rank[row][col]:
            rank[row][col] = p
            grid[row][col] = ch

    lines = ["".join(r) for r in grid]
    lines.append("legend: digit=component  R=representative  "
                 "o=bridge endpoint  !=articulation  x=dead")
    return "\n".join(lines) + "\n"


def report(doc):
    s = doc["summary"]
    out = [f"{doc['benchmark']} @t={doc['t']} "
           f"(git {doc['git_sha']}{', quick' if doc['quick'] else ''})",
           f"  nodes       {doc['live']} live / {doc['num_nodes']} "
           f"({s['isolated']} isolated)",
           f"  partitions  {s['partitions']}",
           f"  degree      avg {s['avg_degree']:.1f}, max {s['max_degree']}",
           f"  cut         {s['bridges']} bridges, "
           f"{s['articulation_nodes']} articulation nodes",
           f"  links       {s['links_observed']} observed, "
           f"{s['weak_links']} weak"]
    for key, value in doc["extras"].items():
        out.append(f"  extras.{key} = {value:g}")
    if doc["clusters"]:
        out.append("  clusters (rep, size, radius, depth):")
        for c in doc["clusters"]:
            depth = "broken" if c["depth"] < 0 else str(c["depth"])
            out.append(f"    rep {c['rep']:>4}  size {c['size']:>4}  "
                       f"radius {c['radius']:.2f}  depth {depth}")
    weak = [l for l in doc["links"]
            if 0 <= l["ewma"] < WEAK_EWMA]
    weak.sort(key=lambda l: l["ewma"])
    if weak:
        out.append(f"  weakest links (ewma < {WEAK_EWMA}):")
        for l in weak[:5]:
            out.append(f"    {l['from']} -> {l['to']}  ewma "
                       f"{l['ewma']:.2f}  ({l['deliveries']} ok, "
                       f"{l['losses']} lost)")
    return "\n".join(out) + "\n\n" + ascii_map(doc)


def to_dot(doc):
    """Graphviz DOT (neato-friendly: fixed node positions)."""
    articulation = set(doc["articulation"])
    bridges = {tuple(sorted(pair)) for pair in doc["bridges"]}
    palette = ["#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
               "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd"]
    out = ["graph topo {", "  layout=neato;", "  node [shape=circle, "
           "style=filled, fontsize=8, width=0.25, fixedsize=true];"]
    for n in doc["nodes"]:
        color = ("#dddddd" if not n["alive"]
                 else palette[n["component"] % len(palette)])
        shape = ("doublecircle" if n["id"] in articulation else "circle")
        out.append(f'  n{n["id"]} [label="{n["id"]}", '
                   f'pos="{n["x"]:.4f},{n["y"]:.4f}!", '
                   f'fillcolor="{color}", shape={shape}];')
    # Observed links, collapsed to undirected (worst ewma wins).
    seen = {}
    for l in doc["links"]:
        key = tuple(sorted((l["from"], l["to"])))
        ewma = l["ewma"]
        if key not in seen or (0 <= ewma < seen[key]):
            seen[key] = ewma
    for (u, v), ewma in sorted(seen.items()):
        style = []
        if (u, v) in bridges:
            style.append("penwidth=3")
        if 0 <= ewma < WEAK_EWMA:
            style.append('color="#c44e52", style=dashed')
        out.append(f"  n{u} -- n{v}"
                   + (f" [{', '.join(style)}]" if style else "") + ";")
    # Bridges the observer never saw traffic on still render (bold, grey).
    for (u, v) in sorted(bridges - set(seen)):
        out.append(f'  n{u} -- n{v} [penwidth=3, color="#8c8c8c"];')
    out.append("}")
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="*.topo.json sidecar")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check only (no report)")
    parser.add_argument("--max-partitions", type=int, default=None,
                        help="with --validate, exit 1 when the partition "
                             "count exceeds this")
    parser.add_argument("--json", metavar="PATH",
                        help="with --validate, write a machine-readable "
                             "verdict object to PATH ('-' for stdout)")
    parser.add_argument("--dot", metavar="PATH",
                        help="write a Graphviz DOT rendering to PATH")
    args = parser.parse_args()

    if (args.json or args.max_partitions is not None) and not args.validate:
        parser.error("--json/--max-partitions require --validate")

    try:
        with open(args.file, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        doc, errors = None, [f"cannot read {args.file}: {e}"]
    else:
        errors = validate(doc, args.file)

    if args.validate:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        valid = not errors
        partitions = doc["summary"]["partitions"] if valid else 0
        over = (valid and args.max_partitions is not None
                and partitions > args.max_partitions)
        if valid:
            print(f"{args.file}: valid (schema {SCHEMA_VERSION}, "
                  f"{doc['num_nodes']} nodes, {partitions} partition(s), "
                  f"{len(doc['links'])} links)")
            if over:
                print(f"PARTITIONED: {partitions} > "
                      f"--max-partitions {args.max_partitions}")
        exit_code = 2 if not valid else (1 if over else 0)
        if args.json:
            write_json_verdict(args.json, {
                "file": args.file,
                "valid": valid,
                "schema_version": SCHEMA_VERSION,
                "nodes": doc["num_nodes"] if valid else 0,
                "partitions": partitions,
                "bridges": doc["summary"]["bridges"] if valid else 0,
                "links": len(doc["links"]) if valid else 0,
                "errors": errors,
                "exit_code": exit_code,
            })
        return exit_code

    if errors:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        return 2
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(to_dot(doc))
        print(f"wrote {args.dot}")
        return 0
    print(report(doc), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Shared schema helpers for the sidecar tools (not a tool itself).

bench_compare.py, timeline_check.py and topo_report.py validate their
JSON documents against {field: type} tables with check_fields(), and the
latter two write their machine-readable verdicts with
write_json_verdict(). The tools import this module from their own
directory: `from sidecar_schema import check_fields`.
"""

import json
import sys


def is_number(value, want):
    """True when `value` has JSON type `want` (int, float, bool or str)."""
    # ints are acceptable where floats are expected (JSON has one number
    # type); bool is a subclass of int in Python and never acceptable.
    if isinstance(value, bool):
        return want is bool
    if want is float:
        return isinstance(value, (int, float))
    return isinstance(value, want)


def check_fields(obj, fields, where, errors):
    """Appends to `errors` every missing, mistyped or unknown field of
    `obj` against the {field: type} table `fields`."""
    for key, want in fields.items():
        if key not in obj:
            errors.append(f"{where}: missing field '{key}'")
        elif not is_number(obj[key], want):
            errors.append(f"{where}: field '{key}' is "
                          f"{type(obj[key]).__name__}, wanted {want.__name__}")
    for key in obj:
        if key not in fields:
            errors.append(f"{where}: unknown field '{key}'")


def write_json_verdict(dest, payload):
    """Writes `payload` as indented JSON to the file `dest` ("-": stdout)."""
    text = json.dumps(payload, indent=2) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as f:
            f.write(text)

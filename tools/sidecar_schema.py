#!/usr/bin/env python3
"""Shared schema helpers for the sidecar tools (not a tool itself).

Every tool reads its documents through load(). bench_compare.py,
timeline_check.py and topo_report.py validate them against {field: type}
tables with check_fields(), and the latter two write their
machine-readable verdicts with write_json_verdict(). energy_report.py
uses is_number(). The tools import this module from their own
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


def load(path, validate=None, *args, strict=True):
    """Reads the JSON document at `path` and checks it with
    validate(doc, path, *args), which returns a list of error strings.

    Returns (doc, errors). An unreadable or malformed file gives doc None
    and the one error "cannot read PATH: REASON". With strict=True any
    error ends the process with exit code 2 instead: a read error is
    printed as "error: ...", each schema error as "schema error: ...".
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        if strict:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        return None, [f"cannot read {path}: {e}"]
    errors = validate(doc, path, *args) if validate else []
    if errors and strict:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        sys.exit(2)
    return doc, errors


def write_json_verdict(dest, payload):
    """Writes `payload` as indented JSON to the file `dest` ("-": stdout)."""
    text = json.dumps(payload, indent=2) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as f:
            f.write(text)

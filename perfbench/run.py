#!/usr/bin/env python3
"""Builds the snapq benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dense_elect --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to the
repository root); its output is sent to stderr so that the benchmark's own
report, ending in one JSON line, is all that reaches stdout. The exit code
is the benchmark's: 0 only when every correctness check passed.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("dense_elect", "scale_maintain", "monitored_serve")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_step(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: snapq sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_step(["cmake", "-S", BENCH_DIR, "-B", out]) != 0:
            return None
    if run_step(["cmake", "--build", out, "--target", "snapq_perfbench",
                 "-j", "4"]) != 0:
        return None
    binary = os.path.join(out, "snapq_perfbench")
    return binary if os.path.isfile(binary) else None


def stop(signum, _frame):
    """Turns SIGTERM into an exit, so the child is killed and reaped."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("error: benchmark build failed", file=sys.stderr)
        return 2
    spans_dir = os.path.join(out, "out")
    os.makedirs(spans_dir, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.Popen([binary, "--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace),
                             "--out-dir", spans_dir])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

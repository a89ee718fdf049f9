#!/usr/bin/env python3
"""Steadiness check for the snapq benchmark.

Runs one or more workloads k times (a new seed each time) and prints, per
metric, the median, the quartiles and the spread IQR / median next to the
metric's bound from BENCHMARK.json. Wall and CPU time of every run are
printed side by side: CPU time that drifts with wall time means the host
itself slowed down, while wall time growing alone means the process waited
for a processor.

    python3 perfbench/steady.py --workload scale_maintain --runs 5
    python3 perfbench/steady.py --workload dense_elect,monitored_serve --runs 10
    python3 perfbench/steady.py --workload dense_elect --runs 10 --alt ../parent

With --alt ROOT the runs alternate between this checkout and the checkout
at ROOT (each builds in its own $CARGO_TARGET_DIR), and each side gets its
own table. Listing several workloads runs them in that order in every
round; list them in reverse to check that no metric depends on run order.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Returns (median, q1, q3, (q3 - q1) / median), with the quartiles of
    statistics.quantiles(values, n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def load_bounds(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return spec, bounds


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError("result lacks %r" % key)
    return result


def run_once(root, build_dir, workload, seed, seconds):
    """Runs the benchmark once; returns (result, wall_s, cpu_s)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" %
                           (workload, seed, proc.returncode, proc.stdout[-2000:]))
    return parse_result(proc.stdout), wall, cpu


def print_table(title, runs, bounds):
    print("\n== %s (%d runs)" % (title, len(runs)))
    print("%-34s %12s %12s %12s %8s %7s" %
          ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = "ok" if rel < bound / 3 else (
                "within" if rel <= bound else "OVER")
        print("%-34s %12.4f %12.4f %12.4f %8.4f %7s %s" %
              (name, med, q1, q3, rel, "-" if bound is None else bound,
               verdict))
    walls = [r["wall"] for r in runs]
    cpus = [r["cpu"] for r in runs]
    print("%-34s %12.3f %12s %12s %8.4f" %
          ("wall_s (process)", statistics.median(walls), "", "",
           spread(walls)[3]))
    print("%-34s %12.3f %12s %12s %8.4f" %
          ("cpu_s (process)", statistics.median(cpus), "", "",
           spread(cpus)[3]))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="workload name, or several comma-separated")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--alt", metavar="ROOT",
                        help="second checkout to alternate with")
    args = parser.parse_args()

    spec, bounds = load_bounds(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload.split(",")
    this_build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    sides = [("this", ROOT, os.path.join(ROOT, this_build))]
    if args.alt:
        alt = os.path.abspath(args.alt)
        sides.append(("alt", alt, os.path.join(alt, ".bench_build")))

    runs = {}
    for k in range(args.runs):
        seed = args.seed_base + k
        order = sides if k % 2 == 0 else list(reversed(sides))
        for side, root, build in order:
            for workload in workloads:
                result, wall, cpu = run_once(root, build, workload, seed,
                                             seconds)
                runs.setdefault((side, workload), []).append(
                    {"seed": seed, "result": result, "wall": wall, "cpu": cpu})
                m = result["metrics"]
                first = next(iter(m))
                print("%-5s %-16s seed %-4d wall %7.2f s cpu %7.2f s  "
                      "correct %s  %s %.4f" %
                      (side, workload, seed, wall, cpu, result["correct"],
                       first, m[first]["value"]), flush=True)
    for (side, workload), side_runs in runs.items():
        print_table("%s / %s" % (side, workload), side_runs, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

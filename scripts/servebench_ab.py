#!/usr/bin/env python3
"""Alternating servebench A/B between two checkouts of this repository.

    scripts/servebench_ab.py <parent-tree> <change-tree> --workload W [--workload W2 ...] \\
        --seed S --pairs N [--seconds 20]

For each workload, each pair runs `python3 servebench/run.py --workload W --seed S --seconds X`
once in each tree; odd pairs start with the parent, even pairs with the change, so slow phases
of a shared host fall on both sides. run.py builds each tree into its own .bench_build/ on
first use; this script writes nothing itself.

For every end-to-end metric of the change tree's BENCHMARK.json it prints, one table per
workload, the parent's median and quartiles, the change's median, the ratio change/parent, the
pairs the change won (in the metric's "better" direction) and a verdict against the metric's
`bound`: REGRESSED when the change median is worse than the parent median by more than the
bound, "unresolved" when the parent's interquartile range is wider than the bound (the runs
spread too widely to tell), "ok" otherwise. It exits 1 on any REGRESSED metric, when a run is
not `correct`, or when a sim_* metric, completed_pct or the failed count differs between any
two runs of a workload: those are simulated results and must not depend on the tree or the
run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, args):
    cmd = [sys.executable, "servebench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("servebench_ab: run failed in %s (exit %d)" % (tree, done.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def simulated(result):
    keys = {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith("sim_") or k == "completed_pct"}
    keys["failed"] = result["failed"]
    return keys


def verdict(direction, bound, q1, median, q3, change_median):
    """REGRESSED, unresolved or ok for one metric (see the module docstring)."""
    if median == 0:
        return "ok" if change_median == 0 else "unresolved"
    if (q3 - q1) / abs(median) > bound:
        return "unresolved"
    worse = median - change_median if direction == "higher" else change_median - median
    return "REGRESSED" if worse / abs(median) > bound else "ok"


def compare(workload, runs, metrics, args):
    """Prints one workload's table; returns 1 on a regression or a moved simulated result."""
    status = 0
    reference = simulated(runs["parent"][0])
    for side in ("parent", "change"):
        for i, result in enumerate(runs[side]):
            if not result["correct"]:
                print("%s: %s run %d is not correct" % (workload, side, i + 1))
                status = 1
            moved = sorted(k for k, v in simulated(result).items() if reference.get(k) != v)
            if moved:
                print("%s: %s run %d moved simulated results: %s" %
                      (workload, side, i + 1, ", ".join(moved)))
                status = 1

    print("%s seed %d, %d pairs of %g s" % (workload, args.seed, args.pairs, args.seconds))
    print("%-18s %14s %14s %14s %14s %7s %6s %6s  %s" %
          ("metric", "parent_median", "parent_q1", "parent_q3", "change_median", "ratio",
           "wins", "bound", "verdict"))
    for m in metrics:
        name, direction, bound = m["name"], m["better"], m["bound"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        q1, median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        ratio = change_median / median if median else float("nan")
        if direction == "higher":
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        result = verdict(direction, bound, q1, median, q3, change_median)
        if result == "REGRESSED":
            status = 1
        print("%-18s %14.6g %14.6g %14.6g %14.6g %7.3f %3d/%-2d %6.3g  %s" %
              (name, median, q1, q3, change_median, ratio, wins, args.pairs, bound, result))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat to compare several workloads, one table each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    status = 0
    for n, workload in enumerate(args.workload):
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], workload, args))
            print("%s: pair %d/%d done" % (workload, pair + 1, args.pairs), file=sys.stderr)
        if n > 0:
            print()
        status |= compare(workload, runs, metrics, args)
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating servebench A/B between two checkouts of this repository.

    scripts/servebench_ab.py <parent-tree> <change-tree> --workload W [--workload W2 ...] \\
        --seed S --pairs N [--seconds 20] [--layers] [--claim METRIC]

For each workload, each pair runs `python3 servebench/run.py --workload W --seed S --seconds X`
once in each tree; odd pairs start with the parent, even pairs with the change, so slow phases
of a shared host fall on both sides. run.py builds each tree into its own .bench_build/ on
first use; this script writes nothing itself.

After each pair it reports, on stderr, both runs' value of the first end-to-end metric of
the change tree's BENCHMARK.json. For every end-to-end metric it prints, one table per
workload, the parent's median and quartiles, the change's median, the ratio change/parent, the
pairs the change won (in the metric's "better" direction) and a verdict against the metric's
`bound`: REGRESSED when the change median is worse than the parent median by more than the
bound, "unresolved" when the parent's interquartile range is wider than the bound (the runs
spread too widely to tell), "ok" otherwise. It exits 1 on any REGRESSED metric, when a run is
not `correct`, or when a sim_* metric, completed_pct or the failed count differs between any
two runs of a workload: those are simulated results and must not depend on the tree or the
run.

With --claim METRIC (an end-to-end metric), it also prints "claim met" or "claim not met" for
METRIC under each workload's table, by the rule for claiming a gain: the change wins at least
nine tenths of the pairs (ties count for neither side), and its median is better than the
parent's by more than the parent's interquartile range. It exits 1 when a claim is not met.

With --layers, after the pairs of a workload it runs `run.py --trace 1` once in each tree and
prints every per-layer metric of BENCHMARK.json side by side with the ratio change/parent,
flagging each count metric whose value differs between the trees. Counts are totals over one
traced pass per trace, so they do not depend on --seconds or on host speed; a flagged count is
a change in work done, which may be the point of the change. The flags do not affect the exit
status. --pairs 0 --layers prints only the per-layer tables.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, args, trace=0):
    cmd = [sys.executable, "servebench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
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


def claim_met(direction, parent, change):
    """(met, wins, margin, iqr) for a claimed gain of change over parent (module docstring)."""
    if direction == "higher":
        wins = sum(c > p for p, c in zip(parent, change))
    else:
        wins = sum(c < p for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    margin = change_median - median if direction == "higher" else median - change_median
    met = 10 * wins >= 9 * len(parent) and margin > q3 - q1
    return met, wins, margin, q3 - q1


def compare(workload, runs, metrics, args):
    """Prints one workload's table; returns 1 on a regression, a moved simulated result or a
    claim not met."""
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
        met, wins, margin, iqr = claim_met(direction, parent, change)
        if name == args.claim:
            claim = ("%s: claim %s on %s: %d/%d pairs won (9/10 needed), medians %.6g apart in "
                     "the better direction against a parent IQR of %.6g" %
                     (workload, "met" if met else "not met", name, wins, args.pairs, margin, iqr))
            status |= 0 if met else 1
        result = verdict(direction, bound, q1, median, q3, change_median)
        if result == "REGRESSED":
            status = 1
        print("%-18s %14.6g %14.6g %14.6g %14.6g %7.3f %3d/%-2d %6.3g  %s" %
              (name, median, q1, q3, change_median, ratio, wins, args.pairs, bound, result))
    if args.claim:
        print(claim)
    return status


def compare_layers(workload, results, per_layer):
    """Prints one workload's per-layer table from one traced run per tree."""
    print("%s per-layer (one traced run per tree)" % workload)
    print("%-36s %16s %16s %8s  %s" % ("metric", "parent", "change", "ratio", "flag"))
    for m in per_layer:
        name = m["name"]
        parent = results["parent"]["metrics"][name]["value"]
        change = results["change"]["metrics"][name]["value"]
        ratio = change / parent if parent else float("nan")
        flag = "count differs" if m["unit"] == "count" and parent != change else ""
        print("%-36s %16.10g %16.10g %8.3f  %s" % (name, parent, change, ratio, flag))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat to compare several workloads, one table each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--layers", action="store_true",
                        help="after the pairs, compare one traced run per tree")
    parser.add_argument("--claim", metavar="METRIC",
                        help="end-to-end metric whose claimed gain to test on each workload")
    args = parser.parse_args()
    if args.pairs < (0 if args.layers else 1):
        parser.error("--pairs must be at least 1 (0 with --layers)")
    if args.claim and args.pairs < 1:
        parser.error("--claim needs at least 1 pair")
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    if args.claim and args.claim not in [m["name"] for m in metrics]:
        parser.error("--claim %s is not an end-to-end metric of BENCHMARK.json" % args.claim)

    status = 0
    for n, workload in enumerate(args.workload):
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], workload, args))
            head = metrics[0]["name"]
            print("%s: pair %d/%d done, %s parent %.6g change %.6g" %
                  (workload, pair + 1, args.pairs, head,
                   runs["parent"][-1]["metrics"][head]["value"],
                   runs["change"][-1]["metrics"][head]["value"]), file=sys.stderr)
        if n > 0:
            print()
        if args.pairs > 0:
            status |= compare(workload, runs, metrics, args)
        if args.layers:
            traced = {}
            for side in ("parent", "change"):
                traced[side] = run_once(trees[side], workload, args, trace=1)
                if not traced[side]["correct"]:
                    print("%s: %s traced run is not correct" % (workload, side))
                    status = 1
            if args.pairs > 0:
                print()
            compare_layers(workload, traced, benchmark["per_layer"])
    return status


if __name__ == "__main__":
    sys.exit(main())

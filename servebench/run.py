#!/usr/bin/env python3
"""Serving benchmark for the Jenga simulator: one workload, one seed, one JSON result line.

    python3 servebench/run.py --workload arxiv-evict --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It builds servebench/ (and through it the simulator's own
sources under src/) into .bench_build/, then runs the servebench binary:

  --trace 0  a fresh process measures mem_peak_mb, then a second one runs untraced passes
             for --seconds and reports every end-to-end metric of BENCHMARK.json;
  --trace 1  paired untraced and traced passes report every per-layer metric; the traced
             spans are written to .bench_build/traces/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}. A broken output
check is named on stderr, and the run exits 1. NOTES.md explains the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "servebench")
SHA_TABLE = os.path.join(HERE, "trace_sha256.json")
WORKLOADS = ("arxiv-evict", "mmlu-decode", "spec-batch")
# Guards for one binary invocation; the whole run must stay well under 180 s.
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to servebench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_binary(args):
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("servebench timed out: " + " ".join(args))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("servebench printed nothing (exit %d): %s"
                         % (done.returncode, " ".join(args)))
    return json.loads(lines[-1])


def declared_metrics(section):
    """(name, unit) pairs BENCHMARK.json declares in `section`."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[section]]


def recorded_sha(workload, seed):
    with open(SHA_TABLE) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def record_sha_table(seeds):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in seeds:
            out = run_binary(["--workload", workload, "--seed", str(seed), "--mode", "sha"])
            table[workload][str(seed)] = out["trace_sha256"]
    with open(SHA_TABLE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-sha", metavar="FIRST-LAST",
                        help="rewrite trace_sha256.json for seeds FIRST..LAST and exit")
    args = parser.parse_args()

    build()
    if args.record_sha:
        first, last = (int(v) for v in args.record_sha.split("-"))
        record_sha_table(range(first, last + 1))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace == 0:
        declared = declared_metrics("end_to_end")
        mem = run_binary(common + ["--mode", "mem"])
        out = run_binary(common + ["--mode", "measure"])
        out["metrics"].update(mem["metrics"])
    else:
        declared = declared_metrics("per_layer")
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        out = run_binary(common + ["--mode", "trace", "--trace-out", trace_file])

    broken = list(out["checks_failed"])
    expected_sha = recorded_sha(args.workload, args.seed)
    if expected_sha is not None and expected_sha != out["trace_sha256"]:
        broken.append("trace_sha256")
    missing = [name for name, _ in declared if name not in out["metrics"]]
    if missing:
        raise BenchError("servebench did not report: " + ", ".join(missing))
    for name in broken:
        print("servebench: check failed: " + name, file=sys.stderr)

    result = {
        "correct": not broken,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in declared},
    }
    print(json.dumps(result))
    return 0 if not broken else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        print("servebench: " + str(err), file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env bash
# Prints an identity digest of one build, for checking that a change moves no output:
#   - the sha256 of every byte-identity bench's output at JENGA_BENCH_THREADS=1 and 4;
#   - every servebench sim_* value, completed_pct and failed count, plus trace_sha256, for
#     the three workloads on seeds 1-3 (--mode measure --seconds 0).
#
# Usage: scripts/identity_digest.sh <build-dir>
#
# <build-dir> is a configured and built tree of this checkout (its bench/ holds the benches).
# The servebench driver is built from servebench/ into <build-dir>/servebench_build; nothing
# under servebench/ is written. Run it on the parent and on the change, then diff the two
# digests: any differing line is a moved output.
set -euo pipefail

if [[ $# -ne 1 || ! -d "$1/bench" ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)

for bin in bench_fig13_throughput bench_fig14_latency bench_fig15_batchsize \
           bench_fig16_fragmentation bench_fig17_prefix_caching \
           bench_fig18_vision_cache bench_fig19_spec_decode \
           bench_sec32_memory_waste bench_sec43_request_aware bench_sec44_page_size \
           bench_offload_tier; do
  for threads in 1 4; do
    sum=$(JENGA_BENCH_THREADS=$threads "$build/bench/$bin" | sha256sum | cut -d' ' -f1)
    echo "$bin threads=$threads $sum"
  done
done

sb="$build/servebench_build"
cmake -S "$root/servebench" -B "$sb" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$sb" -j 4 > /dev/null
for workload in arxiv-evict mmlu-decode spec-batch; do
  for seed in 1 2 3; do
    "$sb/servebench" --workload "$workload" --seed "$seed" --mode measure --seconds 0 |
      tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
keys = {k: v for k, v in result["metrics"].items()
        if k.startswith("sim_") or k == "completed_pct"}
keys["failed"] = result.get("failed")
keys["trace_sha256"] = result.get("trace_sha256")
print(sys.argv[1], sys.argv[2], " ".join("%s=%r" % kv for kv in sorted(keys.items())))
' "$workload" "seed=$seed"
  done
done

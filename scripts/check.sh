#!/usr/bin/env bash
# Full gate: warnings-clean (-Werror) Release build, entire test suite, a quick perf smoke, and an
# ASan+UBSan test pass (CMakePresets.json `asan-ubsan`).
# Usage: scripts/check.sh [build-dir]   (default: build-check, kept separate from ./build)
# Set JENGA_SKIP_SANITIZERS=1 to skip the sanitizer stage (it roughly doubles the runtime).
#
# Every stage runs even when an earlier one fails, so one run reports every broken gate (a
# failed perf gate does not hide a sanitizer finding). The script exits 1 at the end and
# names each failed stage. Only a failed configure or build of the main tree stops it early:
# no later stage has anything to run then.
set -uo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-check}"
failed_stages=()

# stage <name> <command...>: runs one gate and records its failure.
stage() {
  local name=$1
  shift
  if ! "$@"; then
    echo "check.sh: stage '$name' failed" >&2
    failed_stages+=("$name")
  fi
}

# best_of_3 <name> <command...>: passes when any of three attempts passes (damps noise).
best_of_3() {
  local name=$1
  shift
  for attempt in 1 2 3; do
    if "$@"; then
      return 0
    fi
    echo "check.sh: $name attempt $attempt failed"
  done
  return 1
}

if ! cmake -B "$build" -S "$repo" \
       -DCMAKE_BUILD_TYPE=Release \
       -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" ||
   ! cmake --build "$build" -j "$(nproc)"; then
  echo "check.sh: the -Werror Release build failed; no stage can run" >&2
  exit 1
fi

# Tier-1 gate (the fuzz-labeled tests run in the dedicated smoke stage below).
stage tier1 ctest --test-dir "$build" -L tier1 --output-on-failure -j "$(nproc)"

# Fuzz smoke: deterministic seeds, ~10 s. Covers Engine and SpecDecodeEngine with the
# offload tier on and off; see TESTING.md for reproducing a failure from its seed.
# JENGA_CHECK_ADMISSION cross-checks the fused admission hit scan against the
# materialized-bitmap reference on every admission.
stage fuzz env JENGA_CHECK_ADMISSION=1 \
  JENGA_FUZZ_SCHEDULES="${JENGA_FUZZ_SCHEDULES:-3000}" "$build/tests/engine_fuzz_test"

# Chaos smoke: the same schedule model with the fault-injection layer armed (PCIe errors and
# timeouts, host-pool failures and shrinks, GPU step faults, deadlines, cancels, load shed).
# Deterministic seeds; see TESTING.md for replaying a failure.
stage chaos env JENGA_CHECK_ADMISSION=1 \
  JENGA_CHAOS_SCHEDULES="${JENGA_CHAOS_SCHEDULES:-3000}" "$build/tests/engine_chaos_test"

# Pressure-chaos smoke (DESIGN.md §11): the same chaos model with the elastic arm forced on —
# every schedule gets transient pool grow/shrink, a driver-driven mid-trace repartition, the
# governor's park/shed ladder, and/or adaptive split shifts, with the pool_grow /
# pool_shrink_drain / repartition_commit fault sites armed. Oracles: the AllocatorAuditor is
# green after every step and after every repartition commit/rollback, the resize ledger
# balances per epoch, the cancellation ledger covers governor sheds, and no request is lost
# across a repartition.
stage pressure-chaos env JENGA_CHECK_ADMISSION=1 JENGA_CHAOS_ELASTIC=1 \
  JENGA_CHAOS_SCHEDULES="${JENGA_CHAOS_SCHEDULES:-3000}" "$build/tests/engine_chaos_test"

# Disabled-injector overhead must be noise-level (the table's "armed tax" column).
stage bench_chaos "$build/bench/bench_chaos" --quick

# Fleet-chaos smoke (ctest label `chaos-fleet`): randomized fleet schedules with replica
# deaths/stalls — scheduled and injector-driven — through both fleet drivers, against the
# recovery-ledger oracle (DESIGN.md §10). Deterministic seeds; TESTING.md documents replay
# (JENGA_FUZZ_SEED / JENGA_FAULT_PLAN / JENGA_FAULT_SEED).
stage fleet-chaos env \
  JENGA_FLEET_CHAOS_SCHEDULES="${JENGA_FLEET_CHAOS_SCHEDULES:-3000}" "$build/tests/fleet_chaos_test"

# Fleet stage: the cluster suite by label (prefix index, router policy, cluster metrics,
# the 1-replica byte-identical differential, and the threaded fleet stress harness), then
# the fleet routing showcase, which self-checks the acceptance criteria (affinity >= 1.3x
# round-robin hit rate at 4 replicas without regressing p99 TTFT) and exits non-zero on
# violation.
stage fleet ctest --test-dir "$build" -L fleet --output-on-failure -j "$(nproc)"
stage bench_fleet "$build/bench/bench_fleet" --quick

# Elastic governor acceptance (DESIGN.md §11): self-checks that a mid-trace hot swap commits
# without aborting in-flight requests (clean and under an injected commit rollback), the
# pressure ladder engages with a balanced cancellation ledger, and the adaptive draft/target
# split is never below the best static split. Exits non-zero on violation.
stage bench_elastic "$build/bench/bench_elastic" --quick

# Perf gate: quick mode against the committed quick baseline; every micro.* and frontend.*
# metric must stay within 10% of BENCH_perf_quick.json. The same run is the length-scaling
# gate: each micro.* also runs at 4x its length, and ops/s there must be at least 85% of
# ops/s at 1x (length.*.pct_at_4n), so a structure that grows with history fails here even
# when the short run looks fine. Best-of-3 damps scheduler noise — one passing run is enough. (The tracked BENCH_perf.json full-mode trajectory is only
# regenerated deliberately via a full --baseline run.)
#
# Skip both perf stages — with an actionable message — when the committed baseline is
# missing or predates the current metric schema, instead of burning three bench runs to find
# out (or worse, gating against nothing). bench_perf itself also rejects stale schemas.
perf_baseline_ok=1
if [[ ! -r "$repo/BENCH_perf_quick.json" ]]; then
  echo "check.sh: BENCH_perf_quick.json is missing — the perf gate has no baseline." >&2
  perf_baseline_ok=0
else
  for gated_key in micro.alloc_release.ops_per_s micro.deadline_sweep.steps_per_s \
                   length.cache_churn.pct_at_4n \
                   elastic.resize_cycle.ops_per_s \
                   frontend.admit_4p.req_per_s fleet.route_4r.ops_per_s \
                   e2e.jamba-52b-fp8.mmlu.steps_per_s e2e.spec-jenga.gemma-2-27b.arxiv.steps_per_s \
                   profiler.gemma-2-9b.mmlu.commit.share_pct; do
    if ! grep -q "\"$gated_key\"" "$repo/BENCH_perf_quick.json"; then
      echo "check.sh: BENCH_perf_quick.json is stale — gated metric $gated_key is absent." >&2
      perf_baseline_ok=0
    fi
  done
fi
if [[ "$perf_baseline_ok" != "1" ]]; then
  echo "check.sh: regenerate it with: $build/bench/bench_perf --quick --out $repo/BENCH_perf_quick.json  (then commit it)" >&2
  failed_stages+=("perf baseline")
else
  stage "perf gate" best_of_3 "perf gate" \
    "$build/bench/bench_perf" --quick --gate --baseline "$repo/BENCH_perf_quick.json" \
    --out "$build/BENCH_perf_quick.json"
fi

# Profile smoke (DESIGN.md §12): the profiled e2e pass with its share gate — any phase
# whose exclusive-time share grows past max(3x, +2pp) of the committed snapshot fails.
# This catches a hot-path regression hiding inside an unchanged steps/s total (e.g. work
# migrating into a phase the micros don't cover). Shares are ratios of small wall-times,
# so best-of-3 damps scheduler noise exactly like the perf gate above.
if [[ "$perf_baseline_ok" == "1" ]]; then
  stage "profile smoke" best_of_3 "profile smoke" \
    "$build/bench/bench_perf" --profile-only --quick --gate \
    --baseline "$repo/BENCH_perf_quick.json" --out "$build/BENCH_profile_quick.json"
fi

if [[ "${JENGA_SKIP_SANITIZERS:-0}" != "1" ]]; then
  # TSan pass over the concurrency suite (CMakePresets.json `tsan`): the MPSC queue, the
  # serving frontend, the multi-producer stress harness, the multi-replica fleet frontend
  # stress harness, and the heterogeneous-fleet elastic suite (threaded FleetFrontend with
  # per-replica pool sizes). Only these binaries run threads; the rest of the suite would
  # waste the (slow) TSan build.
  tsan_build="${build}-tsan"
  # step_profiler_test and deadline_heap_test ride along: single-threaded, but they pin the
  # profiler attach contract and deadline-heap audit under the TSan build's different
  # optimization/timing profile for almost no extra build cost.
  tsan_tests=(mpsc_queue_test frontend_test frontend_stress_test
              fleet_stress_test fleet_shutdown_test fleet_chaos_test fleet_elastic_test
              step_profiler_test deadline_heap_test)
  if cmake -B "$tsan_build" -S "$repo" \
       -DCMAKE_BUILD_TYPE=Debug \
       -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all -fno-omit-frame-pointer -O1 -g" \
       -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" &&
     cmake --build "$tsan_build" -j "$(nproc)" --target "${tsan_tests[@]}"; then
    for tsan_test in "${tsan_tests[@]}"; do
      stage "tsan $tsan_test" env TSAN_OPTIONS="halt_on_error=1" "$tsan_build/tests/$tsan_test"
    done
  else
    failed_stages+=("tsan build")
  fi

  sanitizer_build="${build}-asan"
  # Build only the test executables (benches under sanitizers are prohibitively slow).
  test_targets="$(sed -n 's/^jenga_add_test(\([a-z_]*\).*/\1/p' "$repo/tests/CMakeLists.txt")"
  # shellcheck disable=SC2086
  if cmake -B "$sanitizer_build" -S "$repo" \
       -DCMAKE_BUILD_TYPE=Debug \
       -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -O1 -g" \
       -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" &&
     cmake --build "$sanitizer_build" -j "$(nproc)" --target $test_targets; then
    stage asan-ubsan env ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
      UBSAN_OPTIONS="print_stacktrace=1" \
      ctest --test-dir "$sanitizer_build" --output-on-failure -j "$(nproc)"
  else
    failed_stages+=("asan-ubsan build")
  fi
fi

if (( ${#failed_stages[@]} > 0 )); then
  printf 'check.sh: FAILED stages:' >&2
  printf ' [%s]' "${failed_stages[@]}" >&2
  printf '\n' >&2
  exit 1
fi
echo "check.sh: all gates passed"

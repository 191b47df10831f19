// Elastic memory governor bench (DESIGN.md §11, EXPERIMENTS.md): three self-checking
// scenarios exercising the governor end to end on real model profiles.
//
//   hot-swap    Mid-trace model repartition: the governor quiesces the engine, rebuilds the
//               LCM layout for the new model, and commits — while requests are in flight.
//               Self-check: the swap commits (once, and exactly once more attempt per
//               injected rollback) and NO in-flight request is aborted: every submitted
//               request finishes, none failed, none cancelled.
//   ladder      A burst against an undersized pool with and without the pressure ladder.
//               Self-check: the ladder engages, every submitted request is accounted for,
//               and the governor's sheds are the only cancellations (ledger identity).
//   adaptive    Fig. 19 follow-up: SmartSpec's static draft/target split vs an even static
//               split vs the adaptive governor split (ShiftSplit at run time). Self-check:
//               adaptive throughput >= both static splits.
//
// Any self-check violation prints FAILED and the process exits non-zero (the perf gate in
// scripts/check.sh runs `bench_elastic --quick`).
//
// Flags:
//   --quick    fewer requests (CI-friendly)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/elastic/memory_governor.h"
#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "src/model/model_zoo.h"
#include "src/workload/datasets.h"

namespace jenga {
namespace {

std::vector<std::string> g_violations;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    g_violations.push_back(what);
    std::printf("FAILED self-check: %s\n", what.c_str());
  }
}

std::vector<Request> MmluBatch(int count, uint64_t seed) {
  MmluProDataset dataset(/*output_lo=*/64, /*output_hi=*/192);
  Rng rng(seed);
  return GenerateBatch(dataset, count, rng);
}

// --- Scenario 1: mid-trace hot swap -------------------------------------------------------

struct HotSwapResult {
  int64_t steps = 0;
  int64_t finished = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  MemoryGovernor::Stats gov;
  std::string final_model;
};

HotSwapResult RunHotSwap(int count, const char* fault_plan) {
  EngineConfig config = JengaProfile(Gemma2_9B(), H100());
  config.memory_sample_every = 0;
  JENGA_CHECK(FaultPlan::Parse(fault_plan, &config.fault.plan).ok()) << fault_plan;
  config.fault.seed = 0xE1A5;
  Engine engine(std::move(config));
  for (Request& r : MmluBatch(count, 0xE1A57)) {
    engine.Submit(std::move(r));
  }
  MemoryGovernor governor;
  governor.AttachTo(engine);

  HotSwapResult result;
  bool swap_requested = false;
  while (engine.StepOnce()) {
    result.steps += 1;
    // A few dozen steps in, every request is admitted or in flight: swap the model under it.
    if (!swap_requested && result.steps == 32) {
      governor.RequestHotSwap(Ministral8B());
      swap_requested = true;
    }
    JENGA_CHECK_LT(result.steps, 1000000) << "hot-swap bench did not converge";
  }
  for (const RequestRecord& r : engine.metrics().finished()) {
    result.finished += 1;
    result.failed += r.failed ? 1 : 0;
    result.cancelled += r.cancelled ? 1 : 0;
  }
  result.gov = governor.stats();
  result.final_model = engine.config().model.name;
  governor.DetachFrom(engine);
  return result;
}

void RunHotSwapScenario(bool quick) {
  const int count = quick ? 16 : 48;
  PrintHeader("bench_elastic: mid-trace hot swap (gemma-2-9b -> ministral-8b, H100)");
  PrintRow({{26, "variant"},
            {10, "steps"},
            {10, "finished"},
            {10, "aborted"},
            {10, "commits"},
            {10, "rollbacks"}});
  PrintRule();
  struct Variant {
    const char* label;
    const char* plan;
    int64_t expect_rollbacks;
  };
  const Variant variants[] = {
      {"clean", "", 0},
      // The commit site fires on the first attempt only: quiesce -> rollback -> retry ->
      // commit, all inside one trace.
      {"rollback-then-retry", "repartition_commit:at=0", 1},
  };
  for (const Variant& v : variants) {
    const HotSwapResult r = RunHotSwap(count, v.plan);
    PrintRow({{26, v.label},
              {10, FmtI(r.steps)},
              {10, FmtI(r.finished)},
              {10, FmtI(r.failed)},
              {10, FmtI(r.gov.hot_swaps_applied)},
              {10, FmtI(r.gov.hot_swap_rollbacks)}});
    const std::string tag = std::string("hot-swap[") + v.label + "] ";
    Check(r.gov.hot_swaps_applied == 1, tag + "swap did not commit");
    Check(r.gov.hot_swap_rollbacks == v.expect_rollbacks, tag + "unexpected rollback count");
    Check(r.final_model == Ministral8B().name, tag + "engine still runs the old model");
    Check(r.finished == count, tag + "requests lost across the repartition");
    Check(r.failed == 0 && r.cancelled == 0,
          tag + "in-flight requests were aborted by the swap");
  }
  std::printf(
      "\nIn-flight requests are quiesced to the waiting queue and recomputed against the new\n"
      "layout; a fired commit site rolls back to the old layout and the retry commits.\n");
}

// --- Scenario 2: pressure-spike ladder ----------------------------------------------------

void RunLadderScenario(bool quick) {
  const int count = quick ? 24 : 64;
  const ModelConfig model = Gemma2_9B();
  // Size the pool so one request always fits alone but the burst oversubscribes it ~8x:
  // sustained occupancy above the high watermark with real shed pressure.
  std::vector<Request> batch = MmluBatch(count, 0x1ADD);
  int64_t max_tokens = 0;
  for (const Request& r : batch) {
    max_tokens = std::max<int64_t>(max_tokens, r.prompt_len() + r.output_len);
  }
  const int64_t pool = model.KvBytesPerTokenAllLayers() * max_tokens * 2;

  PrintHeader("bench_elastic: pressure-spike degradation ladder (undersized pool)");
  PrintRow({{26, "variant"},
            {10, "finished"},
            {10, "failed"},
            {10, "parked"},
            {10, "shed"},
            {12, "preempts"},
            {12, "makespan"}});
  PrintRule();
  for (const bool governed : {false, true}) {
    EngineConfig config = JengaProfile(model, H100());
    config.memory_sample_every = 0;
    config.pool_bytes_override = pool;
    Engine engine(std::move(config));
    for (const Request& r : batch) {
      engine.Submit(r);
    }
    GovernorConfig gc;
    gc.high_watermark = 0.90;
    gc.low_watermark = 0.70;
    MemoryGovernor governor(gc);
    if (governed) {
      governor.AttachTo(engine);
    }
    engine.RunToCompletion();
    const EngineMetrics& m = engine.metrics();
    int64_t failed = 0;
    int64_t preemptions = 0;
    double makespan = 0.0;
    for (const RequestRecord& r : m.finished()) {
      failed += r.failed ? 1 : 0;
      preemptions += r.preemptions;
      makespan = std::max(makespan, r.finish_time);
    }
    PrintRow({{26, governed ? "governed (park+shed)" : "static (no governor)"},
              {10, FmtI(static_cast<int64_t>(m.finished().size()) - failed)},
              {10, FmtI(failed)},
              {10, FmtI(m.elastic_parked)},
              {10, FmtI(m.elastic_shed)},
              {12, FmtI(preemptions)},
              {12, Fmt("%.2f s", makespan)}});
    Check(static_cast<int>(m.finished().size()) == count,
          "ladder: requests unaccounted for at end of run");
    if (governed) {
      Check(governor.stats().engagements >= 1, "ladder: governor never engaged under the spike");
      Check(m.cancelled_requests == m.shed_requests && m.elastic_shed == m.shed_requests,
            "ladder: cancellation ledger does not balance (governor sheds only)");
      governor.DetachFrom(engine);
    } else {
      Check(m.elastic_parked == 0 && m.elastic_shed == 0,
            "ladder: elastic counters nonzero without a governor");
    }
  }
  std::printf(
      "\nThe ladder trades a bounded number of parks/sheds for sustained progress instead of\n"
      "letting the whole burst thrash the pool.\n");
}

// --- Scenario 3: adaptive draft/target split (Fig. 19 follow-up) --------------------------

struct SplitResult {
  double throughput = 0.0;
  int64_t shifts = 0;
};

SplitResult RunSplit(const std::vector<Request>& batch, int64_t pool, double draft_fraction,
                     bool adaptive) {
  SpecDecodeConfig config;
  config.target = Llama3_70B_Fp8();
  config.draft = Llama32_1B();
  config.gpu = H100();
  config.strategy = SpecStrategy::kVllmManual;
  config.seed = 0xF19E;
  config.pool_bytes_override = pool;
  config.manual_draft_fraction = draft_fraction;
  SpecDecodeEngine engine(std::move(config));
  for (const Request& r : batch) {
    engine.Submit(r);
  }
  GovernorConfig gc;
  gc.high_watermark = 0.90;
  gc.low_watermark = 0.70;
  gc.cooldown_steps = 2;
  // Per-shift grant sized so a donation lands as whole recipient pages for either direction.
  gc.split_shift_bytes = 1ll << 26;
  MemoryGovernor governor(gc);
  if (adaptive) {
    governor.AttachTo(engine);
  }
  engine.RunToCompletion();
  if (adaptive) {
    governor.DetachFrom(engine);
  }
  return SplitResult{engine.metrics().RequestThroughput(), governor.stats().split_shifts};
}

void RunAdaptiveScenario(bool quick) {
  const int count = quick ? 24 : 96;
  MmluProDataset dataset(/*output_lo=*/128, /*output_hi=*/512);
  Rng rng(0x19CC);
  std::vector<Request> batch = GenerateBatch(dataset, count, rng);
  int64_t max_tokens = 0;
  for (const Request& r : batch) {
    max_tokens = std::max<int64_t>(max_tokens, r.prompt_len() + r.output_len);
  }
  // Oversubscribed enough that the split placement decides throughput.
  const int64_t per_token =
      Llama3_70B_Fp8().KvBytesPerTokenAllLayers() + Llama32_1B().KvBytesPerTokenAllLayers();
  const int64_t pool = per_token * max_tokens * 4;

  PrintHeader("bench_elastic: adaptive draft/target split (llama-70b-fp8 + 1b, vLLM-manual)");
  const SplitResult even = RunSplit(batch, pool, /*draft_fraction=*/0.5, /*adaptive=*/false);
  const SplitResult smartspec =
      RunSplit(batch, pool, /*draft_fraction=*/-1.0, /*adaptive=*/false);
  const SplitResult adaptive = RunSplit(batch, pool, /*draft_fraction=*/-1.0, /*adaptive=*/true);
  // Adaptive recovery: start from the mis-tuned even split and let the governor rebalance.
  const SplitResult recovered =
      RunSplit(batch, pool, /*draft_fraction=*/0.5, /*adaptive=*/true);
  PrintRow({{30, "split"}, {12, "req/s"}, {10, "shifts"}, {16, "vs adaptive"}});
  PrintRule();
  PrintRow({{30, "static even (0.5)"}, {12, Fmt("%.3f", even.throughput)}, {10, "-"},
            {16, Fmt("%.2fx", adaptive.throughput / even.throughput)}});
  PrintRow({{30, "static smartspec"}, {12, Fmt("%.3f", smartspec.throughput)}, {10, "-"},
            {16, Fmt("%.2fx", adaptive.throughput / smartspec.throughput)}});
  PrintRow({{30, "adaptive (smartspec start)"}, {12, Fmt("%.3f", adaptive.throughput)},
            {10, FmtI(adaptive.shifts)}, {16, "1.00x"}});
  PrintRow({{30, "adaptive (even start)"}, {12, Fmt("%.3f", recovered.throughput)},
            {10, FmtI(recovered.shifts)},
            {16, Fmt("%.2fx", adaptive.throughput / recovered.throughput)}});
  Check(adaptive.throughput >= even.throughput, "adaptive split lost to the static even split");
  Check(adaptive.throughput >= smartspec.throughput,
        "adaptive split lost to the static smartspec split");
  Check(recovered.throughput >= even.throughput,
        "adaptive governor failed to recover from the mis-tuned even split");
  std::printf(
      "\nThe governor shifts capacity toward whichever pool is pressured; started from the\n"
      "SmartSpec proportional split it never does worse than the best static choice, and\n"
      "started from a mis-tuned even split it rebalances back toward it at run time.\n");
  (void)quick;
}

int RunAll(bool quick) {
  RunHotSwapScenario(quick);
  std::printf("\n");
  RunLadderScenario(quick);
  std::printf("\n");
  RunAdaptiveScenario(quick);
  if (!g_violations.empty()) {
    std::printf("\nbench_elastic: %zu self-check violation(s)\n", g_violations.size());
    return 1;
  }
  std::printf("\nbench_elastic: all self-checks passed\n");
  return 0;
}

}  // namespace
}  // namespace jenga

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  return jenga::RunAll(quick);
}

// Deterministic recovery-path tests, one per injected fault class:
//
//   PCIe D2H error    → retry + sim-time backoff, then fall back to recompute preemption;
//   PCIe timeout      → charge the timeout budget once (no retry of a hung link), fall back;
//   PCIe H2D error    → swap-out succeeded, swap-in fails → drop the set, recompute;
//   host-pool failure → repeated failures degrade the tier to GPU-only mode;
//   host-pool shrink  → forced capacity halvings, degrading below the floor;
//   GPU step failure  → the step's commit is discarded and retried, work still completes.
//
// Every test runs a schedule to completion (no fault may wedge the engine) and asserts the
// new recovery counters in EngineMetrics / SwapManager::Stats.

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

FaultConfig ParsePlan(const std::string& text, uint64_t seed = 7) {
  FaultConfig config;
  JENGA_CHECK(FaultPlan::Parse(text, &config.plan).ok()) << text;
  config.seed = seed;
  return config;
}

// Pool fits ~2 requests' KV; 4 long-output requests force preemption churn, and the free
// PCIe link makes the crossover always pick swap for eligible footprints — so every armed
// transfer-fault site actually gets consulted.
EngineConfig OffloadPressureConfig() {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  EngineConfig config;
  config.model = model;
  config.gpu = TestGpu();
  config.jenga = true;
  config.pool_bytes_override = spec.LcmPageBytes() * 24;
  config.offload.enabled = true;
  config.offload.swap_preemption = true;
  config.offload.host_prefix_cache = false;
  config.offload.host_pool_bytes = 1ll << 30;
  config.offload.pcie.h2d_bandwidth = 1e15;
  config.offload.pcie.d2h_bandwidth = 1e15;
  config.offload.pcie.per_transfer_latency = 0.0;
  return config;
}

void SubmitPressureBatch(Engine& engine) {
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96), 80, 0.0));
  }
}

TEST(FaultRecovery, PcieD2HErrorRetriesThenFallsBackToRecompute) {
  EngineConfig config = OffloadPressureConfig();
  config.fault = ParsePlan("pcie_d2h:p=1.0");  // Every D2H leg fails, retries and all.
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  // No swap-out can ever commit; every preemption fell back to recompute.
  EXPECT_EQ(SwapStats(engine).swap_out_events, 0);
  EXPECT_GT(engine.metrics().recomputed_tokens, 0);
  // The retry loop ran with exponential backoff before giving up each time.
  EXPECT_GT(FaultsInjected(engine), 0);
  EXPECT_GT(SwapStats(engine).fault_retries, 0);
  EXPECT_GT(SwapStats(engine).backoff_time, 0.0);
  // Backoff is engine wait: it must show up in the stall clock too.
  EXPECT_GE(SwapStats(engine).stall_time, SwapStats(engine).backoff_time);
  EXPECT_EQ(SwapStats(engine).degraded_transitions, 0);
  engine.kv().CheckConsistency();
}

TEST(FaultRecovery, PcieTimeoutChargesBudgetOnceWithoutRetry) {
  EngineConfig config = OffloadPressureConfig();
  config.fault = ParsePlan("pcie_timeout:p=1.0");
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_EQ(SwapStats(engine).swap_out_events, 0);
  EXPECT_GT(FaultsInjected(engine), 0);
  // A hung link is not retried — the engine waits out the timeout budget and gives up.
  EXPECT_EQ(SwapStats(engine).fault_retries, 0);
  EXPECT_GE(SwapStats(engine).backoff_time, config.offload.pcie.timeout_seconds);
  engine.kv().CheckConsistency();
}

TEST(FaultRecovery, PcieH2DErrorDropsSwapSetAndRecomputes) {
  EngineConfig config = OffloadPressureConfig();
  config.fault = ParsePlan("pcie_h2d:p=1.0");  // Swap-outs succeed, every swap-in fails.
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_GT(SwapStats(engine).swap_out_events, 0);
  EXPECT_EQ(SwapStats(engine).swap_in_events, 0);
  // Every swapped-out request resolved through the fallback: set dropped, prefix recomputed.
  EXPECT_EQ(engine.metrics().swap_fallback_events, SwapStats(engine).swap_out_events);
  EXPECT_GT(engine.metrics().recomputed_tokens, 0);
  EXPECT_GT(SwapStats(engine).fault_retries, 0);
  EXPECT_GT(SwapStats(engine).backoff_time, 0.0);
  // Nothing lingers in host memory once everything finished.
  EXPECT_EQ(engine.swap()->host().num_sets(), 0);
  engine.kv().CheckConsistency();
}

TEST(FaultRecovery, HostPoolFailureDegradesToGpuOnly) {
  EngineConfig config = OffloadPressureConfig();
  config.fault = ParsePlan("host_alloc:p=1.0");
  config.offload.degrade_after_host_failures = 1;
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  ASSERT_NE(engine.swap(), nullptr);
  EXPECT_TRUE(engine.swap()->degraded());
  EXPECT_EQ(SwapStats(engine).degraded_transitions, 1);
  EXPECT_GE(engine.swap()->stats().host_failures, 1);
  // The tier drained cleanly: no sets, no pages, no bytes.
  EXPECT_EQ(engine.swap()->host().num_sets(), 0);
  EXPECT_EQ(engine.swap()->host().num_pages(), 0);
  EXPECT_EQ(engine.swap()->host().used_bytes(), 0);
  // After degradation every preemption is recompute, so the engine still finishes.
  EXPECT_GT(engine.metrics().recomputed_tokens, 0);
  engine.kv().CheckConsistency();
}

TEST(FaultRecovery, HostPoolShrinkHalvesCapacity) {
  EngineConfig config = OffloadPressureConfig();
  config.fault = ParsePlan("host_shrink:at=0");  // Exactly one pressure spike.
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_EQ(engine.swap()->stats().host_shrinks, 1);
  EXPECT_EQ(engine.swap()->host().capacity_bytes(), config.offload.host_pool_bytes / 2);
  EXPECT_FALSE(engine.swap()->degraded());
  engine.kv().CheckConsistency();
}

TEST(FaultRecovery, RepeatedShrinksDegradeBelowFloor) {
  EngineConfig config = OffloadPressureConfig();
  config.fault = ParsePlan("host_shrink:every=1");  // Halve on every step.
  config.offload.host_pool_bytes = 1 << 20;
  config.offload.min_host_pool_bytes = 1 << 16;
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_TRUE(engine.swap()->degraded());
  EXPECT_EQ(SwapStats(engine).degraded_transitions, 1);
  // 2^20 halves 4 times before the next halving lands below 2^16.
  EXPECT_EQ(engine.swap()->stats().host_shrinks, 4);
  EXPECT_EQ(engine.swap()->host().used_bytes(), 0);
  engine.kv().CheckConsistency();
}

TEST(FaultRecovery, GpuStepFaultDiscardsCommitAndRetries) {
  EngineConfig config;
  config.model = TinyFullModel();
  config.gpu = TestGpu();
  config.fault = ParsePlan("gpu_step:at=2");
  Engine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(64), 8, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(48), 8, 0.0));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().gpu_step_faults, 1);
  EXPECT_EQ(FaultsInjected(engine), 1);
  // The voided step's work was re-done: both requests completed with full output.
  EXPECT_EQ(engine.metrics().CompletedRequests(), 2);
  for (const RequestRecord& record : engine.metrics().finished()) {
    EXPECT_FALSE(record.failed);
    EXPECT_EQ(record.output_len, 8);
  }
  engine.kv().CheckConsistency();
}

TEST(FaultRecovery, GpuStepFaultCostsTimeButNotTokens) {
  // Same schedule with and without the fault: identical outputs, strictly more sim time.
  auto run = [](const std::string& plan) {
    EngineConfig config;
    config.model = TinyFullModel();
    config.gpu = TestGpu();
    if (!plan.empty()) {
      config.fault = ParsePlan(plan);
    }
    Engine engine(config);
    engine.Submit(MakeRequest(0, TextPrompt(64), 16, 0.0));
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
    return engine.now();
  };
  const double clean = run("");
  const double faulted = run("gpu_step:at=1");
  EXPECT_GT(faulted, clean);
}

// --- SpecDecodeEngine: same fault classes through the 5-phase step ---

SpecDecodeConfig SpecOffloadConfig() {
  SpecDecodeConfig config;
  config.target = TinyFullModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.strategy = SpecStrategy::kJenga;
  config.pool_bytes_override = 384 << 10;  // Fits ~2 of the 4 requests.
  config.seed = 7;
  config.offload.enabled = true;
  config.offload.host_pool_bytes = 1ll << 30;
  config.offload.pcie.h2d_bandwidth = 1e15;
  config.offload.pcie.d2h_bandwidth = 1e15;
  config.offload.pcie.per_transfer_latency = 0.0;
  return config;
}

void SubmitSpecBatch(SpecDecodeEngine& engine) {
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96), 64, 0.0));
  }
}

TEST(FaultRecovery, SpecDecodeStepFaultVoidsDecodePass) {
  SpecDecodeConfig config;
  config.target = TinyFullModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.seed = 7;
  config.fault = ParsePlan("gpu_step:p=0.2", 11);
  SpecDecodeEngine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(64), 24, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(48), 24, 0.0));
  engine.RunToCompletion();
  EXPECT_GT(engine.metrics().gpu_step_faults, 0);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 2);
  for (const RequestRecord& record : engine.metrics().finished()) {
    EXPECT_FALSE(record.failed);
    EXPECT_EQ(record.output_len, 24);
  }
  for (int m = 0; m < engine.num_managers(); ++m) {
    engine.manager(m).CheckConsistency();
  }
}

TEST(FaultRecovery, SpecDecodeH2DErrorFallsBackToRecompute) {
  SpecDecodeConfig config = SpecOffloadConfig();
  config.fault = ParsePlan("pcie_h2d:p=1.0");
  SpecDecodeEngine engine(config);
  SubmitSpecBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_EQ(SwapStats(engine).swap_in_events, 0);
  EXPECT_EQ(engine.metrics().swap_fallback_events, SwapStats(engine).swap_out_events);
  EXPECT_GT(SwapStats(engine).fault_retries, 0);
  for (int m = 0; m < engine.num_managers(); ++m) {
    engine.manager(m).CheckConsistency();
  }
}

TEST(FaultRecovery, SpecDecodeHostFailureDegrades) {
  SpecDecodeConfig config = SpecOffloadConfig();
  config.fault = ParsePlan("host_alloc:p=1.0");
  config.offload.degrade_after_host_failures = 2;
  SpecDecodeEngine engine(config);
  SubmitSpecBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_TRUE(engine.swap()->degraded());
  EXPECT_EQ(SwapStats(engine).degraded_transitions, 1);
  EXPECT_EQ(engine.swap()->host().used_bytes(), 0);
}

TEST(FaultRecovery, DisabledInjectorReportsZeroEverywhere) {
  // Empty plan → no injector is even constructed; all recovery counters stay zero.
  Engine engine(OffloadPressureConfig());
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_EQ(engine.fault_injector(), nullptr);
  EXPECT_EQ(SwapStats(engine).fault_retries, 0);
  EXPECT_EQ(SwapStats(engine).backoff_time, 0.0);
  EXPECT_EQ(engine.metrics().gpu_step_faults, 0);
  EXPECT_EQ(SwapStats(engine).degraded_transitions, 0);
  EXPECT_EQ(engine.metrics().shed_requests, 0);
  EXPECT_EQ(engine.metrics().cancelled_requests, 0);
}

}  // namespace
}  // namespace jenga

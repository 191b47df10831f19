// Engine-level tests of the host-memory offload tier: preempt-by-swap round trips, the
// second-chance prefix cache, and the regression guard that preempt→re-admit→finish cycles
// leave no per-request affinity free-list state behind (with and without swapping).

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

// Pool fits ~2 requests' KV; 4 long-output requests force preemption churn (same pressure
// shape as Engine.PreemptionRecoversUnderMemoryPressure).
EngineConfig PressureConfig(bool offload, bool swap_preemption) {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  EngineConfig config;
  config.model = model;
  config.gpu = TestGpu();
  config.jenga = true;
  config.vision_cache = true;
  config.pool_bytes_override = spec.LcmPageBytes() * 24;
  config.memory_sample_every = 1;
  if (offload) {
    config.offload.enabled = true;
    config.offload.swap_preemption = swap_preemption;
    config.offload.host_prefix_cache = false;
    config.offload.host_pool_bytes = 1ll << 30;
    // An effectively free link makes the crossover always pick swap for eligible footprints,
    // so the swap path is exercised deterministically even for the tiny test model.
    config.offload.pcie.h2d_bandwidth = 1e15;
    config.offload.pcie.d2h_bandwidth = 1e15;
    config.offload.pcie.per_transfer_latency = 0.0;
  }
  return config;
}

void SubmitPressureBatch(Engine& engine) {
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96), 80, 0.0));
  }
}

int TotalPreemptions(const Engine& engine) {
  int preemptions = 0;
  for (const RequestRecord& record : engine.metrics().finished()) {
    preemptions += record.preemptions;
  }
  return preemptions;
}

void ExpectFreeListsDrained(Engine& engine) {
  const JengaAllocator& allocator = engine.kv().allocator();
  for (int g = 0; g < allocator.num_groups(); ++g) {
    EXPECT_EQ(allocator.group(g).GetFreeListStats().tracked_requests, 0)
        << "group " << g << " leaked affinity free-list state";
  }
}

TEST(OffloadEngine, SwapPreemptionRoundTripsUnderPressure) {
  Engine engine(PressureConfig(/*offload=*/true, /*swap_preemption=*/true));
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_GT(TotalPreemptions(engine), 0);
  // Every swap-in re-validated the per-group fingerprint (RestoreFromSwap CHECKs the round
  // trip is bit-identical), so surviving RunToCompletion proves the property held.
  EXPECT_GT(SwapStats(engine).swap_in_events, 0);
  EXPECT_EQ(SwapStats(engine).swap_in_events, SwapStats(engine).swap_out_events);
  ExpectConsistent(engine.kv());
}

TEST(OffloadEngine, SwapRoundTripsWithPrefixCachingOn) {
  EngineConfig config = PressureConfig(/*offload=*/true, /*swap_preemption=*/true);
  config.enable_prefix_caching = true;
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_GT(SwapStats(engine).swap_in_events, 0);
  ExpectConsistent(engine.kv());
}

TEST(OffloadEngine, SwapEliminatesRecomputedTokens) {
  Engine recompute(PressureConfig(/*offload=*/true, /*swap_preemption=*/false));
  SubmitPressureBatch(recompute);
  recompute.RunToCompletion();
  Engine swap(PressureConfig(/*offload=*/true, /*swap_preemption=*/true));
  SubmitPressureBatch(swap);
  swap.RunToCompletion();
  EXPECT_GT(recompute.metrics().recomputed_tokens, 0);
  EXPECT_EQ(SwapStats(recompute).swap_out_events, 0);
  EXPECT_LT(swap.metrics().recomputed_tokens, recompute.metrics().recomputed_tokens);
}

TEST(OffloadEngine, FreeListsDrainAfterPreemptionCycles) {
  // The affinity free lists must not accumulate per-request state through
  // preempt→re-admit→finish cycles, whichever preemption mode ran.
  for (const bool swap_mode : {false, true}) {
    Engine engine(PressureConfig(/*offload=*/true, swap_mode));
    SubmitPressureBatch(engine);
    engine.RunToCompletion();
    ASSERT_EQ(engine.metrics().CompletedRequests(), 4);
    EXPECT_GT(TotalPreemptions(engine), 0);
    ExpectFreeListsDrained(engine);
    ExpectConsistent(engine.kv());
  }
  // And without the tier at all (Release(finished=true) path only).
  Engine plain(PressureConfig(/*offload=*/false, /*swap_preemption=*/false));
  SubmitPressureBatch(plain);
  plain.RunToCompletion();
  ExpectFreeListsDrained(plain);
}

TEST(OffloadEngine, FailedRequestsAlsoDrainFreeLists) {
  EngineConfig config = PressureConfig(/*offload=*/true, /*swap_preemption=*/true);
  const KvSpec spec = MakeJengaSpec(TinyFullModel(), 16, false);
  config.pool_bytes_override = spec.LcmPageBytes() * 8;
  Engine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(16 * 64), 4, 0.0));  // Can never fit.
  engine.Submit(MakeRequest(1, TextPrompt(64), 8, 0.0));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().FailedRequests(), 1);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
  ExpectFreeListsDrained(engine);
  ExpectConsistent(engine.kv());
}

TEST(OffloadEngine, DeterministicAcrossRuns) {
  struct RunSummary {
    double now = 0.0;
    int64_t swap_out = 0;
    double stall = 0.0;
    std::vector<double> finish_times;
  };
  auto run = [] {
    Engine engine(PressureConfig(/*offload=*/true, /*swap_preemption=*/true));
    SubmitPressureBatch(engine);
    engine.RunToCompletion();
    RunSummary summary;
    summary.now = engine.now();
    summary.swap_out = SwapStats(engine).swap_out_events;
    summary.stall = SwapStats(engine).stall_time;
    for (const RequestRecord& record : engine.metrics().finished()) {
      summary.finish_times.push_back(record.finish_time);
    }
    return summary;
  };
  const RunSummary a = run();
  const RunSummary b = run();
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.swap_out, b.swap_out);
  EXPECT_EQ(a.stall, b.stall);
  EXPECT_EQ(a.finish_times, b.finish_times);
}

TEST(OffloadEngine, HostPrefixCacheGivesEvictedPagesASecondChance) {
  // Serial identical-prefix requests against a pool too small to keep the prefix cached:
  // GPU-only forgets it between requests, the two-tier cache parks and promotes it back.
  auto make_config = [](bool tier) {
    const ModelConfig model = TinyFullModel();
    const KvSpec spec = MakeJengaSpec(model, 16, true);
    EngineConfig config;
    config.model = model;
    config.gpu = TestGpu();
    config.jenga = true;
    config.vision_cache = true;
    config.enable_prefix_caching = true;
    config.max_num_seqs_override = 1;
    config.pool_bytes_override = spec.LcmPageBytes() * 24;
    config.memory_sample_every = 1;
    if (tier) {
      config.offload.enabled = true;
      config.offload.swap_preemption = false;
      config.offload.host_prefix_cache = true;
      config.offload.host_pool_bytes = 1ll << 30;
    }
    return config;
  };
  auto run = [&](bool tier) {
    Engine engine(make_config(tier));
    // Two interleaved prefix families so each admission evicts the other family's pages.
    for (int i = 0; i < 8; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(192, /*base=*/100 + (i % 2) * 1000), 4,
                                /*arrival_time=*/static_cast<double>(i)));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 8);
    ExpectConsistent(engine.kv());
    return engine.metrics().cache_hit_tokens;
  };
  const int64_t gpu_only_hits = run(false);
  const int64_t two_tier_hits = run(true);
  EXPECT_GT(two_tier_hits, gpu_only_hits);
}

// --- Speculative decoding: one swap set must cover every manager's KV ---

ModelConfig TinyDraftModel() {
  ModelConfig model;
  model.name = "tiny-draft";
  model.params_b = 0.02;
  model.hidden_size = 128;
  model.max_context_len = 65536;
  model.compute_layers = 2;
  for (int i = 0; i < 2; ++i) {
    LayerSpec layer;
    layer.kind = LayerKind::kFullAttention;
    layer.num_kv_heads = 1;
    layer.head_dim = 32;
    layer.dtype_bytes = 2;
    model.layers.push_back(layer);
  }
  return model;
}

TEST(OffloadEngine, SwapRestoredVisionRequestDoesNotReEncode) {
  // The vision-embedding pages come back with the swap set, so the admission loop's restore
  // branch marks the encoder as run: the restored request's next steps must not re-encode.
  EngineConfig config = PressureConfig(/*offload=*/true, /*swap_preemption=*/true);
  config.model = TinyVisionModel();
  config.pool_bytes_override = 1 << 24;  // No pressure: the restore fits at once.
  Engine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(64), 32, 0.0));
  engine.Submit(MakeRequest(1, MixedPrompt(16, 2, 8, 16), 32, 0.0));
  const Request& r = engine.request(1);
  while (r.num_generated < 4) {
    ASSERT_TRUE(engine.StepOnce());
  }
  ASSERT_EQ(r.vision_encoder_runs, 1);
  ASSERT_TRUE(engine.ParkNewestRunning());
  ASSERT_TRUE(r.swapped_out);

  engine.RunToCompletion();
  EXPECT_EQ(SwapStats(engine).swap_in_events, 1);
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_EQ(r.vision_encoder_runs, 1);
  EXPECT_EQ(engine.metrics().vision_encoder_runs, 1);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 2);
}

TEST(OffloadSpecDecode, RestoredRequestEmitsNothingInItsRestoreStep) {
  // The restore transfer is still in flight in the step that admits it: the admission loop's
  // restore branch keeps the request out of that step's decode, and it decodes from the
  // next step on.
  SpecDecodeConfig config;
  config.target = TinyFullModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.strategy = SpecStrategy::kJenga;
  config.pool_bytes_override = 1 << 24;
  config.seed = 7;
  config.acceptance_rate = 1.0;
  config.offload.enabled = true;
  config.offload.host_pool_bytes = 1ll << 30;
  config.offload.pcie.h2d_bandwidth = 1e15;
  config.offload.pcie.d2h_bandwidth = 1e15;
  config.offload.pcie.per_transfer_latency = 0.0;
  SpecDecodeEngine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(64), 64, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(64, 300), 64, 0.0));
  const Request& r = engine.request(1);
  while (r.num_generated < 10) {
    ASSERT_TRUE(engine.StepOnce());
  }
  ASSERT_TRUE(engine.ParkNewestRunning());
  ASSERT_TRUE(r.swapped_out);
  const int64_t generated = r.num_generated;

  ASSERT_TRUE(engine.StepOnce());
  ASSERT_FALSE(r.swapped_out);
  EXPECT_EQ(SwapStats(engine).swap_in_events, 1);
  EXPECT_EQ(r.num_generated, generated);
  ASSERT_TRUE(engine.StepOnce());
  EXPECT_GT(r.num_generated, generated);

  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 2);
}

TEST(OffloadSpecDecode, SwapRoundTripsAcrossAllManagers) {
  // kVllmManual runs two KvManagers; a swap set carries one fingerprint per manager and both
  // must restore together.
  for (const SpecStrategy strategy : {SpecStrategy::kJenga, SpecStrategy::kVllmManual}) {
    SCOPED_TRACE(SpecStrategyName(strategy));
    SpecDecodeConfig config;
    config.target = TinyFullModel();
    config.draft = TinyDraftModel();
    config.gpu = TestGpu();
    config.strategy = strategy;
    config.pool_bytes_override = 384 << 10;  // Fits ~2 of the 4 requests.
    config.seed = 7;
    config.offload.enabled = true;
    config.offload.host_pool_bytes = 1ll << 30;
    config.offload.pcie.h2d_bandwidth = 1e15;
    config.offload.pcie.d2h_bandwidth = 1e15;
    config.offload.pcie.per_transfer_latency = 0.0;
    SpecDecodeEngine engine(config);
    for (int i = 0; i < 4; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(96), 64, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
    EXPECT_GT(SwapStats(engine).swap_in_events, 0);
    EXPECT_EQ(SwapStats(engine).swap_in_events, SwapStats(engine).swap_out_events);
    for (int m = 0; m < engine.num_managers(); ++m) {
      ExpectConsistent(engine.manager(m));
    }
  }
}

}  // namespace
}  // namespace jenga

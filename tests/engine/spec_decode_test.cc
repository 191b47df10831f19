#include "src/engine/spec_decode.h"

#include <gtest/gtest.h>

#include "src/baseline/smartspec.h"
#include "src/engine/engine.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

ModelConfig TinyDraft() {
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

SpecDecodeConfig TestSpecConfig(ModelConfig target, SpecStrategy strategy, int64_t pool) {
  SpecDecodeConfig config;
  config.target = std::move(target);
  config.draft = TinyDraft();
  config.gpu = TestGpu();
  config.strategy = strategy;
  config.pool_bytes_override = pool;
  config.seed = 7;
  return config;
}

TEST(SmartSpec, SplitProportionalToKvSizes) {
  const PoolSplit split = SmartSpecSplit(TinyFullModel(), TinyDraft(), 1000);
  // Target 1024 B/token vs draft 256 B/token → 4:1 split.
  EXPECT_EQ(split.target_bytes, 800);
  EXPECT_EQ(split.draft_bytes, 200);
  EXPECT_EQ(split.target_bytes + split.draft_bytes, 1000);
}

TEST(SpecDecode, AllStrategiesComplete) {
  for (const SpecStrategy strategy :
       {SpecStrategy::kJenga, SpecStrategy::kVllmMax, SpecStrategy::kVllmManual}) {
    SCOPED_TRACE(SpecStrategyName(strategy));
    SpecDecodeEngine engine(TestSpecConfig(TinyFullModel(), strategy, 1 << 24));
    for (int i = 0; i < 4; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(128), 32, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
    for (const RequestRecord& record : engine.metrics().finished()) {
      EXPECT_EQ(record.output_len, 32);
    }
  }
}

TEST(SpecDecode, OversizedRequestFailsInsteadOfCrashing) {
  // Regression: when the last remaining request is failed at admission (its first chunk can
  // never fit), StepOnce used to hit a JENGA_CHECK(!waiting_.empty()) abort instead of
  // draining cleanly. Both "alone" and "after normal traffic" orderings must terminate.
  for (const SpecStrategy strategy :
       {SpecStrategy::kJenga, SpecStrategy::kVllmMax, SpecStrategy::kVllmManual}) {
    SCOPED_TRACE(SpecStrategyName(strategy));
    SpecDecodeConfig config = TestSpecConfig(TinyFullModel(), strategy, 1 << 20);
    config.gpu.max_batched_tokens = 8192;
    SpecDecodeEngine engine(config);
    engine.Submit(MakeRequest(0, TextPrompt(64), 8, 0.0));
    engine.Submit(MakeRequest(1, TextPrompt(8192), 8, 0.0));  // > pool in one chunk.
    engine.RunToCompletion();
    ASSERT_EQ(engine.metrics().finished().size(), 2u);
    EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
    EXPECT_EQ(engine.metrics().FailedRequests(), 1);
    for (const RequestRecord& record : engine.metrics().finished()) {
      EXPECT_EQ(record.failed, record.id == 1);
    }
  }
}

TEST(SpecDecode, SelfPreemptedRequestWithFullOutputFinishesAfterRecompute) {
  // Regression: a request that self-preempts mid-decode *after* appending its final output
  // tokens re-enters the decode loop post-recompute with zero tokens left to emit; that used
  // to trip JENGA_CHECK_GT(emit, 0) instead of completing the request. Schedule found by the
  // engine fuzzer (JENGA_FUZZ_SEED=0xE3000208, SpecDecodeFuzz.AllocatorStackNoOffload):
  // req 3's short output (3 <= propose_len + 1) is fully appended when preemption churn under
  // the undersized pool knocks it out mid-decode.
  SpecDecodeConfig config = TestSpecConfig(TinyPyramidModel(), SpecStrategy::kVllmMax, 1409024);
  config.gpu.max_batched_tokens = 96;
  config.max_num_seqs_override = 4;
  config.seed = 0xE3000208ull;
  SpecDecodeEngine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(81), 30, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(176), 21, 0.0));
  engine.Submit(MakeRequest(2, TextPrompt(204), 34, 0.0));
  engine.Submit(MakeRequest(3, TextPrompt(142), 3, 0.0));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  EXPECT_EQ(engine.metrics().FailedRequests(), 0);
  EXPECT_EQ(engine.request(3).num_generated, 3);
}

TEST(SpecDecode, MacroStepsEmitMultipleTokens) {
  SpecDecodeEngine engine(TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, 1 << 24));
  engine.Submit(MakeRequest(0, TextPrompt(64), 40, 0.0));
  engine.RunToCompletion();
  // With k = 4 and acceptance 0.7, expected ≈ 2.6 tokens per macro step → far fewer steps
  // than 40 sequential decodes.
  EXPECT_LT(engine.metrics().total_steps(), 30);
}

TEST(SpecDecode, JengaMatchesManualOnHomogeneousModel) {
  // §7.4: Jenga's automatic allocation reaches the manually-tuned optimum for pure
  // self-attention models.
  double times[2] = {0, 0};
  int i = 0;
  for (const SpecStrategy strategy : {SpecStrategy::kJenga, SpecStrategy::kVllmManual}) {
    SpecDecodeEngine engine(TestSpecConfig(TinyFullModel(), strategy, 1 << 22));
    for (int r = 0; r < 8; ++r) {
      engine.Submit(MakeRequest(r, TextPrompt(256), 24, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 8);
    times[i++] = engine.now();
  }
  EXPECT_NEAR(times[0], times[1], times[1] * 0.1);
}

TEST(SpecDecode, JengaBeatsMaxPagingUnderPressure) {
  // vLLM-max charges every draft token a target-sized page; with a tight pool Jenga batches
  // more and finishes sooner.
  double jenga_time = 0.0;
  double max_time = 0.0;
  for (const SpecStrategy strategy : {SpecStrategy::kJenga, SpecStrategy::kVllmMax}) {
    SpecDecodeEngine engine(TestSpecConfig(TinyFullModel(), strategy, 1 << 21));
    for (int r = 0; r < 8; ++r) {
      engine.Submit(MakeRequest(r, TextPrompt(256), 24, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 8);
    (strategy == SpecStrategy::kJenga ? jenga_time : max_time) = engine.now();
  }
  EXPECT_LT(jenga_time, max_time);
}

TEST(SpecDecode, JengaBeatsManualOnHeterogeneousModel) {
  // On a sliding-window target, manual splitting cannot reclaim out-of-window KV.
  double jenga_time = 0.0;
  double manual_time = 0.0;
  for (const SpecStrategy strategy : {SpecStrategy::kJenga, SpecStrategy::kVllmManual}) {
    SpecDecodeEngine engine(TestSpecConfig(TinySlidingModel(64), strategy, 1 << 21));
    for (int r = 0; r < 8; ++r) {
      engine.Submit(MakeRequest(r, TextPrompt(512), 24, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 8);
    (strategy == SpecStrategy::kJenga ? jenga_time : manual_time) = engine.now();
  }
  EXPECT_LT(jenga_time, manual_time);
}

TEST(SpecDecode, FailedRequestsAreMarkedFailed) {
  // Regression: the spec engine's finish path used to leave Request::failed unset on both
  // failure paths, so the request view disagreed with its RequestRecord.
  SpecDecodeConfig config = TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, 1 << 20);
  config.gpu.max_batched_tokens = 8192;
  SpecDecodeEngine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(64), 8, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(8192), 8, 0.0));  // > pool in one chunk.
  engine.Submit(MakeRequest(2, TextPrompt(64), 8, 0.0));
  ASSERT_TRUE(engine.CancelRequest(2));
  engine.RunToCompletion();
  EXPECT_FALSE(engine.request(0).failed);
  EXPECT_TRUE(engine.request(1).failed);  // Oversized admission.
  EXPECT_FALSE(engine.request(1).cancelled);
  EXPECT_TRUE(engine.request(2).failed);  // Cancel.
  EXPECT_TRUE(engine.request(2).cancelled);
  for (const RequestRecord& record : engine.metrics().finished()) {
    EXPECT_EQ(record.failed, engine.request(record.id).failed) << "request " << record.id;
  }
}

TEST(SpecDecode, FutureArrivalsWaitForTheirArrivalTime) {
  // Regression: admission used to ignore arrival_time, so a request submitted for t = 5 ran
  // at t = 0 and reported a negative TTFT. The idle engine must also jump to the next arrival
  // instead of spinning on a queue of future requests.
  SpecDecodeEngine engine(TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, 1 << 24));
  engine.Submit(MakeRequest(0, TextPrompt(64), 8, 5.0));
  engine.Submit(MakeRequest(1, TextPrompt(64), 8, 5000.0));  // Long after request 0 is done.
  engine.RunToCompletion(/*max_steps=*/1000);
  ASSERT_EQ(engine.metrics().CompletedRequests(), 2);
  for (const RequestRecord& record : engine.metrics().finished()) {
    SCOPED_TRACE(record.id);
    EXPECT_GE(record.first_scheduled_time, record.arrival_time);
    EXPECT_GE(record.Ttft(), 0.0);
  }
  EXPECT_LT(engine.request(0).finish_time, 5000.0);
}

TEST(SpecDecode, PreemptInStepFaultWindowSwapsOnlyComputedState) {
  // A GPU step fault voids a macro step after its decode pages were allocated, so until the
  // recompute catches up the request holds pages past num_computed_tokens. Preempting it in
  // that window must swap out only the computed state: the swap fingerprint has to match
  // what the restore rebuilds (it used to diverge and abort the restore).
  SpecDecodeConfig config = TestSpecConfig(TinyFullModel(), SpecStrategy::kVllmMax, 1 << 24);
  config.acceptance_rate = 1.0;  // Every macro step emits propose_len + 1 = 5 tokens.
  config.offload.enabled = true;
  config.offload.host_prefix_cache = false;
  // A free link makes the crossover always choose swap.
  config.offload.pcie.h2d_bandwidth = 1e15;
  config.offload.pcie.d2h_bandwidth = 1e15;
  config.offload.pcie.per_transfer_latency = 0.0;
  // Consults: step 0 prefills 27 tokens, step 1 recomputes the first generated token (28),
  // step 2 decodes 5 more (to 33, a third 16-token page) and faults.
  ASSERT_TRUE(FaultPlan::Parse("gpu_step:at=2", &config.fault.plan).ok());
  SpecDecodeEngine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(27), 40, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(27, 300), 40, 0.0));
  while (engine.metrics().gpu_step_faults == 0) {
    ASSERT_TRUE(engine.StepOnce());
  }
  const Request& victim = engine.request(1);
  ASSERT_EQ(victim.num_computed_tokens, 28);
  ASSERT_EQ(victim.num_generated, 6);  // Appended, not yet computed.

  ASSERT_TRUE(engine.ParkNewestRunning());
  ASSERT_TRUE(victim.swapped_out);
  const HostSwapSet* set = engine.swap()->PeekSwapSet(1);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->tokens, 28);
  const int64_t page_bytes = engine.manager(0).allocator().lcm().large_page_bytes();
  EXPECT_EQ(set->resident_bytes, 2 * page_bytes);  // ⌈28 / 16⌉ pages, not ⌈33 / 16⌉.

  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 2);
  EXPECT_EQ(SwapStats(engine).swap_in_events, 1);
  EXPECT_EQ(engine.request(1).num_generated, 40);
}

TEST(SpecDecode, CacheHitLedgerMatchesRecordsInBothEngines) {
  // metrics.cache_hit_tokens sums the prefix hits granted at admission; with no preemption
  // every request is admitted once, so it must equal the per-request records. The spec engine
  // runs with prefix caching off (Fig. 19 isolates allocation efficiency): both sides are 0.
  const auto record_hits = [](const EngineMetrics& metrics) {
    int64_t hits = 0;
    for (const RequestRecord& record : metrics.finished()) {
      EXPECT_EQ(record.preemptions, 0);
      hits += record.cached_prefix_tokens;
    }
    return hits;
  };

  EngineConfig engine_config = JengaProfile(TinyFullModel(), TestGpu());
  engine_config.pool_bytes_override = 1 << 24;
  Engine engine(engine_config);
  engine.Submit(MakeRequest(0, TextPrompt(128), 8, 0.0));
  engine.RunToCompletion();
  engine.Submit(MakeRequest(1, TextPrompt(128), 8, 0.0));  // Same prompt: a prefix hit.
  engine.Submit(MakeRequest(2, TextPrompt(96), 8, 0.0));
  engine.RunToCompletion();
  EXPECT_GT(engine.metrics().cache_hit_tokens, 0);
  EXPECT_EQ(engine.metrics().cache_hit_tokens, record_hits(engine.metrics()));

  SpecDecodeEngine spec(TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, 1 << 24));
  spec.Submit(MakeRequest(0, TextPrompt(128), 8, 0.0));
  spec.RunToCompletion();
  spec.Submit(MakeRequest(1, TextPrompt(128), 8, 0.0));
  spec.RunToCompletion();
  EXPECT_EQ(spec.metrics().cache_hit_tokens, 0);
  EXPECT_EQ(spec.metrics().cache_hit_tokens, record_hits(spec.metrics()));
}

TEST(SpecDecode, PrefillTokensComputedSumsThePrefillChunks) {
  // Prompts up to 980 tokens prefill in chunks of at most 512 (the test GPU's token budget).
  // With no preemption and prefix caching off, the prefill chunks cover every prompt token
  // once plus each request's first generated token, whose KV the prefill continuation computes
  // (PrefillTarget counts generated tokens). Every other scheduled token is a decode emit.
  SpecDecodeEngine engine(TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, 1 << 24));
  int64_t prompt_tokens = 0;
  for (int r = 0; r < 5; ++r) {
    const int64_t len = 300 + 170 * r;
    engine.Submit(MakeRequest(r, TextPrompt(len), 12, 0.0));
    prompt_tokens += len;
  }
  engine.RunToCompletion();
  ASSERT_EQ(engine.metrics().CompletedRequests(), 5);
  int64_t generated = 0;
  for (const RequestRecord& record : engine.metrics().finished()) {
    EXPECT_EQ(record.preemptions, 0);
    generated += record.output_len;
  }
  EXPECT_EQ(engine.metrics().prefill_tokens_computed, prompt_tokens + 5);
  EXPECT_EQ(engine.metrics().prefill_tokens_computed,
            engine.metrics().total_scheduled_tokens() - generated);
}

TEST(SpecDecode, PrefillContinuationRetriesInsteadOfPreempting) {
  // Phase 1 retries a prefill chunk that does not fit on the next step; it never preempts.
  // Distinct prompts longer than a chunk, all at t=0 on a small pool: with this policy a
  // request is preempted about once at most, while preempting from a continuation (the
  // decode policy) thrashes, preempting and recomputing several times as much.
  struct Case {
    int64_t pool;
    int prompt_len;
  };
  for (const Case c : {Case{1 << 19, 192}, Case{1 << 20, 256}}) {
    SCOPED_TRACE(c.pool);
    SpecDecodeConfig config = TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, c.pool);
    config.gpu.max_batched_tokens = 128;
    SpecDecodeEngine engine(config);
    constexpr int kRequests = 8;
    for (int i = 0; i < kRequests; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(c.prompt_len, 1000 * (i + 1)), 32, 0.0));
    }
    engine.RunToCompletion();
    ASSERT_EQ(engine.metrics().CompletedRequests(), kRequests);
    int preemptions = 0;
    for (const RequestRecord& record : engine.metrics().finished()) {
      preemptions += record.preemptions;
    }
    EXPECT_LE(preemptions, kRequests);
    EXPECT_LE(engine.metrics().recomputed_tokens, int64_t{kRequests} * c.prompt_len);
  }
}

TEST(SpecDecode, RequestThatCannotFitAloneFailsInsteadOfLivelocking) {
  // Prompt plus output of one request (about 532 KB of target and draft KV) exceeds the
  // 512 KiB pool. Running alone, request 0 used to preempt itself at every decode that ran
  // out of room, re-admit, recompute and preempt itself again — hundreds of thousands of
  // times. A request that does not fit with nothing else running must fail instead.
  SpecDecodeConfig config = TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, 512 << 10);
  config.gpu.max_batched_tokens = 64;
  SpecDecodeEngine engine(config);
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(384, 1000 * (i + 1)), 32, 0.0));
  }
  engine.RunToCompletion(/*max_steps=*/20000);
  ASSERT_EQ(engine.metrics().finished().size(), static_cast<size_t>(kRequests));
  EXPECT_TRUE(engine.request(0).failed);
  EXPECT_EQ(engine.metrics().FailedRequests(), kRequests);
  EXPECT_LT(engine.metrics().total_steps(), 20000);
}

TEST(SpecDecode, DeterministicGivenSeed) {
  auto run = [] {
    SpecDecodeEngine engine(TestSpecConfig(TinyFullModel(), SpecStrategy::kJenga, 1 << 23));
    for (int r = 0; r < 4; ++r) {
      engine.Submit(MakeRequest(r, TextPrompt(100 + r), 16, 0.0));
    }
    engine.RunToCompletion();
    return engine.now();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace jenga

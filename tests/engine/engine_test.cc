#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

EngineConfig TestConfig(ModelConfig model, bool jenga, int64_t pool_bytes) {
  EngineConfig config;
  config.model = std::move(model);
  config.gpu = TestGpu();
  config.jenga = jenga;
  config.vision_cache = jenga;
  config.pool_bytes_override = pool_bytes;
  config.memory_sample_every = 1;
  return config;
}

TEST(Engine, SingleRequestCompletes) {
  Engine engine(TestConfig(TinyFullModel(), true, 1 << 22));
  engine.Submit(MakeRequest(0, TextPrompt(100), 10, 0.0));
  engine.RunToCompletion();
  ASSERT_EQ(engine.metrics().finished().size(), 1u);
  const RequestRecord& record = engine.metrics().finished()[0];
  EXPECT_FALSE(record.failed);
  EXPECT_EQ(record.output_len, 10);
  EXPECT_GT(record.first_token_time, 0.0);
  EXPECT_GE(record.finish_time, record.first_token_time);
  // 1 prefill step + 9 decode steps.
  EXPECT_EQ(engine.metrics().total_steps(), 10);
  ExpectConsistent(engine.kv());
}

TEST(Engine, TtftBeforeE2eAndTpotPositive) {
  Engine engine(TestConfig(TinyFullModel(), true, 1 << 22));
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(64 + 16 * i), 8, 0.1 * i));
  }
  engine.RunToCompletion();
  ASSERT_EQ(engine.metrics().finished().size(), 4u);
  for (const RequestRecord& record : engine.metrics().finished()) {
    EXPECT_GE(record.Ttft(), 0.0);
    EXPECT_GE(record.E2eLatency(), record.Ttft());
    EXPECT_GT(record.Tpot(), 0.0);
  }
}

TEST(Engine, ChunkedPrefillSplitsLongPrompts) {
  EngineConfig config = TestConfig(TinyFullModel(), true, 1 << 24);
  config.max_batched_tokens_override = 128;
  Engine engine(config);
  engine.Submit(MakeRequest(0, TextPrompt(1000), 2, 0.0));
  engine.RunToCompletion();
  // ceil(1000/128) = 8 prefill steps + 1 decode step.
  EXPECT_EQ(engine.metrics().total_steps(), 9);
}

TEST(Engine, ContinuousBatchingInterleavesRequests) {
  Engine engine(TestConfig(TinyFullModel(), true, 1 << 24));
  for (int i = 0; i < 8; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(64), 32, 0.0));
  }
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 8);
  // All eight decode together once prefilled.
  EXPECT_GT(engine.metrics().decode_batch_series().MaxValue(), 7.0);
}

TEST(Engine, PreemptionRecoversUnderMemoryPressure) {
  // Pool fits ~2 requests' KV; 4 long-output requests force preemption churn.
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  Engine engine(TestConfig(model, true, spec.LcmPageBytes() * 24));
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96), 80, 0.0));
  }
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
  int preemptions = 0;
  for (const RequestRecord& record : engine.metrics().finished()) {
    preemptions += record.preemptions;
  }
  EXPECT_GT(preemptions, 0);
  ExpectConsistent(engine.kv());
}

TEST(Engine, GeneratedTokensStayInTheirReservedVector) {
  // A 12k-token prompt decoded 64 tokens: the generated tokens live in their own vector,
  // reserved to output_len at submission, so the decode path never moves or grows it.
  constexpr int64_t kOutput = 64;
  Engine engine(TestConfig(TinyFullModel(), true, 1 << 25));
  engine.Submit(MakeRequest(0, TextPrompt(12000), kOutput, 0.0));
  const Request& r = engine.request(0);
  const int32_t* first_decode = nullptr;
  while (engine.StepOnce()) {
    if (r.num_generated == 0) {
      continue;
    }
    if (first_decode == nullptr) {
      first_decode = r.generated.data();
    }
    EXPECT_EQ(r.generated.data(), first_decode) << "after " << r.num_generated << " tokens";
  }
  EXPECT_EQ(r.state, RequestState::kFinished);
  EXPECT_NE(first_decode, nullptr);
  EXPECT_EQ(static_cast<int64_t>(r.generated.size()), r.num_generated);
  EXPECT_EQ(r.num_generated, kOutput);
  EXPECT_EQ(r.generated.data(), first_decode);
  EXPECT_EQ(static_cast<int64_t>(r.generated.capacity()), kOutput);
}

TEST(Engine, OversizedRequestFailsInsteadOfDeadlocking) {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  Engine engine(TestConfig(model, true, spec.LcmPageBytes() * 4));
  engine.Submit(MakeRequest(0, TextPrompt(16 * 64), 4, 0.0));
  engine.RunToCompletion();
  ASSERT_EQ(engine.metrics().finished().size(), 1u);
  EXPECT_TRUE(engine.metrics().finished()[0].failed);
  EXPECT_EQ(engine.metrics().FailedRequests(), 1);
}

TEST(Engine, PrefixCachingAcceleratesRepeatedPrompts) {
  Engine engine(TestConfig(TinyFullModel(), true, 1 << 24));
  engine.Submit(MakeRequest(0, TextPrompt(512), 4, 0.0));
  engine.RunToCompletion();
  const int64_t prefill_first = engine.metrics().prefill_tokens_computed;
  engine.Submit(MakeRequest(1, TextPrompt(512), 4, engine.now()));
  engine.RunToCompletion();
  const int64_t prefill_second = engine.metrics().prefill_tokens_computed - prefill_first;
  EXPECT_EQ(engine.metrics().cache_hit_tokens, 496);  // 31 of 32 blocks.
  EXPECT_EQ(prefill_second, 16);
  ExpectConsistent(engine.kv());
}

TEST(Engine, JengaMatchesBaselineOnHomogeneousModel) {
  // §7.2: on a standard self-attention model Jenga introduces no overhead — same steps, same
  // simulated time, because the degenerate Jenga spec equals the baseline spec.
  std::vector<double> times;
  std::vector<int64_t> steps;
  for (const bool jenga : {true, false}) {
    Engine engine(TestConfig(TinyFullModel(), jenga, 1 << 24));
    for (int i = 0; i < 6; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(200 + i), 16, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 6);
    times.push_back(engine.now());
    steps.push_back(engine.metrics().total_steps());
  }
  EXPECT_EQ(steps[0], steps[1]);
  EXPECT_NEAR(times[0], times[1], times[1] * 0.01);
}

TEST(Engine, JengaSustainsLargerBatchOnSlidingModel) {
  // The headline effect: under a constrained pool, dropping out-of-window KV lets Jenga batch
  // more decodes and finish sooner than the homogeneous baseline.
  const ModelConfig model = TinySlidingModel(/*window=*/64);
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  const int64_t pool = spec.LcmPageBytes() * 200;
  double jenga_time = 0.0;
  double baseline_time = 0.0;
  double jenga_batch = 0.0;
  double baseline_batch = 0.0;
  for (const bool jenga : {true, false}) {
    EngineConfig config = TestConfig(model, jenga, pool);
    config.enable_prefix_caching = false;
    config.max_batched_tokens_override = 128;
    Engine engine(config);
    for (int i = 0; i < 8; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(640), 40, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 8);
    (jenga ? jenga_time : baseline_time) = engine.now();
    (jenga ? jenga_batch : baseline_batch) = engine.metrics().MeanDecodeBatch();
  }
  EXPECT_LT(jenga_time, baseline_time);
  EXPECT_GT(jenga_batch, baseline_batch);
}

TEST(Engine, VisionEncoderRunsOnceWithCache) {
  const ModelConfig model = TinyVisionModel();
  EngineConfig config = TestConfig(model, true, 1 << 24);
  config.max_batched_tokens_override = 16;  // Force several chunks per request.
  Engine engine(config);
  engine.Submit(MakeRequest(0, MixedPrompt(16, 4, 8, 16), 4, 0.0));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().vision_encoder_runs, 1);
}

TEST(Engine, VisionEncoderRerunsWithoutCache) {
  const ModelConfig model = TinyVisionModel();
  EngineConfig config = TestConfig(model, false, 1 << 24);
  config.max_batched_tokens_override = 16;
  Engine engine(config);
  engine.Submit(MakeRequest(0, MixedPrompt(16, 4, 8, 16), 4, 0.0));
  engine.RunToCompletion();
  // 32 image tokens / 16-token chunks → at least 2 chunks touch images.
  EXPECT_GE(engine.metrics().vision_encoder_runs, 2);
}

TEST(Engine, MemoryTimelinePartitionsPool) {
  Engine engine(TestConfig(TinySlidingModel(64), false, 1 << 22));
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(320), 8, 0.0));
  }
  engine.RunToCompletion();
  ASSERT_FALSE(engine.metrics().memory_timeline().empty());
  for (const MemorySample& sample : engine.metrics().memory_timeline()) {
    // used + wasted + cached + unallocated == pool (± partial-block padding inside "used").
    const int64_t sum =
        sample.used_bytes + sample.wasted_bytes + sample.cached_bytes + sample.unallocated_bytes;
    EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(1 << 22),
                0.02 * static_cast<double>(1 << 22));
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [] {
    Engine engine(TestConfig(TinySlidingModel(64), true, 1 << 22));
    for (int i = 0; i < 6; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(200 + 30 * i), 20, 0.05 * i));
    }
    engine.RunToCompletion();
    return engine.now();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Engine, PoissonArrivalsRespectArrivalTimes) {
  Engine engine(TestConfig(TinyFullModel(), true, 1 << 24));
  engine.Submit(MakeRequest(0, TextPrompt(64), 4, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(64), 4, 100.0));  // Far in the future.
  engine.RunToCompletion();
  ASSERT_EQ(engine.metrics().finished().size(), 2u);
  const RequestRecord& late = engine.metrics().finished()[1];
  EXPECT_GE(late.first_scheduled_time, 100.0);
  EXPECT_LT(engine.metrics().finished()[0].finish_time, 100.0);
}

}  // namespace
}  // namespace jenga

// Engine-profile and pressure-path coverage: the Fig.-15 engine profiles, TGI's early-stop
// semantics, memory-fraction scaling, admission control, and Mamba's static reservation in
// homogeneous engines.

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/model/model_zoo.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

TEST(EngineProfiles, ProfileKnobs) {
  const EngineConfig vllm = VllmProfile(TinyFullModel(), TestGpu());
  const EngineConfig sglang = SglangProfile(TinyFullModel(), TestGpu());
  const EngineConfig tgi = TgiProfile(TinyFullModel(), TestGpu());
  const EngineConfig jenga = JengaProfile(TinyFullModel(), TestGpu());
  EXPECT_FALSE(vllm.jenga);
  EXPECT_FALSE(sglang.jenga);
  EXPECT_FALSE(tgi.jenga);
  EXPECT_TRUE(jenga.jenga);
  EXPECT_GT(sglang.memory_fraction, vllm.memory_fraction);
  EXPECT_LT(tgi.memory_fraction, vllm.memory_fraction);
  EXPECT_LT(tgi.output_fraction, 1.0);
  EXPECT_FALSE(vllm.vision_cache);
  EXPECT_TRUE(jenga.vision_cache);
}

TEST(EngineProfiles, TgiStopsEarly) {
  EngineConfig config = TgiProfile(TinyFullModel(), TestGpu());
  config.pool_bytes_override = 1 << 24;
  Engine engine(std::move(config));
  engine.Submit(MakeRequest(0, TextPrompt(64), 100, 0.0));
  engine.RunToCompletion();
  ASSERT_EQ(engine.metrics().finished().size(), 1u);
  // output_fraction 0.6 → 60 of the requested 100 tokens.
  EXPECT_EQ(engine.metrics().finished()[0].output_len, 60);
}

TEST(EngineProfiles, MemoryFractionScalesPool) {
  EngineConfig a = VllmProfile(TinyFullModel(), TestGpu());
  EngineConfig b = a;
  b.memory_fraction = 0.5;
  Engine engine_a(std::move(a));
  Engine engine_b(std::move(b));
  EXPECT_NEAR(static_cast<double>(engine_b.kv().GetMemoryStats().pool_bytes),
              0.5 * static_cast<double>(engine_a.kv().GetMemoryStats().pool_bytes),
              static_cast<double>(engine_a.kv().allocator().lcm().large_page_bytes()));
}

TEST(EngineProfiles, HomogeneousMambaReservation) {
  // Baseline engines reserve Mamba state for max_num_seqs upfront; Jenga does not.
  const ModelConfig model = TinyMambaModel();
  EngineConfig vllm = VllmProfile(model, TestGpu());
  vllm.pool_bytes_override = 1 << 24;
  vllm.max_num_seqs_override = 8;
  EngineConfig jenga = JengaProfile(model, TestGpu());
  jenga.pool_bytes_override = 1 << 24;
  jenga.max_num_seqs_override = 8;
  Engine vllm_engine(std::move(vllm));
  Engine jenga_engine(std::move(jenga));
  const int64_t reservation = StaticMambaReservationBytes(model, 8);
  EXPECT_GT(reservation, 0);
  EXPECT_EQ(vllm_engine.reserved_bytes(),
            TestGpu().reserved_bytes + reservation);
  EXPECT_EQ(jenga_engine.reserved_bytes(), TestGpu().reserved_bytes);
  // The baseline's usable KV pool shrinks by exactly the reservation.
  EXPECT_EQ(vllm_engine.kv().GetMemoryStats().pool_bytes + reservation,
            jenga_engine.kv().GetMemoryStats().pool_bytes);
}

TEST(EngineProfiles, MambaModelServesUnderBothManagers) {
  for (const bool jenga : {true, false}) {
    EngineConfig config = jenga ? JengaProfile(TinyMambaModel(), TestGpu())
                                : VllmProfile(TinyMambaModel(), TestGpu());
    config.pool_bytes_override = 1 << 24;
    config.max_num_seqs_override = 8;
    Engine engine(std::move(config));
    for (int i = 0; i < 5; ++i) {
      engine.Submit(MakeRequest(i, TextPrompt(600 + i), 16, 0.0));
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 5) << (jenga ? "jenga" : "vllm");
    ExpectConsistent(engine.kv());
  }
}

TEST(EngineAdmission, HeadOfLineBlocksButDecodesContinue) {
  // A huge request at the head of the queue must not stall running decodes.
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  EngineConfig config = JengaProfile(model, TestGpu());
  config.pool_bytes_override = spec.LcmPageBytes() * 64;
  // Without caching a preempted request restarts from scratch, so the big request cannot
  // make incremental progress while request 0 runs — strict FCFS completion.
  config.enable_prefix_caching = false;
  Engine engine(std::move(config));
  engine.Submit(MakeRequest(0, TextPrompt(128), 40, 0.0));
  engine.Submit(MakeRequest(1, TextPrompt(16 * 60), 4, 0.0));  // Nearly the whole pool.
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 2);
  // FCFS order: request 0 finished first (request 1 waited for memory).
  EXPECT_EQ(engine.metrics().finished()[0].id, 0);
}

TEST(EngineAdmission, CachingSurvivesAcrossIdlePeriods) {
  EngineConfig config = JengaProfile(TinyFullModel(), TestGpu());
  config.pool_bytes_override = 1 << 24;
  Engine engine(std::move(config));
  engine.Submit(MakeRequest(0, TextPrompt(256), 4, 0.0));
  engine.RunToCompletion();
  // Long idle gap; cached content has no reason to vanish.
  engine.Submit(MakeRequest(1, TextPrompt(256), 4, 1e6));
  engine.RunToCompletion();
  EXPECT_EQ(engine.request(1).cached_prefix_tokens, 240);
}

TEST(EngineAdmission, MaxNumSeqsCapsBatch) {
  EngineConfig config = JengaProfile(TinyFullModel(), TestGpu());
  config.pool_bytes_override = 1 << 24;
  config.max_num_seqs_override = 3;
  Engine engine(std::move(config));
  for (int i = 0; i < 9; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(64), 24, 0.0));
  }
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 9);
  EXPECT_LE(engine.metrics().decode_batch_series().MaxValue(), 3.0);
}

}  // namespace
}  // namespace jenga

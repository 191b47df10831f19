// Differential tests for the admission fast path: an engine with memoized admission state
// (EngineConfig::memoize_admission, the default) must behave bit for bit like the
// rebuild-from-scratch reference across preempt→re-admit and swap-out→restore cycles, for
// every LayerPolicy family. The whole binary also arms JENGA_CHECK_ADMISSION, so every
// admission additionally cross-checks the fused O(blocks) hit scan against the
// materialized-bitmap reference inside KvManager.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

#include "src/engine/engine.h"
#include "src/engine/kv_manager.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

// Arm the fused-scan differential audit before any engine is constructed (the flag is
// read once and cached on first admission).
const bool kAuditArmed = []() {
  setenv("JENGA_CHECK_ADMISSION", "1", /*overwrite=*/1);
  return true;
}();

// Everything the scheduler's trajectory determines: if any admission decision, hit count, or
// modality rebuild diverged, some field here diverges too.
std::string Fingerprint(const Engine& engine) {
  const EngineMetrics& m = engine.metrics();
  std::ostringstream os;
  os.precision(17);
  os << "now=" << engine.now() << " steps=" << m.total_steps()
     << " sched=" << m.total_scheduled_tokens() << " done=" << m.CompletedRequests()
     << " failed=" << m.FailedRequests() << " hit=" << m.cache_hit_tokens
     << " prefill=" << m.prefill_tokens_computed << " recomputed=" << m.recomputed_tokens
     << " swap_out=" << SwapStats(engine).swap_out_events
     << " swap_in=" << SwapStats(engine).swap_in_events
     << " vision_runs=" << m.vision_encoder_runs << "\n";
  for (const RequestRecord& r : m.finished()) {
    os << "r" << r.id << " cached=" << r.cached_prefix_tokens << " pre=" << r.preemptions
       << " out=" << r.output_len << " fin=" << r.finish_time << "\n";
  }
  return os.str();
}

// Runs the same workload twice — memoized and rebuild-from-scratch — and requires identical
// trajectories. Returns the memoized engine's total preemptions so callers can assert the
// scenario actually exercised re-admission; `reused_tokens`, when given, receives the prompt
// tokens the memoized engine found in its shared-prefix table.
int ExpectMemoEquivalent(const EngineConfig& config, const std::function<void(Engine&)>& submit,
                         int64_t* reused_tokens = nullptr) {
  EngineConfig memo_config = config;
  memo_config.memoize_admission = true;
  Engine memoized(memo_config);
  submit(memoized);
  memoized.RunToCompletion();
  ExpectConsistent(memoized.kv());

  EngineConfig ref_config = config;
  ref_config.memoize_admission = false;
  Engine reference(ref_config);
  submit(reference);
  reference.RunToCompletion();
  ExpectConsistent(reference.kv());

  EXPECT_EQ(Fingerprint(memoized), Fingerprint(reference)) << "model " << config.model.name;
  // The reference hashes every prompt from scratch.
  EXPECT_EQ(reference.kv().shared_prefix_stats().reused_tokens, 0);
  if (reused_tokens != nullptr) {
    *reused_tokens = memoized.kv().shared_prefix_stats().reused_tokens;
  }
  int preemptions = 0;
  for (const RequestRecord& r : memoized.metrics().finished()) {
    preemptions += r.preemptions;
  }
  return preemptions;
}

// Pool sized in LCM pages so each model fits ~2 of the 4 requests: sustained preemption
// churn, the same pressure shape as the offload engine tests.
EngineConfig PressureConfig(const ModelConfig& model, int lcm_pages, bool offload,
                            bool swap_preemption) {
  EngineConfig config;
  config.model = model;
  config.gpu = TestGpu();
  config.jenga = true;
  config.vision_cache = true;
  const KvSpec spec = MakeJengaSpec(model, config.tokens_per_page, config.vision_cache);
  config.pool_bytes_override = spec.LcmPageBytes() * lcm_pages;
  if (offload) {
    config.offload.enabled = true;
    config.offload.swap_preemption = swap_preemption;
    config.offload.host_prefix_cache = true;
    config.offload.host_pool_bytes = 1ll << 30;
    config.offload.pcie.h2d_bandwidth = 1e15;
    config.offload.pcie.d2h_bandwidth = 1e15;
    config.offload.pcie.per_transfer_latency = 0.0;
  }
  return config;
}

// Shared prefixes across the batch so re-admissions see real cache hits (the memoized scan's
// interesting regime), staggered arrivals so admission order interleaves with preemption.
void SubmitTextBatch(Engine& engine, int64_t prompt_len, int64_t output_len) {
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(prompt_len), output_len, 0.001 * i));
  }
}

// `docs` shared documents of `doc_len` tokens; request i asks about document i % docs with its
// own `suffix_len`-token question.
Prompt SharedDocPrompt(int i, int docs, int64_t doc_len, int64_t suffix_len) {
  Prompt prompt;
  for (int64_t k = 0; k < doc_len; ++k) {
    prompt.tokens.push_back(1000000 + (i % docs) * 100000 + static_cast<int32_t>(k));
  }
  for (int64_t k = 0; k < suffix_len; ++k) {
    prompt.tokens.push_back(2000000 + i * 1000 + static_cast<int32_t>(k));
  }
  return prompt;
}

TEST(AdmissionMemo, SharedDocumentBatch) {
  // Questions over two shared documents: later prompts take the document's chains from the
  // shared-prefix table, the reference hashes each prompt from scratch, and the trajectories
  // (hits, preemptions, re-admissions) must match.
  for (const ModelConfig& model : {TinyFullModel(), TinyMambaModel()}) {
    const int64_t doc_len = model.HasKind(LayerKind::kMamba) ? 1100 : 200;
    int64_t reused_tokens = 0;
    const int preemptions = ExpectMemoEquivalent(
        PressureConfig(model, model.HasKind(LayerKind::kMamba) ? 40 : 48, /*offload=*/false,
                       /*swap_preemption=*/false),
        [&](Engine& e) {
          for (int i = 0; i < 12; ++i) {
            e.Submit(MakeRequest(i, SharedDocPrompt(i, 2, doc_len, 13 + i), 40, 0.002 * i));
          }
        },
        &reused_tokens);
    EXPECT_GT(preemptions, 0) << model.name;
    EXPECT_GE(reused_tokens, 8 * doc_len) << model.name;
  }
}

TEST(AdmissionMemo, SharedPrefixTableStaysBounded) {
  // 20k distinct prompts through one engine. The first 10k share no first block with any other
  // prompt, so the table holds their keys alone; in the next 10k every fifth prompt asks about
  // one of four documents, and only those prompts are ever stored.
  EngineConfig config;
  config.model = TinySlidingModel();
  config.gpu = TestGpu();
  config.jenga = true;
  const KvSpec spec = MakeJengaSpec(config.model, config.tokens_per_page, false);
  config.pool_bytes_override = spec.LcmPageBytes() * 256;
  Engine engine(config);
  constexpr int kWave = 400;
  constexpr int kPrompts = 20000;
  constexpr int kDocs = 4;
  constexpr int64_t kDocPromptLen = 64 + 8;
  for (int wave = 0; wave * kWave < kPrompts; ++wave) {
    for (int i = wave * kWave; i < (wave + 1) * kWave; ++i) {
      Prompt prompt;
      if (i >= kPrompts / 2 && i % 5 == 0) {
        prompt = SharedDocPrompt(i, kDocs, kDocPromptLen - 8, 8);
      } else {
        for (int32_t k = 0; k < 40; ++k) {
          prompt.tokens.push_back(50000000 + i * 100 + k);
        }
      }
      engine.Submit(MakeRequest(i, std::move(prompt), 2, engine.now()));
    }
    engine.RunToCompletion();
    const KvManager::SharedPrefixStats stats = engine.kv().shared_prefix_stats();
    ASSERT_LE(stats.entries, static_cast<int64_t>(KvManager::kSharedPrefixSlots));
    if ((wave + 1) * kWave <= kPrompts / 2) {
      ASSERT_EQ(stats.stored_tokens, 0) << "wave " << wave;
      ASSERT_EQ(stats.stored_hashes, 0) << "wave " << wave;
    } else {
      ASSERT_LE(stats.stored_tokens, kDocs * kDocPromptLen) << "wave " << wave;
      ASSERT_LE(stats.stored_hashes, kDocs * static_cast<int64_t>(spec.groups.size()) *
                                         (kDocPromptLen / config.tokens_per_page))
          << "wave " << wave;
    }
  }
  EXPECT_EQ(engine.metrics().CompletedRequests(), kPrompts);
  EXPECT_EQ(engine.kv().shared_prefix_stats().entries,
            static_cast<int64_t>(KvManager::kSharedPrefixSlots));
  EXPECT_GT(engine.kv().shared_prefix_stats().reused_tokens, 0);
}

TEST(AdmissionMemo, FullAttentionPreemptReAdmit) {
  const int preemptions = ExpectMemoEquivalent(
      PressureConfig(TinyFullModel(), 24, /*offload=*/false, /*swap_preemption=*/false),
      [](Engine& e) { SubmitTextBatch(e, 96, 80); });
  EXPECT_GT(preemptions, 0);
}

TEST(AdmissionMemo, SlidingWindowPreemptReAdmit) {
  const int preemptions = ExpectMemoEquivalent(
      PressureConfig(TinySlidingModel(), 24, /*offload=*/false, /*swap_preemption=*/false),
      [](Engine& e) { SubmitTextBatch(e, 96, 80); });
  EXPECT_GT(preemptions, 0);
}

TEST(AdmissionMemo, PyramidPreemptReAdmit) {
  const int preemptions = ExpectMemoEquivalent(
      PressureConfig(TinyPyramidModel(), 24, /*offload=*/false, /*swap_preemption=*/false),
      [](Engine& e) { SubmitTextBatch(e, 96, 80); });
  EXPECT_GT(preemptions, 0);
}

TEST(AdmissionMemo, MambaPreemptReAdmit) {
  // Prompts past one checkpoint interval (512) so the Mamba chain actually has entries.
  const int preemptions = ExpectMemoEquivalent(
      PressureConfig(TinyMambaModel(), 18, /*offload=*/false, /*swap_preemption=*/false),
      [](Engine& e) { SubmitTextBatch(e, 640, 200); });
  EXPECT_GT(preemptions, 0);
}

TEST(AdmissionMemo, VisionMixedModalityPreemptReAdmit) {
  // Image/text-scoped groups: the memoized modality prefix counts drive the stream rebuild.
  const int preemptions = ExpectMemoEquivalent(
      PressureConfig(TinyVisionModel(), 28, /*offload=*/false, /*swap_preemption=*/false),
      [](Engine& e) {
        for (int i = 0; i < 4; ++i) {
          e.Submit(MakeRequest(i, MixedPrompt(32, 3, 8, 40), 64, 0.001 * i));
        }
      });
  EXPECT_GT(preemptions, 0);
}

TEST(AdmissionMemo, SwapRestoreRoundTrip) {
  // Swap-out→restore replays computed tokens through OnStepComputed: the memoized stream
  // extension must reproduce the per-token rebuild exactly.
  for (const ModelConfig& model : {TinyFullModel(), TinySlidingModel()}) {
    EngineConfig config =
        PressureConfig(model, 24, /*offload=*/true, /*swap_preemption=*/true);
    Engine probe(config);
    SubmitTextBatch(probe, 96, 80);
    probe.RunToCompletion();
    ASSERT_GT(SwapStats(probe).swap_in_events, 0) << model.name;
    const int preemptions = ExpectMemoEquivalent(
        config, [](Engine& e) { SubmitTextBatch(e, 96, 80); });
    EXPECT_GT(preemptions, 0) << model.name;
  }
}

TEST(AdmissionMemo, VisionSwapRestoreRoundTrip) {
  const EngineConfig config =
      PressureConfig(TinyVisionModel(), 28, /*offload=*/true, /*swap_preemption=*/true);
  ExpectMemoEquivalent(config, [](Engine& e) {
    for (int i = 0; i < 4; ++i) {
      e.Submit(MakeRequest(i, MixedPrompt(32, 3, 8, 40), 64, 0.001 * i));
    }
  });
}

TEST(AdmissionMemo, HomogeneousBaselineEquivalent) {
  // jenga=false: full-prefix rules on the homogeneous spec; the memo must be inert here too.
  EngineConfig config =
      PressureConfig(TinyFullModel(), 24, /*offload=*/false, /*swap_preemption=*/false);
  config.jenga = false;
  const KvSpec spec = MakeHomogeneousSpec(TinyFullModel(), config.tokens_per_page);
  config.pool_bytes_override = spec.LcmPageBytes() * 24;
  ExpectMemoEquivalent(config, [](Engine& e) { SubmitTextBatch(e, 96, 80); });
}

TEST(AdmissionMemo, MemoSurvivesManyReAdmissions) {
  // Long outputs + tiny pool: each request cycles through admission repeatedly, so the memo
  // is reused with an ever-growing generated tail.
  ASSERT_TRUE(kAuditArmed);
  const int preemptions = ExpectMemoEquivalent(
      PressureConfig(TinyFullModel(), 16, /*offload=*/false, /*swap_preemption=*/false),
      [](Engine& e) { SubmitTextBatch(e, 48, 160); });
  EXPECT_GT(preemptions, 3);
}

}  // namespace
}  // namespace jenga

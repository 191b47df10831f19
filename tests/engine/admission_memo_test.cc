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
// scenario actually exercised re-admission.
int ExpectMemoEquivalent(const EngineConfig& config,
                         const std::function<void(Engine&)>& submit) {
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

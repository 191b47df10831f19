// Seeded multi-thread stress harness: N producer threads submit, cancel, and stream
// completions against a live engine under memory pressure (small pool → preemptions), while
// a step observer runs the AllocatorAuditor against every reachable allocator state. Also runs
// under the tsan preset via scripts/check.sh. Seed overridable with JENGA_STRESS_SEED.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/common/random.h"
#include "src/engine/frontend.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

uint64_t StressSeed() {
  const char* env = std::getenv("JENGA_STRESS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 42;
}

EngineConfig PressureConfig() {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  EngineConfig config;
  config.model = model;
  config.gpu = TestGpu();
  config.jenga = true;
  // Small pool: the producers' combined working set forces preemption/recompute churn.
  config.pool_bytes_override = spec.LcmPageBytes() * 24;
  return config;
}

void RunStress(int producers, int per_producer) {
  AllocatorAuditor auditor;
  std::atomic<int64_t> audits{0};
  ServingFrontend::Options options;
  options.queue_capacity = 64;
  options.step_observer = [&](Engine& engine) {
    // Every reachable state must satisfy the allocator invariants; audit a sample of steps
    // (every 64th) to keep the harness fast, plus implicitly the final state below.
    static thread_local int64_t step = 0;  // Engine thread only.
    if ((step++ & 63) != 0) {
      return;
    }
    auditor.AttachAllocator(&engine.kv().allocator_mutable());
    const auto violations = auditor.Audit();
    auditor.DetachAll();
    ASSERT_TRUE(violations.empty()) << violations.front();
    audits.fetch_add(1, std::memory_order_relaxed);
  };
  ServingFrontend frontend(PressureConfig(), options);
  frontend.Start();

  const uint64_t seed = StressSeed();
  std::atomic<int64_t> terminal{0};
  frontend.RunClients(producers, [&](int client) {
    Rng rng(seed + static_cast<uint64_t>(client) * 7919);
    std::vector<StreamHandle> streams;
    std::vector<RequestId> ids;
    for (int i = 0; i < per_producer; ++i) {
      const RequestId id = frontend.NextRequestId();
      Request r = MakeRequest(id, TextPrompt(static_cast<int>(rng.UniformInt(16, 128)),
                                             100 + client * 1000 + i),
                              rng.UniformInt(4, 32), 0.0);
      if (rng.Bernoulli(0.1)) {
        r.deadline = rng.UniformDouble() * 0.5;  // Some expire mid-flight.
      }
      StreamHandle stream = frontend.SubmitAsync(std::move(r));
      if (stream->phase.load() == StreamPhase::kRejected) {
        continue;  // Only possible during shutdown; not in this harness.
      }
      streams.push_back(stream);
      ids.push_back(id);
      if (rng.Bernoulli(0.25)) {
        // Cancel a random in-flight request — possibly the one just submitted, which the
        // engine may not have drained yet (cancel-while-queued).
        frontend.CancelAsync(ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
      }
      if (rng.Bernoulli(0.5)) {
        // Closed-loop flavor: wait this one out before submitting more.
        while (!stream->Done()) {
          std::this_thread::yield();
        }
      }
    }
    for (const StreamHandle& stream : streams) {
      while (!stream->Done()) {
        std::this_thread::yield();
      }
      terminal.fetch_add(1, std::memory_order_relaxed);
    }
  });
  frontend.Shutdown();

  // Every accepted stream reached a terminal state and the books balance.
  const auto c = frontend.counters();
  EXPECT_EQ(terminal.load(), c.submitted);
  EXPECT_EQ(c.rejected, 0);
  EXPECT_EQ(c.submitted, c.admitted + c.cancelled_queued);
  EXPECT_EQ(c.admitted, c.finished + c.cancelled + c.failed);
  EXPECT_GT(c.finished, 0);
  EXPECT_GT(audits.load(), 0);

  // Final quiescent state: auditor green, allocator self-consistent, pool fully reclaimed
  // modulo the prefix cache (cached pages are legal residue).
  auditor.AttachAllocator(&frontend.engine().kv().allocator_mutable());
  const auto violations = auditor.Audit();
  EXPECT_TRUE(violations.empty()) << violations.front();
  auditor.DetachAll();
}

TEST(FrontendStressTest, EightProducers) {
  RunStress(/*producers=*/8, /*per_producer=*/24);
}

TEST(FrontendStressTest, TwoProducersSecondSeed) {
  const char* env = std::getenv("JENGA_STRESS_SEED");
  if (env == nullptr) {
    setenv("JENGA_STRESS_SEED", "1337", /*overwrite=*/0);
  }
  RunStress(/*producers=*/2, /*per_producer=*/16);
  if (env == nullptr) {
    unsetenv("JENGA_STRESS_SEED");
  }
}

}  // namespace
}  // namespace jenga

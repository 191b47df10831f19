// Fleet stress harness: N producer threads submit shared-article requests through the
// concurrent FleetFrontend while every replica runs a per-step AllocatorAuditor hook under
// memory pressure (small pools → preemption churn, occupancy spillover). Runs under the tsan
// preset via scripts/check.sh — the cluster prefix index is written by every engine thread
// (residency sinks) and read by every producer thread (routing), which is exactly the race
// surface this test exists to exercise. Seed overridable with JENGA_STRESS_SEED.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/cluster/fleet_frontend.h"
#include "src/common/random.h"
#include "src/model/kv_spec.h"
#include "tests/cluster/fleet_test_util.h"
#include "tests/common/test_env.h"

namespace jenga {
namespace {

uint64_t StressSeed() { return TestEnvUint("JENGA_STRESS_SEED").value_or(42); }

FleetConfig PressureFleetConfig(int num_replicas, RoutePolicy policy) {
  FleetConfig config = TestFleetConfig(num_replicas, policy, StressSeed());
  const KvSpec spec = MakeJengaSpec(config.engine.model, 16, false);
  // Small per-replica pools: the producers' combined working set forces preemption and
  // occupancy-based spillover, not just queue-depth spillover.
  config.engine.pool_bytes_override = spec.LcmPageBytes() * 24;
  config.spill_queue_depth = 4;
  config.spill_occupancy = 0.90;
  return config;
}

void RunFleetStress(int num_replicas, RoutePolicy policy, int producers, int per_producer) {
  std::atomic<int64_t> audits{0};
  ServingFrontend::Options options;
  options.queue_capacity = 64;
  options.step_observer = [&audits](Engine& engine) {
    // Each replica's engine thread audits its own allocator every 64th step; thread_local
    // keeps the counters independent per engine thread.
    static thread_local int64_t step = 0;
    if ((step++ & 63) != 0) {
      return;
    }
    static thread_local AllocatorAuditor auditor;
    auditor.AttachAllocator(&engine.kv().allocator_mutable());
    const auto violations = auditor.Audit();
    auditor.DetachAll();
    ASSERT_TRUE(violations.empty()) << violations.front();
    audits.fetch_add(1, std::memory_order_relaxed);
  };
  FleetFrontend fleet(PressureFleetConfig(num_replicas, policy), options);
  fleet.Start();

  const uint64_t seed = StressSeed();
  std::atomic<int64_t> terminal{0};
  std::atomic<int64_t> refused{0};
  RunClients(producers, [&](int client) {
    Rng rng(seed + static_cast<uint64_t>(client) * 7919);
    std::vector<StreamHandle> streams;
    std::vector<RequestId> ids;
    for (int i = 0; i < per_producer; ++i) {
      const RequestId id = fleet.NextRequestId();
      // Few articles, many producers: concentrated prefixes make replicas disagree hard on
      // affinity while pressure forces spill decisions.
      const int article = static_cast<int>(rng.UniformInt(0, 3));
      Request r = MakeRequest(id, ArticlePrompt(article, rng.UniformInt(48, 128), i),
                              rng.UniformInt(4, 24), 0.0);
      StreamHandle stream;
      if (rng.Bernoulli(0.25)) {
        if (!fleet.TrySubmitAsync(std::move(r), &stream).ok()) {
          refused.fetch_add(1, std::memory_order_relaxed);
          continue;  // Backpressure: drop this one, keep producing.
        }
      } else {
        stream = fleet.SubmitAsync(std::move(r));
      }
      if (stream->phase.load() == StreamPhase::kRejected) {
        continue;  // Only possible during shutdown; not in this harness.
      }
      streams.push_back(stream);
      ids.push_back(id);
      if (rng.Bernoulli(0.2)) {
        fleet.CancelAsync(ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
      }
      if (rng.Bernoulli(0.4)) {
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
  fleet.Shutdown();

  // Books balance fleet-wide: every routed request was accepted by exactly one replica
  // frontend and reached a terminal state.
  const FleetCounters fc = fleet.counters();
  const ServingFrontend::Counters c = fleet.frontend_counters();
  EXPECT_EQ(fc.submitted, c.submitted);
  EXPECT_EQ(fc.submitted + refused.load(),
            static_cast<int64_t>(producers) * per_producer);
  EXPECT_EQ(fc.backpressure_rejections, refused.load());
  EXPECT_EQ(terminal.load(), c.submitted);
  EXPECT_EQ(c.rejected, 0);
  EXPECT_EQ(c.submitted, c.admitted + c.cancelled_queued);
  EXPECT_EQ(c.admitted, c.finished + c.cancelled + c.failed);
  EXPECT_GT(c.finished, 0);
  EXPECT_GT(audits.load(), 0);
  if (policy == RoutePolicy::kRoundRobin) {
    EXPECT_EQ(fc.routed_round_robin, fc.submitted);
  } else {
    EXPECT_EQ(fc.routed_affinity + fc.routed_spill + fc.routed_least_loaded, fc.submitted);
  }

  // Final quiescent state: every replica's allocator is green.
  AllocatorAuditor auditor;
  for (int i = 0; i < fleet.num_replicas(); ++i) {
    auditor.AttachAllocator(&fleet.replica(i).engine().kv().allocator_mutable());
  }
  const auto violations = auditor.Audit();
  EXPECT_TRUE(violations.empty()) << violations.front();
  auditor.DetachAll();
}

TEST(FleetStressTest, TwoReplicasAffinityEightProducers) {
  RunFleetStress(/*num_replicas=*/2, RoutePolicy::kPrefixAffinity, /*producers=*/8,
                 /*per_producer=*/16);
}

TEST(FleetStressTest, FourReplicasAffinitySixProducers) {
  RunFleetStress(/*num_replicas=*/4, RoutePolicy::kPrefixAffinity, /*producers=*/6,
                 /*per_producer=*/12);
}

TEST(FleetStressTest, TwoReplicasRoundRobin) {
  RunFleetStress(/*num_replicas=*/2, RoutePolicy::kRoundRobin, /*producers=*/4,
                 /*per_producer=*/12);
}

}  // namespace
}  // namespace jenga

// Fleet-level elasticity (ISSUE 9 satellites): FleetConfig::replica_pool_bytes builds
// heterogeneous fleets (per-replica KV pool sizes), and a draining replica — one mid
// elastic repartition (Engine::elastic_draining) — counts as saturated so new work spills
// around it until the drain completes.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/cluster/fleet_frontend.h"
#include "src/cluster/fleet_router.h"
#include "tests/cluster/fleet_test_util.h"

namespace jenga {
namespace {

// TinyFullModel at 16 tokens/page on the test GPU: one KV page is 16 KiB.
constexpr int64_t kPageBytes = 16384;

FleetConfig HeterogeneousConfig(int num_replicas) {
  FleetConfig config = TestFleetConfig(num_replicas, RoutePolicy::kPrefixAffinity);
  config.engine.pool_bytes_override = 64 * kPageBytes;
  return config;
}

TEST(FleetElastic, ReplicaPoolBytesBuildsAHeterogeneousFleet) {
  FleetConfig config = HeterogeneousConfig(3);
  // Entry 0 keeps the shared engine config's pool; 1 and 2 get their own sizes.
  config.replica_pool_bytes = {0, 32 * kPageBytes, 128 * kPageBytes};
  FleetRouter router(std::move(config));

  EXPECT_EQ(router.replica(0).PoolPages(), 64);
  EXPECT_EQ(router.replica(1).PoolPages(), 32);
  EXPECT_EQ(router.replica(2).PoolPages(), 128);

  // The lopsided fleet still serves: every submitted request finishes somewhere.
  for (int i = 0; i < 6; ++i) {
    router.Submit(MakeRequest(i, ArticlePrompt(i % 3, 80, i), /*output_len=*/8, 0.0));
  }
  router.RunToCompletion();
  int64_t finished = 0;
  for (int i = 0; i < router.num_replicas(); ++i) {
    finished += static_cast<int64_t>(router.replica(i).metrics().finished().size());
  }
  EXPECT_EQ(finished, 6);
}

TEST(FleetElastic, EmptyReplicaPoolBytesKeepsTheFleetHomogeneous) {
  FleetRouter router(HeterogeneousConfig(2));
  EXPECT_EQ(router.replica(0).PoolPages(), 64);
  EXPECT_EQ(router.replica(1).PoolPages(), 64);
}

TEST(FleetElastic, DecideRouteCountsDrainingAsSaturated) {
  // Replica 0 holds the whole resident prefix but is draining: affinity must spill to the
  // healthy replica instead.
  std::array<ReplicaLoadView, 2> loads = {};
  loads[0].draining = true;
  const std::array<int64_t, 2> affinity = {4, 0};
  RouteDecision decision =
      DecideRoute(RoutePolicy::kPrefixAffinity, /*spill_queue_depth=*/8,
                  /*spill_occupancy=*/0.95, loads, affinity, /*round_robin_slot=*/0);
  EXPECT_EQ(decision.replica, 1);
  EXPECT_EQ(decision.reason, RouteDecision::Reason::kSpill);
  EXPECT_EQ(decision.affinity_blocks, 4);
  EXPECT_FALSE(decision.all_saturated);

  // Both draining: backpressure surfaces, but a target is still named (Submit never drops).
  loads[1].draining = true;
  decision = DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_TRUE(decision.all_saturated);
}

TEST(FleetElastic, RouterSpillsAroundADrainingReplicaThenReturnsAfterTheDrain) {
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kPrefixAffinity);
  FleetRouter router(std::move(config));
  ASSERT_TRUE(router.core().routing_enabled());

  // Warm article 0 onto replica 0 (empty fleet: least-loaded ties break to index 0).
  RouteDecision warm =
      router.Submit(MakeRequest(1, ArticlePrompt(0, 80, /*question=*/0), 4, 0.0));
  ASSERT_EQ(warm.replica, 0);
  router.RunToCompletion();

  // Mid-repartition: replica 0 drains. A follow-up question about the same article must
  // spill to replica 1 even though all its resident blocks live on replica 0.
  router.replica(0).set_elastic_draining(true);
  const RouteDecision spilled =
      router.Submit(MakeRequest(2, ArticlePrompt(0, 80, /*question=*/1), 4, 0.0));
  EXPECT_EQ(spilled.replica, 1);
  EXPECT_EQ(spilled.reason, RouteDecision::Reason::kSpill);
  EXPECT_GT(spilled.affinity_blocks, 0);  // The affine score still pointed at replica 0.
  router.RunToCompletion();

  // Drain over: affinity routing snaps back to the warmed replica.
  router.replica(0).set_elastic_draining(false);
  const RouteDecision back =
      router.Submit(MakeRequest(3, ArticlePrompt(0, 80, /*question=*/2), 4, 0.0));
  EXPECT_EQ(back.replica, 0);
  EXPECT_EQ(back.reason, RouteDecision::Reason::kAffinity);
  router.RunToCompletion();
  EXPECT_EQ(router.counters().routed_spill, 1);
}

TEST(FleetElastic, FrontendAppliesPerReplicaPoolSizesAndServes) {
  FleetConfig config = HeterogeneousConfig(2);
  config.replica_pool_bytes = {32 * kPageBytes, 128 * kPageBytes};
  FleetFrontend fleet(std::move(config));
  fleet.Start();
  EXPECT_EQ(fleet.replica(0).engine().PoolPages(), 32);
  EXPECT_EQ(fleet.replica(1).engine().PoolPages(), 128);

  std::vector<StreamHandle> streams;
  for (int i = 0; i < 8; ++i) {
    streams.push_back(fleet.SubmitAsync(MakeRequest(
        fleet.NextRequestId(), ArticlePrompt(i % 2, 64, i), /*output_len=*/4, 0.0)));
  }
  fleet.Shutdown();
  for (const StreamHandle& stream : streams) {
    EXPECT_EQ(stream->phase.load(), StreamPhase::kFinished);
  }
}

}  // namespace
}  // namespace jenga

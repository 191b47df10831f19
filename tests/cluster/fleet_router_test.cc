#include "src/cluster/fleet_router.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/common/random.h"
#include "src/core/block_hash.h"
#include "src/workload/datasets.h"
#include "tests/cluster/fleet_test_util.h"

namespace jenga {
namespace {

// --- DecideRoute: the pure policy core ---

std::vector<ReplicaLoadView> IdleLoads(int n) {
  return std::vector<ReplicaLoadView>(static_cast<size_t>(n));
}

TEST(DecideRouteTest, RoundRobinRotatesFromSlot) {
  const auto loads = IdleLoads(3);
  for (int64_t slot = 0; slot < 6; ++slot) {
    const RouteDecision d = DecideRoute(RoutePolicy::kRoundRobin, 8, 0.95, loads, {}, slot);
    EXPECT_EQ(d.replica, static_cast<int>(slot % 3));
    EXPECT_EQ(d.reason, RouteDecision::Reason::kRoundRobin);
  }
}

TEST(DecideRouteTest, AffinityPicksLongestResidentPrefix) {
  const auto loads = IdleLoads(3);
  const std::vector<int64_t> affinity = {2, 5, 3};
  const RouteDecision d =
      DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.reason, RouteDecision::Reason::kAffinity);
  EXPECT_EQ(d.affinity_blocks, 5);
  EXPECT_FALSE(d.all_saturated);
}

TEST(DecideRouteTest, AffinityTieBreaksToLowestIndex) {
  const auto loads = IdleLoads(3);
  const std::vector<int64_t> affinity = {0, 4, 4};
  const RouteDecision d =
      DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.reason, RouteDecision::Reason::kAffinity);
}

TEST(DecideRouteTest, NoResidencyFallsBackToLeastLoaded) {
  auto loads = IdleLoads(3);
  loads[0].running = 4;
  loads[1].running = 1;
  loads[2].running = 2;
  const std::vector<int64_t> affinity = {0, 0, 0};
  const RouteDecision d =
      DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.reason, RouteDecision::Reason::kLeastLoaded);
  EXPECT_EQ(d.affinity_blocks, 0);
}

TEST(DecideRouteTest, SpillsWhenAffineReplicaQueueIsDeep) {
  auto loads = IdleLoads(2);
  loads[0].waiting = 8;  // == spill_queue_depth → saturated.
  const std::vector<int64_t> affinity = {6, 0};
  const RouteDecision d =
      DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.reason, RouteDecision::Reason::kSpill);
  EXPECT_EQ(d.affinity_blocks, 6);
}

TEST(DecideRouteTest, SpillsWhenAffineReplicaOccupancyIsHigh) {
  auto loads = IdleLoads(2);
  loads[0].occupancy = 0.97;
  const std::vector<int64_t> affinity = {6, 0};
  const RouteDecision d =
      DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.reason, RouteDecision::Reason::kSpill);
}

TEST(DecideRouteTest, AllSaturatedStillPlacesAtLeastLoaded) {
  auto loads = IdleLoads(2);
  loads[0].waiting = 10;
  loads[0].running = 3;
  loads[1].waiting = 9;
  loads[1].running = 2;
  const std::vector<int64_t> affinity = {6, 0};
  const RouteDecision d =
      DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_TRUE(d.all_saturated);
  EXPECT_EQ(d.replica, 1);  // 11 total vs 13.
  EXPECT_EQ(d.reason, RouteDecision::Reason::kSpill);
}

TEST(DecideRouteTest, Names) {
  EXPECT_STREQ(RoutePolicyName(RoutePolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(RoutePolicyName(RoutePolicy::kPrefixAffinity), "prefix-affinity");
  EXPECT_STREQ(RouteReasonName(RouteDecision::Reason::kAffinity), "affinity");
  EXPECT_STREQ(RouteReasonName(RouteDecision::Reason::kSpill), "spill");
}

// --- FleetRouter integration ---

TEST(FleetRouterTest, RoutingGroupFromSpec) {
  FleetRouter fleet(TestFleetConfig(2, RoutePolicy::kPrefixAffinity));
  EXPECT_TRUE(fleet.core().routing_enabled());
  EXPECT_EQ(fleet.core().routing_group(), 0);
  EXPECT_EQ(fleet.core().prefix_index().num_replicas(), 2);

  FleetConfig no_cache = TestFleetConfig(2, RoutePolicy::kPrefixAffinity);
  no_cache.engine.enable_prefix_caching = false;
  FleetRouter cold(no_cache);
  EXPECT_FALSE(cold.core().routing_enabled());
  EXPECT_TRUE(cold.core().RoutingChain(ArticlePrompt(0, 64)).empty());
}

TEST(FleetRouterTest, SecondRequestFollowsWarmPrefix) {
  FleetRouter fleet(TestFleetConfig(2, RoutePolicy::kPrefixAffinity));

  // Warm some replica with article 7; all replicas idle, so it lands by least-loaded.
  const RouteDecision warm =
      fleet.Submit(MakeRequest(1, ArticlePrompt(7, 64, /*question=*/0), 4, 0.0));
  EXPECT_EQ(warm.reason, RouteDecision::Reason::kLeastLoaded);
  fleet.RunToCompletion();

  // A different question about the same article must follow the resident prefix.
  const RouteDecision follow =
      fleet.Submit(MakeRequest(2, ArticlePrompt(7, 96, /*question=*/1), 4, 0.0));
  EXPECT_EQ(follow.replica, warm.replica);
  EXPECT_EQ(follow.reason, RouteDecision::Reason::kAffinity);
  EXPECT_EQ(follow.affinity_blocks, 64 / 16);
  fleet.RunToCompletion();

  EXPECT_EQ(fleet.counters().submitted, 2);
  EXPECT_EQ(fleet.counters().routed_affinity, 1);
  EXPECT_EQ(fleet.counters().routed_least_loaded, 1);
  EXPECT_EQ(fleet.PlacementOf(2), warm.replica);
  EXPECT_EQ(fleet.PlacementOf(999), -1);
}

TEST(FleetRouterTest, MergedPassRoutesLikeTheReplicaHashes) {
  // TinySlidingModel's full-attention and sliding-window groups share one two-lane hash pass,
  // and from a document's third sighting on a replica takes that pass's chains from its
  // shared-prefix table. The router hashes the routing group alone, from scratch; its chain
  // must match what the replica registered either way.
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kPrefixAffinity);
  config.engine.model = TinySlidingModel();
  FleetRouter fleet(config);
  ASSERT_EQ(fleet.core().routing_group(), 0);
  const std::vector<PromptHasher::HashPass>& passes = fleet.replica(0).kv().hasher().passes();
  ASSERT_EQ(passes.size(), 1u);
  ASSERT_EQ(passes[0].groups.size(), 2u);

  constexpr int64_t kArticle = 128;
  const auto question = [&](int q) { return ArticlePrompt(7, kArticle + 40, q, kArticle); };
  const RouteDecision warm = fleet.Submit(MakeRequest(1, question(0), 4, 0.0));
  fleet.RunToCompletion();
  for (int q = 1; q <= 2; ++q) {
    SCOPED_TRACE(q);
    const PromptHasher& replica_hasher = fleet.replica(warm.replica).kv().hasher();
    const int64_t reused = replica_hasher.shared_prefix_stats().reused_tokens;
    const Prompt prompt = question(q);
    EXPECT_EQ(fleet.core().RoutingChain(prompt), ChainBlockHashes(prompt.tokens, 16,
                                                                  GroupChainSalt(0)));
    const RouteDecision follow = fleet.Submit(MakeRequest(1 + q, prompt, 4, 0.0));
    EXPECT_EQ(follow.replica, warm.replica);
    EXPECT_EQ(follow.reason, RouteDecision::Reason::kAffinity);
    EXPECT_EQ(follow.affinity_blocks, kArticle / 16);
    fleet.RunToCompletion();
    // The second sighting stores the document; the third reuses it from the table.
    EXPECT_EQ(replica_hasher.shared_prefix_stats().reused_tokens - reused, q == 1 ? 0 : kArticle);
  }
}

TEST(FleetRouterTest, SpilloverWhenAffineReplicaSaturated) {
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kPrefixAffinity);
  config.spill_queue_depth = 1;
  FleetRouter fleet(config);

  const RouteDecision warm = fleet.Submit(MakeRequest(1, ArticlePrompt(3, 64, 0), 4, 0.0));
  fleet.RunToCompletion();

  // Queue a request on the affine replica without stepping: its waiting depth hits the
  // spill threshold, so the next same-article request must spill to the other replica.
  const RouteDecision first = fleet.Submit(MakeRequest(2, ArticlePrompt(3, 96, 1), 4, 10.0));
  EXPECT_EQ(first.replica, warm.replica);
  EXPECT_EQ(first.reason, RouteDecision::Reason::kAffinity);

  const RouteDecision spilled = fleet.Submit(MakeRequest(3, ArticlePrompt(3, 96, 2), 4, 10.0));
  EXPECT_NE(spilled.replica, warm.replica);
  EXPECT_EQ(spilled.reason, RouteDecision::Reason::kSpill);
  EXPECT_GT(spilled.affinity_blocks, 0);
  EXPECT_EQ(fleet.counters().routed_spill, 1);
  fleet.RunToCompletion();
}

TEST(FleetRouterTest, BackpressureWhenEveryReplicaSaturated) {
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kPrefixAffinity);
  config.spill_queue_depth = 1;
  FleetRouter fleet(config);

  // Fill both waiting queues without stepping.
  EXPECT_TRUE(fleet.TrySubmit(MakeRequest(1, ArticlePrompt(0, 64), 4, 0.0)).ok());
  EXPECT_TRUE(fleet.TrySubmit(MakeRequest(2, ArticlePrompt(1, 64), 4, 0.0)).ok());
  EXPECT_TRUE(fleet.IsSaturated(0));
  EXPECT_TRUE(fleet.IsSaturated(1));

  const StatusOr<int> refused = fleet.TrySubmit(MakeRequest(3, ArticlePrompt(2, 64), 4, 0.0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fleet.counters().backpressure_rejections, 1);
  EXPECT_EQ(fleet.counters().submitted, 2);  // The refusal had no side effects.
  EXPECT_EQ(fleet.PlacementOf(3), -1);

  // Submit still places (and flags the pressure), draining restores TrySubmit.
  const RouteDecision forced = fleet.Submit(MakeRequest(3, ArticlePrompt(2, 64), 4, 0.0));
  EXPECT_TRUE(forced.all_saturated);
  EXPECT_EQ(fleet.counters().saturated_submits, 1);
  fleet.RunToCompletion();
  EXPECT_TRUE(fleet.TrySubmit(MakeRequest(4, ArticlePrompt(3, 64), 4, 100.0)).ok());
  fleet.RunToCompletion();
}

TEST(FleetRouterTest, TrySubmitRefusesWhenOnlyAStalledReplicaIsUnsaturated) {
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kPrefixAffinity);
  config.spill_queue_depth = 1;
  FleetRouter fleet(config);
  fleet.StallReplica(0, 8);

  // Replica 0 is stalled, hence unroutable: the first request lands on replica 1 and fills
  // its waiting queue. Replica 0 stays unsaturated but cannot take work.
  EXPECT_EQ(fleet.Submit(MakeRequest(1, ArticlePrompt(0, 64), 4, 0.0)).replica, 1);
  EXPECT_FALSE(fleet.IsSaturated(0));
  EXPECT_TRUE(fleet.IsSaturated(1));

  // TrySubmit decides from the same routing decision it would place with, so it refuses
  // instead of placing on the saturated replica.
  const StatusOr<int> refused = fleet.TrySubmit(MakeRequest(2, ArticlePrompt(1, 64), 4, 0.0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fleet.PlacementOf(2), -1);
  const FleetCounters c = fleet.counters();
  EXPECT_EQ(c.backpressure_rejections, 1);
  EXPECT_EQ(c.saturated_submits, 0);
  EXPECT_EQ(c.submitted, 1);
  fleet.RunToCompletion();
}

TEST(FleetRouterTest, RoundRobinSeedSetsStartSlot) {
  FleetRouter fleet(TestFleetConfig(4, RoutePolicy::kRoundRobin, /*seed=*/6));
  std::vector<int> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(fleet.Submit(MakeRequest(i + 1, ArticlePrompt(i, 32), 2, 0.0)).replica);
  }
  EXPECT_EQ(picks, (std::vector<int>{2, 3, 0, 1, 2, 3}));
  EXPECT_EQ(fleet.counters().routed_round_robin, 6);
  fleet.RunToCompletion();
}

TEST(FleetRouterTest, CancelRoutesToPlacedReplica) {
  FleetRouter fleet(TestFleetConfig(2, RoutePolicy::kRoundRobin));
  fleet.Submit(MakeRequest(1, ArticlePrompt(0, 64), 32, 0.0));
  fleet.Submit(MakeRequest(2, ArticlePrompt(1, 64), 32, 0.0));
  EXPECT_TRUE(fleet.CancelRequest(2));
  EXPECT_FALSE(fleet.CancelRequest(99));
  EXPECT_EQ(fleet.counters().cancelled, 1);
  fleet.RunToCompletion();
  EXPECT_EQ(ClusterMetrics::FromRouter(fleet).completed, 1);
}

// Replay contract: identical config + seed + submit sequence ⇒ identical placements,
// counters, and per-replica end state.
TEST(FleetRouterTest, SeededReplayIsDeterministic) {
  auto run = [](uint64_t seed) {
    FleetRouter fleet(TestFleetConfig(4, RoutePolicy::kPrefixAffinity, seed));
    ArxivQaDataset dataset(/*num_articles=*/6, 200, 400, /*seed=*/11);
    Rng rng(17);
    std::vector<Request> trace = GeneratePoisson(dataset, 40, /*rate=*/50.0, rng, 1);
    fleet.RunTimedTrace(std::move(trace));
    std::ostringstream os;
    for (RequestId id = 1; id <= 40; ++id) {
      os << id << ":" << fleet.PlacementOf(id) << " ";
    }
    const FleetCounters& c = fleet.counters();
    os << "| " << c.submitted << " " << c.routed_affinity << " " << c.routed_spill << " "
       << c.routed_least_loaded << " " << c.saturated_submits;
    for (int i = 0; i < fleet.num_replicas(); ++i) {
      os << "\n--- replica " << i << " ---\n";
      fleet.replica(i).DumpStateForDebug(os);
    }
    return os.str();
  };
  const std::string a = run(3);
  const std::string b = run(3);
  EXPECT_EQ(a, b);
}

// --- Failure injection & recovery (DESIGN.md §10) ---

TEST(DecideRouteTest, RoundRobinRotatesOverLiveReplicasOnly) {
  auto loads = IdleLoads(3);
  loads[1].alive = false;
  for (int64_t slot = 0; slot < 6; ++slot) {
    const RouteDecision d = DecideRoute(RoutePolicy::kRoundRobin, 8, 0.95, loads, {}, slot);
    EXPECT_NE(d.replica, 1) << "routed to a dead replica at slot " << slot;
  }
}

TEST(DecideRouteTest, AffinityIgnoresDeadReplicaResidency) {
  auto loads = IdleLoads(3);
  loads[1].alive = false;  // The replica with the best prefix is dead.
  const std::vector<int64_t> affinity = {2, 5, 3};
  const RouteDecision d =
      DecideRoute(RoutePolicy::kPrefixAffinity, 8, 0.95, loads, affinity, 0);
  EXPECT_EQ(d.replica, 2);
  EXPECT_EQ(d.reason, RouteDecision::Reason::kAffinity);
  EXPECT_EQ(d.affinity_blocks, 3);
}

TEST(FleetRouterTest, KillReplicaRevivesWorkOnSurvivor) {
  FleetRouter fleet(TestFleetConfig(2, RoutePolicy::kRoundRobin));
  for (int i = 0; i < 6; ++i) {
    fleet.Submit(MakeRequest(i + 1, ArticlePrompt(i % 2, 64), 8, 0.0));
  }
  for (int i = 0; i < 2; ++i) {
    fleet.StepOnce();  // Let replica 0 start work before it dies.
  }
  EXPECT_TRUE(fleet.ReplicaAlive(0));
  fleet.KillReplica(0);
  EXPECT_FALSE(fleet.ReplicaAlive(0));
  EXPECT_EQ(fleet.core().num_alive(), 1);
  fleet.RunToCompletion();

  const FleetCounters& c = fleet.counters();
  EXPECT_EQ(c.replica_deaths, 1);
  EXPECT_GT(c.death_cancels, 0);
  EXPECT_EQ(c.death_cancels, c.rerouted);
  // Re-routes never double-count as submits.
  EXPECT_EQ(c.submitted, 6);
  // Every request completed, and everything now lives on the survivor.
  const FleetStats stats = ClusterMetrics::FromRouter(fleet);
  EXPECT_EQ(stats.completed, 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(fleet.PlacementOf(i + 1), 1);
  }
}

TEST(FleetRouterTest, NewSubmitsNeverRouteToDeadReplica) {
  FleetRouter fleet(TestFleetConfig(3, RoutePolicy::kPrefixAffinity));
  // Warm replica routing so article 0's prefix is resident somewhere, then kill wherever
  // it landed: affinity must not follow the stale placement.
  const int warm = fleet.Submit(MakeRequest(1, ArticlePrompt(0, 96), 4, 0.0)).replica;
  fleet.RunToCompletion();
  fleet.KillReplica(warm);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(fleet.Submit(MakeRequest(10 + i, ArticlePrompt(0, 96), 4, 0.0)).replica, warm);
  }
  fleet.RunToCompletion();
}

TEST(FleetRouterTest, StalledReplicaFreezesThenResumes) {
  FleetRouter fleet(TestFleetConfig(2, RoutePolicy::kRoundRobin));
  for (int i = 0; i < 4; ++i) {
    fleet.Submit(MakeRequest(i + 1, ArticlePrompt(i % 2, 48), 6, 0.0));
  }
  fleet.StallReplica(0, /*steps=*/16);
  EXPECT_EQ(fleet.counters().replica_stalls, 1);
  // A stall is transient: the fleet still quiesces with everything completed, nothing
  // re-routed, and the stalled replica keeps its placements.
  fleet.RunToCompletion();
  EXPECT_EQ(fleet.counters().rerouted, 0);
  EXPECT_EQ(ClusterMetrics::FromRouter(fleet).completed, 4);
  EXPECT_TRUE(fleet.ReplicaAlive(0));
}

TEST(FleetRouterTest, ArmedFleetPlanKillsViaInjector) {
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kRoundRobin);
  JENGA_CHECK(FaultPlan::Parse("replica_death:at=0", &config.fleet_fault.plan).ok());
  config.fleet_fault.seed = 5;
  FleetRouter fleet(config);
  for (int i = 0; i < 4; ++i) {
    fleet.Submit(MakeRequest(i + 1, ArticlePrompt(i, 48), 4, 0.0));
  }
  fleet.RunToCompletion();
  // The first consult (replica 0, first step) fired and killed it.
  EXPECT_EQ(fleet.counters().replica_deaths, 1);
  EXPECT_FALSE(fleet.ReplicaAlive(0));
  EXPECT_GE(fleet.FleetFaultFires(), 1);
  EXPECT_EQ(ClusterMetrics::FromRouter(fleet).completed, 4);
}

TEST(FleetRouterTest, DeathFireOnLastReplicaIsSuppressed) {
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kRoundRobin);
  // Every consult wants a death; only one replica may actually die.
  JENGA_CHECK(FaultPlan::Parse("replica_death:p=1", &config.fleet_fault.plan).ok());
  config.fleet_fault.seed = 5;
  FleetRouter fleet(config);
  for (int i = 0; i < 4; ++i) {
    fleet.Submit(MakeRequest(i + 1, ArticlePrompt(i, 48), 4, 0.0));
  }
  fleet.RunToCompletion();
  const FleetCounters& c = fleet.counters();
  EXPECT_EQ(c.replica_deaths, 1);
  EXPECT_GT(c.death_fires_ignored, 0);
  EXPECT_EQ(fleet.core().num_alive(), 1);
  EXPECT_EQ(ClusterMetrics::FromRouter(fleet).completed, 4);
}

}  // namespace
}  // namespace jenga

// The fleet core: everything the deterministic FleetRouter and the threaded FleetFrontend
// share, written once so the two drivers cannot drift (DESIGN.md §10). It owns
//   - the per-replica engine configurations (FleetConfig::replica_pool_bytes applied),
//   - the routing group, the ClusterPrefixIndex with one feed per replica allocator,
//     replica liveness and stalls, and the seeded round-robin cursor,
//   - one load view per replica and one routing decision (affinity chain + DecideRoute); the
//     chain comes from a const PromptHasher built like every replica's, so it equals the
//     chain the replica registers, and no routing thread reaches a shared-prefix table,
//   - one decision and recovery ledger (FleetCounters) and the request placement map.
// A driver adds only how it runs the engines: FleetRouter steps them in index order from
// one thread; FleetFrontend gives each its own engine thread behind a ServingFrontend.
//
// Failure model: a replica death loses the replica's KV pool and in-flight scheduler state
// but not the fleet's record of its requests. The driver cancels the dead replica's work
// through CancelRequest (full reclamation, so the dead engine still audits clean) and
// re-submits each request to a survivor, recomputing from the prompt (ReviveForReroute).
// A stall keeps the replica's state but makes it unroutable and unstepped until it expires.
//
// Threading: liveness, the ledger, the load views and the cursor are atomics and the
// placement map is guarded, so client threads may route, count and place concurrently
// while engine threads publish loads. The single-threaded driver pays uncontended costs.

#ifndef JENGA_SRC_CLUSTER_FLEET_CORE_H_
#define JENGA_SRC_CLUSTER_FLEET_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cluster/prefix_index.h"
#include "src/engine/engine.h"
#include "src/engine/prompt_hasher.h"
#include "src/engine/request.h"
#include "src/fault/fault_injector.h"

namespace jenga {

enum class RoutePolicy {
  kRoundRobin,      // Ignore caches and load: replica = slot % N (the baseline).
  kPrefixAffinity,  // Longest resident prefix wins; least-loaded fallback; load spillover.
};

[[nodiscard]] const char* RoutePolicyName(RoutePolicy policy);

struct FleetConfig {
  int num_replicas = 1;
  // Per-replica engine configuration (every replica gets a copy — homogeneous fleet).
  EngineConfig engine;
  // Optional per-replica KV pool sizes (bytes), for heterogeneous fleets — e.g. replicas
  // that ceded memory to a co-tenant or run a shrunken pool after an elastic resize. Empty =
  // every replica uses `engine`'s pool; otherwise the size must equal num_replicas and entry
  // i overrides replica i's pool_bytes_override (0 keeps `engine`'s setting for that one).
  std::vector<int64_t> replica_pool_bytes;
  RoutePolicy policy = RoutePolicy::kPrefixAffinity;
  // A replica is saturated when its waiting queue is at least this deep...
  int spill_queue_depth = 8;
  // ...or its pool occupancy (used bytes / pool bytes) is at or above this watermark.
  double spill_occupancy = 0.95;
  // Replay seed: fixes the round-robin start slot.
  uint64_t seed = 0;
  // Fleet-scoped fault world (replica_death / replica_stall sites). Consulted once per live
  // replica per fleet step, in replica-index order, so a (plan, seed) pair replays the same
  // kill/stall sequence byte-identically. Engine-scoped sites in the plan are ignored here.
  // Empty plan (the default) constructs no injector: the fault-free path is byte-identical
  // to a build without the subsystem. FleetRouter only.
  FaultConfig fleet_fault;
  // How many fleet steps a replica_stall freezes the replica for.
  int64_t stall_steps = 16;
};

struct RouteDecision {
  int replica = 0;
  enum class Reason : uint8_t {
    kAffinity,     // Longest resident prefix, replica not saturated.
    kSpill,        // Affine replica saturated; redirected by load.
    kLeastLoaded,  // No resident prefix anywhere; pure load balancing.
    kRoundRobin,   // kRoundRobin policy.
  } reason = Reason::kRoundRobin;
  // Resident prefix blocks on the *affine* (best-scoring) replica at decision time.
  int64_t affinity_blocks = 0;
  // Every replica was saturated when the decision was made (backpressure signal).
  bool all_saturated = false;
};

[[nodiscard]] const char* RouteReasonName(RouteDecision::Reason reason);

// One replica's load as the routing decision sees it.
struct ReplicaLoadView {
  int64_t waiting = 0;
  int64_t running = 0;
  double occupancy = 0.0;  // used bytes / pool bytes.
  // Dead or stalled replicas are unroutable: DecideRoute skips them in every scan (affinity,
  // least-loaded, round-robin rotation, saturation). At least one replica must be alive.
  bool alive = true;
  // Mid-repartition/drain (Engine::elastic_draining): still serving its queue but counted as
  // saturated, so new work spills to healthy replicas until the drain completes.
  bool draining = false;
};

// The KV group whose hash chain routing scores against: prefer a full-attention all-token
// group (its prefix-cache residency is the longest-lived), else any all-token attention-like
// group; -1 when the spec has none (affinity scoring disabled, pure load balancing).
[[nodiscard]] int PickRoutingGroup(const KvSpec& spec);

// Pure, deterministic routing decision over a snapshot of per-replica state.
// `affinity_blocks` holds the per-replica resident-prefix scores (may be empty for
// kRoundRobin); `round_robin_slot` selects the kRoundRobin target. Ties break to the lowest
// replica index everywhere.
[[nodiscard]] RouteDecision DecideRoute(RoutePolicy policy, int spill_queue_depth,
                                        double spill_occupancy,
                                        std::span<const ReplicaLoadView> loads,
                                        std::span<const int64_t> affinity_blocks,
                                        int64_t round_robin_slot);

struct FleetCounters {
  int64_t submitted = 0;
  int64_t routed_affinity = 0;
  int64_t routed_spill = 0;
  int64_t routed_least_loaded = 0;
  int64_t routed_round_robin = 0;
  // Submits placed while every replica was saturated (Submit never refuses; this is the
  // pressure signal a caller that used Submit instead of TrySubmit would have seen).
  int64_t saturated_submits = 0;
  // TrySubmit refusals (all replicas saturated).
  int64_t backpressure_rejections = 0;
  // Client cancels that took effect: the engine cancelled the request, or (FleetFrontend)
  // the cancel annihilated its still-queued submit. A late cancel of a finished id is not one.
  int64_t cancelled = 0;

  // Recovery ledger. Re-routed submissions deliberately do NOT bump `submitted` or the
  // routed_* reason tallies — those count client intent — so the conservation identity is
  //   Σ replica finished records == submitted + rerouted,   with death_cancels == rerouted
  // in the deterministic driver (every harvested request is re-submitted exactly once).
  int64_t replica_deaths = 0;       // Replicas killed (scheduled or injector-fired).
  int64_t replica_stalls = 0;       // Stalls applied.
  int64_t death_cancels = 0;        // Requests cancelled off a dead replica at harvest.
  int64_t rerouted = 0;             // Harvested requests re-submitted to a survivor.
  int64_t death_fires_ignored = 0;  // replica_death fires suppressed (last live replica).
  // Threaded driver (FleetFrontend) only; always 0 in the deterministic FleetRouter.
  int64_t rejected_submits = 0;     // Post-Shutdown submit refusals (both entry points).
  int64_t lost_on_shutdown = 0;     // Harvested work that could not be re-placed (kFailed).
};

class FleetCore {
 public:
  // Builds replica i's engine through `make_engine(i, engine_config)`, which must return an
  // engine that outlives the core and that no thread steps yet. Then picks the routing group
  // from replica 0's spec and attaches one index feed to every replica's allocator.
  FleetCore(FleetConfig config, const std::function<Engine&(int, EngineConfig)>& make_engine);

  FleetCore(const FleetCore&) = delete;
  FleetCore& operator=(const FleetCore&) = delete;

  // --- Routing ---

  // Publishes `engine`'s queue depths, occupancy and drain flag as replica `replica`'s load
  // view. FleetRouter publishes every replica right before each decision (exact snapshots);
  // FleetFrontend's engine threads publish after every step (snapshots lag by up to a step).
  void PublishLoad(int replica, const Engine& engine);
  // The load view `engine` would publish (alive = true).
  [[nodiscard]] static ReplicaLoadView LoadOf(const Engine& engine);
  [[nodiscard]] bool Saturated(const ReplicaLoadView& load) const;

  // Routes `request` over the published loads. Dead replicas and replicas stalled at fleet
  // step `step` are unroutable, unless every live replica is stalled: then liveness alone
  // decides (a stalled replica queues the request and serves it when the stall expires).
  // Claims a round-robin slot under kRoundRobin.
  [[nodiscard]] RouteDecision Decide(const Request& request, int64_t step = 0);

  // The routing-group hash chain for `prompt` (empty when routing is disabled).
  [[nodiscard]] std::vector<BlockHash> RoutingChain(const Prompt& prompt) const;

  // --- Ledger and placement ---

  // Books a client submit placed by `decision`: submitted, its reason tally, and
  // saturated_submits when every replica was saturated.
  void CountSubmit(const RouteDecision& decision);
  // Adds one to a ledger field.
  void Count(int64_t FleetCounters::*field);
  // Snapshot of the ledger (exact once no thread is counting).
  [[nodiscard]] FleetCounters counters() const;

  void Place(RequestId id, int replica);
  void Unplace(RequestId id);
  // Replica a request was last placed on; -1 for unknown ids.
  [[nodiscard]] int PlacementOf(RequestId id) const;

  // --- Liveness ---

  // alive() acquires, so a thread that observes a dead replica's closed queue also observes
  // the death that closed it.
  [[nodiscard]] bool alive(int replica) const {
    return alive_[static_cast<size_t>(replica)].load(std::memory_order_acquire);
  }
  [[nodiscard]] int num_alive() const;
  // Marks `replica` dead (unroutable from now on, for good) and books the death.
  void MarkDead(int replica);
  // Stalls (FleetRouter only): the replica is unroutable and unstepped while step < until.
  void MarkStalled(int replica, int64_t until_step) {
    stall_until_[static_cast<size_t>(replica)] = until_step;
  }
  [[nodiscard]] bool stalled(int replica, int64_t step) const {
    return step < stall_until_[static_cast<size_t>(replica)];
  }
  // Detaches a dead replica's index feed and drops its summary, so it stops attracting
  // affinity. Call once nothing steps its engine any more.
  void RetireFromIndex(int replica);

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] int num_replicas() const { return config_.num_replicas; }
  [[nodiscard]] const ClusterPrefixIndex& prefix_index() const { return *index_; }
  [[nodiscard]] bool routing_enabled() const { return routing_group_ >= 0; }
  [[nodiscard]] int routing_group() const { return routing_group_; }

 private:
  struct LoadCell {
    std::atomic<int64_t> waiting{0};
    std::atomic<int64_t> running{0};
    std::atomic<double> occupancy{0.0};
    std::atomic<bool> draining{false};
  };

  const FleetConfig config_;
  std::vector<Engine*> engines_;
  std::vector<std::atomic<bool>> alive_;
  std::vector<int64_t> stall_until_;
  std::vector<LoadCell> loads_;
  std::unique_ptr<ClusterPrefixIndex> index_;
  int routing_group_ = -1;
  // Built from replica 0's spec, since a repartition replaces a replica's KvManager.
  std::unique_ptr<const PromptHasher> hasher_;
  std::atomic<int64_t> rr_cursor_{0};
  // Every field is read and written only through std::atomic_ref (relaxed).
  mutable FleetCounters ledger_;
  // Forever-growing like the engines' own request maps (same asymptotics).
  mutable std::mutex placement_mu_;
  std::unordered_map<RequestId, int> placement_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_FLEET_CORE_H_

// Fleet serving: one FleetRouter owns N Engine replicas (each with its own config, KV
// manager, and allocator stack — one simulated GPU per replica) and dispatches requests by
// prefix affinity. A cluster-level prefix index (per-replica block-hash summaries fed by the
// allocators' index-membership events) scores each replica by longest resident prefix of
// the prompt's routing-group hash chain; load-aware spillover redirects to the least-loaded
// replica when the affine replica is saturated (waiting-queue depth or pool-occupancy
// watermark), and per-replica admission backpressure surfaces through TrySubmit.
//
// Determinism contract (DESIGN.md §10): this class is the seeded single-threaded reference.
// Replicas are stepped in index order, scoring ties break to the lowest replica index, and
// the only seed-dependent state is the round-robin start slot — a fleet run is replayable
// from (config, seed, submit/step sequence). The concurrent counterpart (FleetFrontend)
// reuses DecideRoute over racy load snapshots and is deliberately NOT deterministic.

#ifndef JENGA_SRC_CLUSTER_FLEET_ROUTER_H_
#define JENGA_SRC_CLUSTER_FLEET_ROUTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cluster/prefix_index.h"
#include "src/cluster/replica_supervisor.h"
#include "src/common/status.h"
#include "src/engine/engine.h"
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
  // to a build without the subsystem.
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

// Pure, deterministic routing decision over a snapshot of per-replica state: the policy
// core shared by FleetRouter (exact snapshots) and FleetFrontend (racy snapshots).
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

class FleetRouter {
 public:
  explicit FleetRouter(FleetConfig config);

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Scores the request and picks a replica without submitting. Advances the round-robin
  // cursor under the kRoundRobin policy (so alternating Route/Submit calls still rotate).
  [[nodiscard]] RouteDecision Route(const Request& request);

  // Routes and submits; returns the decision. Always places the request (spillover picks the
  // least-loaded replica when everything is saturated).
  RouteDecision Submit(Request request);

  // Backpressure-aware variant: kResourceExhausted — and no side effects — when every
  // replica is saturated; otherwise routes like Submit and returns the chosen replica.
  [[nodiscard]] StatusOr<int> TrySubmit(Request request);

  // Steps every replica once, in replica-index order; false when no replica has work left.
  bool StepOnce();

  // Runs until every submitted request finished (`max_steps` fleet steps as a runaway guard).
  void RunToCompletion(int64_t max_steps = 2000000);

  // Replays a timed trace: requests are submitted in arrival order once the fleet clock (max
  // replica time) reaches each arrival, so every routing decision sees the cache and load
  // state of that moment — not the initial empty fleet. Steps to completion.
  void RunTimedTrace(std::vector<Request> requests, int64_t max_steps = 2000000);

  // Cancels a request wherever it was routed; false for unknown ids.
  bool CancelRequest(RequestId id);

  // Kills a live replica: marks it unroutable, detaches its index feed, purges its
  // cluster-index summary, cancels its active work with full reclamation (the dead engine
  // still audits clean), and re-submits every harvested request to a surviving replica
  // (recompute-from-prompt). CHECK-fails on a dead replica or when it is the last one live.
  void KillReplica(int replica);

  // Freezes a live replica for `steps` fleet steps: unroutable and not stepped until the
  // stall expires. Its queued/running work simply waits out the stall.
  void StallReplica(int replica, int64_t steps);

  [[nodiscard]] bool ReplicaAlive(int replica) const { return supervisor_.alive(replica); }
  [[nodiscard]] const ReplicaSupervisor& supervisor() const { return supervisor_; }
  // Total fleet-site fault fires; 0 when no fleet fault plan is armed.
  [[nodiscard]] int64_t FleetFaultFires() const {
    return fleet_fault_ == nullptr ? 0 : fleet_fault_->total_fires();
  }
  [[nodiscard]] int64_t fleet_steps() const { return fleet_steps_; }

  // A replica is saturated when its waiting depth or occupancy crosses the spill thresholds.
  [[nodiscard]] bool IsSaturated(int replica) const;
  [[nodiscard]] ReplicaLoadView LoadOf(int replica) const;

  // The routing-group hash chain for `prompt` (empty when routing is disabled: prefix
  // caching off or no all-token attention-like group in the spec).
  [[nodiscard]] std::vector<BlockHash> RoutingChain(const Prompt& prompt) const;

  // Simulated cluster wall-clock: max over replica clocks.
  [[nodiscard]] double ClusterClock() const;

  [[nodiscard]] int num_replicas() const { return static_cast<int>(replicas_.size()); }
  [[nodiscard]] Engine& replica(int i) { return *replicas_[static_cast<size_t>(i)]; }
  [[nodiscard]] const Engine& replica(int i) const { return *replicas_[static_cast<size_t>(i)]; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] const FleetCounters& counters() const { return counters_; }
  [[nodiscard]] const ClusterPrefixIndex& prefix_index() const { return *index_; }
  [[nodiscard]] bool routing_enabled() const { return routing_group_ >= 0; }
  [[nodiscard]] int routing_group() const { return routing_group_; }
  // Replica a live-or-finished request was routed to; -1 for unknown ids.
  [[nodiscard]] int PlacementOf(RequestId id) const;

 private:
  void CountDecision(const RouteDecision& decision);
  // Routes and submits a revived request, booking it as a re-route (not a client submit).
  void ResubmitRevived(Request request);
  // Consults the fleet fault sites for this step (replica-index order) and applies fires.
  void ConsultFleetFaults();

  FleetConfig config_;
  std::vector<std::unique_ptr<Engine>> replicas_;
  std::unique_ptr<ClusterPrefixIndex> index_;
  ReplicaSupervisor supervisor_;
  std::unique_ptr<FaultInjector> fleet_fault_;
  int routing_group_ = -1;
  int routing_block_size_ = 0;
  uint64_t routing_salt_ = 0;
  int64_t rr_cursor_ = 0;
  int64_t fleet_steps_ = 0;
  std::unordered_map<RequestId, int> placement_;
  FleetCounters counters_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_FLEET_ROUTER_H_

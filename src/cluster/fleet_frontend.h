// Concurrent fleet serving: N ServingFrontends (one engine thread per replica) behind the
// same prefix-affinity routing policy as FleetRouter. Client threads call SubmitAsync from
// anywhere; the routing decision runs on the submitting thread against (a) the shared
// ClusterPrefixIndex, fed by each replica's engine thread through the allocator's index
// events, and (b) lock-free per-replica load snapshots that each engine thread publishes
// after every step.
//
// Unlike FleetRouter — the seeded single-threaded determinism reference — this path is
// deliberately NOT deterministic: load snapshots lag by up to a step and concurrent submits
// race for the same affine replica. Routing is advisory (see prefix_index.h), so the races
// affect locality, never correctness. Per-replica admission backpressure surfaces through
// TrySubmitAsync, which refuses (no side effects) while every replica is saturated.
//
// Failure injection (DESIGN.md §10): KillReplica models an asynchronously detected replica
// death. The dead replica is marked unroutable, its engine thread is hard-stopped and
// joined, its index summary purged, and its abandoned work harvested and re-submitted to
// survivors — adopting the clients' original streams, so every stream still reaches a
// terminal phase. Submits racing the death retry transparently (their replica's queue
// closes, they re-route); a cancel racing the kill window may be dropped, in which case the
// request simply completes on the survivor — acceptable asynchronous cancel semantics.

#ifndef JENGA_SRC_CLUSTER_FLEET_FRONTEND_H_
#define JENGA_SRC_CLUSTER_FLEET_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/cluster/fleet_router.h"
#include "src/cluster/prefix_index.h"
#include "src/cluster/replica_supervisor.h"
#include "src/common/status.h"
#include "src/engine/frontend.h"

namespace jenga {

class FleetFrontend {
 public:
  // `options` applies to every replica frontend. A caller-supplied step_observer is chained
  // after the frontend's own load publication (the stress tests' auditor hook).
  explicit FleetFrontend(FleetConfig config, ServingFrontend::Options options = {});
  ~FleetFrontend();

  FleetFrontend(const FleetFrontend&) = delete;
  FleetFrontend& operator=(const FleetFrontend&) = delete;

  // --- Client API (any thread) ---

  // Routes and submits; blocks while the chosen replica's queue is full, and re-routes if
  // the replica dies mid-submit. After Shutdown() the stream comes back kRejected without
  // touching any replica queue. Request ids must be fleet-unique (NextRequestId()).
  StreamHandle SubmitAsync(Request request);
  // Backpressure-aware variant. kFailedPrecondition — cleanly, without racing the drained
  // queues — after Shutdown(); kResourceExhausted when every replica is saturated per the
  // spill thresholds or the chosen replica's queue is full. No side effects on failure.
  // On success *out holds the stream.
  [[nodiscard]] Status TrySubmitAsync(Request request, StreamHandle* out);
  // Cancels wherever the request was routed; unknown ids are a no-op.
  void CancelAsync(RequestId id);
  [[nodiscard]] RequestId NextRequestId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Lifecycle ---

  void Start();
  // Shuts every replica frontend down (drain + join); idempotent, also run by the destructor.
  // Waits for an in-flight KillReplica to finish re-routing first.
  void Shutdown();
  // Spawns `n` client threads running `fn(client_index)` and joins them all.
  void RunClients(int n, const std::function<void(int)>& fn);

  // --- Failure injection (any thread; kills serialize) ---

  // Kills a live replica: marks it unroutable, hard-stops and joins its engine thread,
  // detaches its index feed, purges its index summary, and re-submits every harvested
  // request to a surviving replica — the clients' streams move with the work. Returns false
  // without side effects when the replica is already dead, it is the last one alive, or the
  // fleet is shut down. Must not race ~FleetFrontend.
  bool KillReplica(int replica);
  [[nodiscard]] bool ReplicaAlive(int i) const { return supervisor_.alive(i); }
  [[nodiscard]] const ReplicaSupervisor& supervisor() const { return supervisor_; }

  // --- Introspection ---

  [[nodiscard]] int num_replicas() const { return static_cast<int>(fronts_.size()); }
  [[nodiscard]] ServingFrontend& replica(int i) { return *fronts_[static_cast<size_t>(i)]; }
  [[nodiscard]] const ClusterPrefixIndex& prefix_index() const { return *index_; }
  [[nodiscard]] bool routing_enabled() const { return routing_group_ >= 0; }
  // Routing counters snapshot (atomics; exact after Shutdown).
  [[nodiscard]] FleetCounters counters() const;
  // Sum of the replica frontends' own counters (exact after Shutdown).
  [[nodiscard]] ServingFrontend::Counters frontend_counters() const;
  // Replica the request was routed to; -1 for unknown ids.
  [[nodiscard]] int PlacementOf(RequestId id) const;

 private:
  struct ReplicaLoad {
    std::atomic<int64_t> waiting{0};
    std::atomic<int64_t> running{0};
    std::atomic<double> occupancy{0.0};
    std::atomic<bool> draining{false};
  };

  [[nodiscard]] RouteDecision Decide(const Request& request);
  void CountDecision(const RouteDecision& decision);

  FleetConfig config_;
  ReplicaSupervisor supervisor_;
  std::unique_ptr<ClusterPrefixIndex> index_;
  int routing_group_ = -1;
  int routing_block_size_ = 0;
  uint64_t routing_salt_ = 0;
  std::vector<std::unique_ptr<ReplicaLoad>> loads_;
  std::vector<std::unique_ptr<ServingFrontend>> fronts_;

  std::atomic<RequestId> next_id_{1};
  std::atomic<int64_t> rr_cursor_{0};
  std::atomic<bool> shut_down_{false};
  // Serializes KillReplica calls against each other and against Shutdown, so a kill's
  // harvest-and-re-route always completes against open survivor queues.
  std::mutex kill_mu_;

  // Forever-growing like the engines' own request maps (same asymptotics); guarded because
  // submit and cancel race across client threads.
  mutable std::mutex placement_mu_;
  std::unordered_map<RequestId, int> placement_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> routed_affinity_{0};
  std::atomic<int64_t> routed_spill_{0};
  std::atomic<int64_t> routed_least_loaded_{0};
  std::atomic<int64_t> routed_round_robin_{0};
  std::atomic<int64_t> saturated_submits_{0};
  std::atomic<int64_t> backpressure_rejections_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> rejected_submits_{0};
  std::atomic<int64_t> replicas_killed_{0};
  std::atomic<int64_t> death_cancels_{0};
  std::atomic<int64_t> rerouted_{0};
  std::atomic<int64_t> lost_on_shutdown_{0};
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_FLEET_FRONTEND_H_

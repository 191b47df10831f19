// Concurrent fleet serving: N ServingFrontends (one engine thread per replica) behind the
// FleetCore that FleetRouter uses too, so routing, the ledger and placement are the same
// code in both drivers. Client threads call SubmitAsync from anywhere; the routing decision
// runs on the submitting thread against (a) the shared ClusterPrefixIndex, fed by each
// replica's engine thread through the allocator's index events, and (b) the core's
// per-replica load views, which each engine thread publishes after every step. This class
// adds only the threads, the client streams and kill serialisation.
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
#include <memory>
#include <mutex>
#include <vector>

#include "src/cluster/fleet_core.h"
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
  // Cancels wherever the request was routed; unknown ids are a no-op, and so is a cancel
  // that arrives after the request finished (counters().cancelled counts neither).
  void CancelAsync(RequestId id);
  [[nodiscard]] RequestId NextRequestId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Lifecycle ---

  void Start();
  // Shuts every replica frontend down (drain + join); idempotent, also run by the destructor.
  // Waits for an in-flight KillReplica to finish re-routing first.
  void Shutdown();

  // --- Failure injection (any thread; kills serialize) ---

  // Kills a live replica: marks it unroutable, hard-stops and joins its engine thread,
  // detaches its index feed, purges its index summary, and re-submits every harvested
  // request to a surviving replica — the clients' streams move with the work. Returns false
  // without side effects when the replica is already dead, it is the last one alive, or the
  // fleet is shut down. Must not race ~FleetFrontend.
  bool KillReplica(int replica);
  [[nodiscard]] bool ReplicaAlive(int i) const { return core_.alive(i); }

  // --- Introspection ---

  [[nodiscard]] int num_replicas() const { return static_cast<int>(fronts_.size()); }
  [[nodiscard]] ServingFrontend& replica(int i) { return *fronts_[static_cast<size_t>(i)]; }
  [[nodiscard]] const FleetCore& core() const { return core_; }
  // Routing and recovery ledger snapshot (exact after Shutdown). `cancelled` sums the
  // replicas' client_cancels: cancels that annihilated a queued submit or that the engine
  // performed.
  [[nodiscard]] FleetCounters counters() const;
  // Sum of the replica frontends' own counters (exact after Shutdown).
  [[nodiscard]] ServingFrontend::Counters frontend_counters() const;
  // Replica the request was routed to; -1 for unknown ids.
  [[nodiscard]] int PlacementOf(RequestId id) const { return core_.PlacementOf(id); }

 private:
  // The one client submit path: routes `request` and enqueues it on the chosen replica with
  // `stream`, re-routing while the chosen replica's queue turns out closed (it died).
  // kFailedPrecondition after Shutdown(). Unless `wait_if_full`, kResourceExhausted when
  // the decision finds every replica saturated or the chosen queue is full. A refusal
  // leaves no placement behind and books its ledger field.
  [[nodiscard]] Status Enqueue(Request& request, const StreamHandle& stream, bool wait_if_full);

  // Filled before core_ finishes constructing (its engine factory builds them); each
  // replica's step observer publishes its load into core_.
  std::vector<std::unique_ptr<ServingFrontend>> fronts_;
  FleetCore core_;

  std::atomic<RequestId> next_id_{1};
  std::atomic<bool> shut_down_{false};
  // Serializes KillReplica calls against each other and against Shutdown, so a kill's
  // harvest-and-re-route always completes against open survivor queues.
  std::mutex kill_mu_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_FLEET_FRONTEND_H_

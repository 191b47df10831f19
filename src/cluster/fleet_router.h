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
// from (config, seed, submit/step sequence). Routing, the ledger and placement live in the
// FleetCore it shares with the concurrent counterpart (FleetFrontend), which decides over
// racy load snapshots and is deliberately NOT deterministic. This class adds in-order
// stepping, stalls, the fleet fault consults and timed traces.

#ifndef JENGA_SRC_CLUSTER_FLEET_ROUTER_H_
#define JENGA_SRC_CLUSTER_FLEET_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/fleet_core.h"
#include "src/common/status.h"
#include "src/engine/engine.h"
#include "src/engine/request.h"
#include "src/fault/fault_injector.h"

namespace jenga {

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

  // Backpressure-aware variant: routes like Submit, but when the decision finds every
  // routable replica saturated it returns kResourceExhausted and places nothing (the
  // refusal is booked in backpressure_rejections; under kRoundRobin it still uses up its
  // round-robin slot, as Route does). Otherwise returns the chosen replica.
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

  [[nodiscard]] bool ReplicaAlive(int replica) const { return core_.alive(replica); }
  // Total fleet-site fault fires; 0 when no fleet fault plan is armed.
  [[nodiscard]] int64_t FleetFaultFires() const {
    return fleet_fault_ == nullptr ? 0 : fleet_fault_->total_fires();
  }
  [[nodiscard]] int64_t fleet_steps() const { return fleet_steps_; }

  // A replica is saturated when its waiting depth or occupancy crosses the spill thresholds.
  [[nodiscard]] bool IsSaturated(int i) const {
    return core_.Saturated(FleetCore::LoadOf(replica(i)));
  }

  // Simulated cluster wall-clock: max over replica clocks.
  [[nodiscard]] double ClusterClock() const;

  [[nodiscard]] int num_replicas() const { return static_cast<int>(replicas_.size()); }
  [[nodiscard]] Engine& replica(int i) { return *replicas_[static_cast<size_t>(i)]; }
  [[nodiscard]] const Engine& replica(int i) const { return *replicas_[static_cast<size_t>(i)]; }
  [[nodiscard]] const FleetCore& core() const { return core_; }
  [[nodiscard]] const FleetConfig& config() const { return core_.config(); }
  [[nodiscard]] FleetCounters counters() const { return core_.counters(); }
  // Replica a live-or-finished request was routed to; -1 for unknown ids.
  [[nodiscard]] int PlacementOf(RequestId id) const { return core_.PlacementOf(id); }

 private:
  // Records the placement and hands the request to the replica's engine.
  void Place(int replica, Request request);
  // Consults the fleet fault sites for this step (replica-index order) and applies fires.
  void ConsultFleetFaults();

  // Filled before core_ finishes constructing (its engine factory builds them).
  std::vector<std::unique_ptr<Engine>> replicas_;
  FleetCore core_;
  std::unique_ptr<FaultInjector> fleet_fault_;
  int64_t fleet_steps_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_FLEET_ROUTER_H_

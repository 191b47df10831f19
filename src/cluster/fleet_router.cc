#include "src/cluster/fleet_router.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace jenga {

FleetRouter::FleetRouter(FleetConfig config)
    : core_(std::move(config), [this](int, EngineConfig engine) -> Engine& {
        replicas_.push_back(std::make_unique<Engine>(std::move(engine)));
        return *replicas_.back();
      }) {
  JENGA_CHECK_GT(core_.config().stall_steps, 0);
  if (core_.config().fleet_fault.enabled()) {
    fleet_fault_ = std::make_unique<FaultInjector>(core_.config().fleet_fault);
  }
}

RouteDecision FleetRouter::Route(const Request& request) {
  // Exact snapshots: every replica publishes its load of this moment, then the core decides.
  for (int i = 0; i < num_replicas(); ++i) {
    core_.PublishLoad(i, replica(i));
  }
  return core_.Decide(request, fleet_steps_);
}

RouteDecision FleetRouter::Submit(Request request) {
  const RouteDecision decision = Route(request);
  core_.CountSubmit(decision);
  Place(decision.replica, std::move(request));
  return decision;
}

StatusOr<int> FleetRouter::TrySubmit(Request request) {
  const RouteDecision decision = Route(request);
  if (decision.all_saturated) {
    core_.Count(&FleetCounters::backpressure_rejections);
    return Status::ResourceExhausted("all " + std::to_string(num_replicas()) +
                                     " replicas saturated");
  }
  core_.CountSubmit(decision);
  Place(decision.replica, std::move(request));
  return decision.replica;
}

void FleetRouter::Place(int replica, Request request) {
  core_.Place(request.id, replica);
  replicas_[static_cast<size_t>(replica)]->Submit(std::move(request));
}

void FleetRouter::KillReplica(int replica) {
  JENGA_CHECK(core_.alive(replica)) << "replica " << replica << " is already dead";
  JENGA_CHECK_GT(core_.num_alive(), 1) << "cannot kill the last live replica";
  core_.MarkDead(replica);
  // Stop feeding the cluster index, then drop the dead replica's summary: it must stop
  // attracting affinity immediately, and the cancels below must not churn the index.
  core_.RetireFromIndex(replica);
  // Harvest in scheduler order (running queue first, then waiting): cancel off the dead
  // engine with full reclamation — the dead allocator still audits clean — and re-submit
  // each request to a survivor, recomputing from the prompt. A re-route is booked as such,
  // not as a client submit: `submitted` and the routed_* tallies count client intent only,
  // keeping the conservation ledger Σ finished records == submitted + rerouted.
  Engine& dead = *replicas_[static_cast<size_t>(replica)];
  for (const RequestId id : dead.ActiveRequests()) {
    Request revived = ReviveForReroute(dead.request(id));
    JENGA_CHECK(dead.CancelRequest(id));
    core_.Count(&FleetCounters::death_cancels);
    const RouteDecision decision = Route(revived);
    core_.Count(&FleetCounters::rerouted);
    Place(decision.replica, std::move(revived));
  }
}

void FleetRouter::StallReplica(int replica, int64_t steps) {
  JENGA_CHECK(core_.alive(replica)) << "cannot stall dead replica " << replica;
  JENGA_CHECK_GT(steps, 0);
  core_.Count(&FleetCounters::replica_stalls);
  core_.MarkStalled(replica, fleet_steps_ + steps);
}

void FleetRouter::ConsultFleetFaults() {
  // One consult pass per fleet step, replica-index order: a (plan, seed) pair fully
  // determines which step kills or stalls which replica. A death fire on the last live
  // replica is suppressed (counted, not applied); a stalled replica skips its stall consult
  // so repeated fires don't stack.
  for (int i = 0; i < num_replicas(); ++i) {
    if (!core_.alive(i)) {
      continue;
    }
    if (fleet_fault_->Fire(FaultSite::kReplicaDeath)) {
      if (core_.num_alive() > 1) {
        KillReplica(i);
        continue;
      }
      core_.Count(&FleetCounters::death_fires_ignored);
    }
    if (!core_.stalled(i, fleet_steps_) && fleet_fault_->Fire(FaultSite::kReplicaStall)) {
      StallReplica(i, config().stall_steps);
    }
  }
}

bool FleetRouter::StepOnce() {
  if (fleet_fault_ != nullptr) {
    ConsultFleetFaults();
  }
  bool any = false;
  for (int i = 0; i < num_replicas(); ++i) {
    if (!core_.alive(i)) {
      continue;
    }
    Engine& engine = *replicas_[static_cast<size_t>(i)];
    if (core_.stalled(i, fleet_steps_)) {
      // Frozen, not dead: its pending work counts as fleet work so run loops wait the
      // stall out instead of declaring the fleet idle.
      any = any || engine.num_waiting() + engine.num_running() > 0;
      continue;
    }
    any = engine.StepOnce() || any;
  }
  fleet_steps_ += 1;
  return any;
}

void FleetRouter::RunToCompletion(int64_t max_steps) {
  for (int64_t step = 0; step < max_steps; ++step) {
    if (!StepOnce()) {
      return;
    }
  }
  JENGA_CHECK(false) << "FleetRouter::RunToCompletion did not converge in " << max_steps
                     << " steps";
}

void FleetRouter::RunTimedTrace(std::vector<Request> requests, int64_t max_steps) {
  std::stable_sort(requests.begin(), requests.end(), [](const Request& a, const Request& b) {
    return a.arrival_time < b.arrival_time;
  });
  size_t next = 0;
  for (int64_t step = 0; step < max_steps; ++step) {
    const double clock = ClusterClock();
    while (next < requests.size() && requests[next].arrival_time <= clock) {
      Submit(std::move(requests[next]));
      ++next;
    }
    if (!StepOnce()) {
      if (next >= requests.size()) {
        return;
      }
      // Fleet idle with the next arrival in the future: jump to it (the chosen replica's
      // engine fast-forwards its own clock on the next step).
      Submit(std::move(requests[next]));
      ++next;
    }
  }
  JENGA_CHECK(false) << "FleetRouter::RunTimedTrace did not converge in " << max_steps
                     << " steps";
}

bool FleetRouter::CancelRequest(RequestId id) {
  const int placed = PlacementOf(id);
  if (placed < 0) {
    return false;
  }
  const bool cancelled = replicas_[static_cast<size_t>(placed)]->CancelRequest(id);
  if (cancelled) {
    core_.Count(&FleetCounters::cancelled);
  }
  return cancelled;
}

double FleetRouter::ClusterClock() const {
  double clock = 0.0;
  for (const auto& replica : replicas_) {
    clock = std::max(clock, replica->now());
  }
  return clock;
}

}  // namespace jenga

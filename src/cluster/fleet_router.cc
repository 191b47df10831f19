#include "src/cluster/fleet_router.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/core/block_hash.h"

namespace jenga {

int PickRoutingGroup(const KvSpec& spec) {
  for (int pass = 0; pass < 2; ++pass) {
    for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
      const KvGroupSpec& group = spec.groups[static_cast<size_t>(g)];
      if (group.scope != GroupScope::kAllTokens || group.tokens_per_page <= 0 ||
          group.kind == GroupKind::kMamba || group.kind == GroupKind::kVisionEmbed) {
        continue;
      }
      if (pass == 0 && group.kind != GroupKind::kFullAttention) {
        continue;
      }
      return g;
    }
  }
  return -1;
}

namespace {

[[nodiscard]] bool Saturated(const ReplicaLoadView& load, int spill_queue_depth,
                             double spill_occupancy) {
  return load.draining || load.waiting >= spill_queue_depth ||
         load.occupancy >= spill_occupancy;
}

// Least-loaded live replica by waiting+running (ties → lowest index), optionally restricted
// to unsaturated replicas; -1 when the restriction filters everyone out.
int PickLeastLoaded(std::span<const ReplicaLoadView> loads, int spill_queue_depth,
                    double spill_occupancy, bool unsaturated_only) {
  int best = -1;
  int64_t best_load = 0;
  for (int i = 0; i < static_cast<int>(loads.size()); ++i) {
    const ReplicaLoadView& load = loads[static_cast<size_t>(i)];
    if (!load.alive) {
      continue;
    }
    if (unsaturated_only && Saturated(load, spill_queue_depth, spill_occupancy)) {
      continue;
    }
    const int64_t total = load.waiting + load.running;
    if (best < 0 || total < best_load) {
      best = i;
      best_load = total;
    }
  }
  return best;
}

}  // namespace

const char* RoutePolicyName(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return "round-robin";
    case RoutePolicy::kPrefixAffinity:
      return "prefix-affinity";
  }
  return "unknown";
}

const char* RouteReasonName(RouteDecision::Reason reason) {
  switch (reason) {
    case RouteDecision::Reason::kAffinity:
      return "affinity";
    case RouteDecision::Reason::kSpill:
      return "spill";
    case RouteDecision::Reason::kLeastLoaded:
      return "least-loaded";
    case RouteDecision::Reason::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

RouteDecision DecideRoute(RoutePolicy policy, int spill_queue_depth, double spill_occupancy,
                          std::span<const ReplicaLoadView> loads,
                          std::span<const int64_t> affinity_blocks, int64_t round_robin_slot) {
  const int n = static_cast<int>(loads.size());
  JENGA_CHECK_GT(n, 0);
  // Dead replicas are invisible: every scan below is over the live subset. With all replicas
  // alive (the default-constructed view), the decision is identical to the pre-liveness
  // policy — the fault-free path stays byte-for-byte.
  int num_alive = 0;
  for (const ReplicaLoadView& load : loads) {
    num_alive += load.alive ? 1 : 0;
  }
  JENGA_CHECK_GT(num_alive, 0) << "DecideRoute needs at least one live replica";
  RouteDecision decision;
  decision.all_saturated = true;
  for (const ReplicaLoadView& load : loads) {
    if (load.alive && !Saturated(load, spill_queue_depth, spill_occupancy)) {
      decision.all_saturated = false;
      break;
    }
  }

  if (policy == RoutePolicy::kRoundRobin) {
    // Rotate over the live subset: slot k picks the (k mod num_alive)-th live replica, so the
    // rotation stays uniform over survivors after a death.
    int64_t slot = round_robin_slot % num_alive;
    for (int i = 0; i < n; ++i) {
      if (!loads[static_cast<size_t>(i)].alive) {
        continue;
      }
      if (slot == 0) {
        decision.replica = i;
        break;
      }
      --slot;
    }
    decision.reason = RouteDecision::Reason::kRoundRobin;
    return decision;
  }

  int affine = -1;
  for (int i = 0; i < static_cast<int>(affinity_blocks.size()); ++i) {
    if (!loads[static_cast<size_t>(i)].alive) {
      continue;
    }
    const int64_t blocks = affinity_blocks[static_cast<size_t>(i)];
    if (blocks > decision.affinity_blocks) {
      affine = i;
      decision.affinity_blocks = blocks;
    }
  }
  if (affine >= 0 &&
      !Saturated(loads[static_cast<size_t>(affine)], spill_queue_depth, spill_occupancy)) {
    decision.replica = affine;
    decision.reason = RouteDecision::Reason::kAffinity;
    return decision;
  }

  int pick = PickLeastLoaded(loads, spill_queue_depth, spill_occupancy,
                             /*unsaturated_only=*/true);
  if (pick < 0) {
    pick = PickLeastLoaded(loads, spill_queue_depth, spill_occupancy,
                           /*unsaturated_only=*/false);
  }
  decision.replica = pick;
  decision.reason = affine >= 0 ? RouteDecision::Reason::kSpill
                                : RouteDecision::Reason::kLeastLoaded;
  return decision;
}

FleetRouter::FleetRouter(FleetConfig config)
    : config_(std::move(config)), supervisor_(config_.num_replicas) {
  JENGA_CHECK_GT(config_.num_replicas, 0);
  JENGA_CHECK_GT(config_.spill_queue_depth, 0);
  JENGA_CHECK_GT(config_.stall_steps, 0);
  if (config_.fleet_fault.enabled()) {
    fleet_fault_ = std::make_unique<FaultInjector>(config_.fleet_fault);
  }
  if (!config_.replica_pool_bytes.empty()) {
    JENGA_CHECK_EQ(static_cast<int>(config_.replica_pool_bytes.size()), config_.num_replicas)
        << "replica_pool_bytes must name every replica (or be empty)";
  }
  replicas_.reserve(static_cast<size_t>(config_.num_replicas));
  for (int i = 0; i < config_.num_replicas; ++i) {
    EngineConfig engine = config_.engine;
    if (!config_.replica_pool_bytes.empty() &&
        config_.replica_pool_bytes[static_cast<size_t>(i)] > 0) {
      engine.pool_bytes_override = config_.replica_pool_bytes[static_cast<size_t>(i)];
    }
    replicas_.push_back(std::make_unique<Engine>(std::move(engine)));
  }

  const KvSpec& spec = replicas_[0]->kv().alloc_spec();
  routing_group_ = config_.engine.enable_prefix_caching ? PickRoutingGroup(spec) : -1;
  if (routing_group_ >= 0) {
    routing_block_size_ = spec.groups[static_cast<size_t>(routing_group_)].tokens_per_page;
    routing_salt_ = GroupChainSalt(routing_group_);
  }
  index_ = std::make_unique<ClusterPrefixIndex>(config_.num_replicas, routing_group_);
  for (int i = 0; i < config_.num_replicas; ++i) {
    replicas_[static_cast<size_t>(i)]->kv().allocator_mutable().SetAuditSink(index_->feed(i));
  }
  rr_cursor_ = static_cast<int64_t>(config_.seed % static_cast<uint64_t>(config_.num_replicas));
}

std::vector<BlockHash> FleetRouter::RoutingChain(const Prompt& prompt) const {
  if (routing_group_ < 0) {
    return {};
  }
  return ChainBlockHashes(prompt.tokens, routing_block_size_, routing_salt_);
}

ReplicaLoadView FleetRouter::LoadOf(int replica) const {
  const Engine& engine = *replicas_[static_cast<size_t>(replica)];
  ReplicaLoadView load;
  load.waiting = engine.num_waiting();
  load.running = engine.num_running();
  // GetMemoryStats is const on KvManager; Engine only exposes a mutable accessor.
  const KvManager::MemoryStats stats =
      const_cast<Engine&>(engine).kv().GetMemoryStats();
  load.occupancy = stats.pool_bytes > 0
                       ? static_cast<double>(stats.used_bytes) / static_cast<double>(stats.pool_bytes)
                       : 0.0;
  load.draining = engine.elastic_draining();
  return load;
}

bool FleetRouter::IsSaturated(int replica) const {
  return Saturated(LoadOf(replica), config_.spill_queue_depth, config_.spill_occupancy);
}

RouteDecision FleetRouter::Route(const Request& request) {
  std::vector<ReplicaLoadView> loads(static_cast<size_t>(num_replicas()));
  bool any_routable = false;
  for (int i = 0; i < num_replicas(); ++i) {
    loads[static_cast<size_t>(i)] = LoadOf(i);
    loads[static_cast<size_t>(i)].alive =
        supervisor_.alive(i) && !supervisor_.stalled(i, fleet_steps_);
    any_routable = any_routable || loads[static_cast<size_t>(i)].alive;
  }
  if (!any_routable) {
    // Every live replica is mid-stall: fall back to liveness alone (a stalled replica queues
    // the request and serves it when the stall expires; a dead one never would).
    for (int i = 0; i < num_replicas(); ++i) {
      loads[static_cast<size_t>(i)].alive = supervisor_.alive(i);
    }
  }
  std::vector<int64_t> affinity(static_cast<size_t>(num_replicas()), 0);
  if (config_.policy == RoutePolicy::kPrefixAffinity && routing_group_ >= 0) {
    const std::vector<BlockHash> chain = RoutingChain(request.prompt);
    for (int i = 0; i < num_replicas(); ++i) {
      affinity[static_cast<size_t>(i)] = index_->ResidentPrefixBlocks(i, chain);
    }
  }
  const RouteDecision decision =
      DecideRoute(config_.policy, config_.spill_queue_depth, config_.spill_occupancy, loads,
                  affinity, rr_cursor_);
  if (config_.policy == RoutePolicy::kRoundRobin) {
    ++rr_cursor_;
  }
  return decision;
}

void FleetRouter::CountDecision(const RouteDecision& decision) {
  counters_.submitted += 1;
  switch (decision.reason) {
    case RouteDecision::Reason::kAffinity:
      counters_.routed_affinity += 1;
      break;
    case RouteDecision::Reason::kSpill:
      counters_.routed_spill += 1;
      break;
    case RouteDecision::Reason::kLeastLoaded:
      counters_.routed_least_loaded += 1;
      break;
    case RouteDecision::Reason::kRoundRobin:
      counters_.routed_round_robin += 1;
      break;
  }
  if (decision.all_saturated) {
    counters_.saturated_submits += 1;
  }
}

RouteDecision FleetRouter::Submit(Request request) {
  const RouteDecision decision = Route(request);
  CountDecision(decision);
  placement_[request.id] = decision.replica;
  replicas_[static_cast<size_t>(decision.replica)]->Submit(std::move(request));
  return decision;
}

void FleetRouter::ResubmitRevived(Request request) {
  // Routes like a fresh submit but books a re-route, not a client submit: `submitted` and
  // the routed_* tallies count client intent only, keeping the conservation ledger
  // Σ finished records == submitted + rerouted.
  const RouteDecision decision = Route(request);
  counters_.rerouted += 1;
  placement_[request.id] = decision.replica;
  replicas_[static_cast<size_t>(decision.replica)]->Submit(std::move(request));
}

void FleetRouter::KillReplica(int replica) {
  JENGA_CHECK(supervisor_.alive(replica)) << "replica " << replica << " is already dead";
  JENGA_CHECK_GT(supervisor_.num_alive(), 1) << "cannot kill the last live replica";
  counters_.replica_deaths += 1;
  supervisor_.MarkDead(replica);
  Engine& dead = *replicas_[static_cast<size_t>(replica)];
  // Stop feeding the cluster index, then drop the dead replica's summary: it must stop
  // attracting affinity immediately, and the cancels below must not churn the index.
  dead.kv().allocator_mutable().RemoveAuditSink(index_->feed(replica));
  index_->PurgeReplica(replica);
  // Harvest in scheduler order (running queue first, then waiting): cancel off the dead
  // engine with full reclamation — the dead allocator still audits clean — and re-submit
  // each request to a survivor, recomputing from the prompt.
  for (const RequestId id : dead.ActiveRequests()) {
    Request revived = ReplicaSupervisor::ReviveForReroute(dead.request(id));
    JENGA_CHECK(dead.CancelRequest(id));
    counters_.death_cancels += 1;
    ResubmitRevived(std::move(revived));
  }
}

void FleetRouter::StallReplica(int replica, int64_t steps) {
  JENGA_CHECK(supervisor_.alive(replica)) << "cannot stall dead replica " << replica;
  JENGA_CHECK_GT(steps, 0);
  counters_.replica_stalls += 1;
  supervisor_.MarkStalled(replica, fleet_steps_ + steps);
}

void FleetRouter::ConsultFleetFaults() {
  // One consult pass per fleet step, replica-index order: a (plan, seed) pair fully
  // determines which step kills or stalls which replica. A death fire on the last live
  // replica is suppressed (counted, not applied); a stalled replica skips its stall consult
  // so repeated fires don't stack.
  for (int i = 0; i < num_replicas(); ++i) {
    if (!supervisor_.alive(i)) {
      continue;
    }
    if (fleet_fault_->Fire(FaultSite::kReplicaDeath)) {
      if (supervisor_.num_alive() > 1) {
        KillReplica(i);
        continue;
      }
      counters_.death_fires_ignored += 1;
    }
    if (!supervisor_.stalled(i, fleet_steps_) && fleet_fault_->Fire(FaultSite::kReplicaStall)) {
      StallReplica(i, config_.stall_steps);
    }
  }
}

StatusOr<int> FleetRouter::TrySubmit(Request request) {
  bool all_saturated = true;
  for (int i = 0; i < num_replicas(); ++i) {
    if (!supervisor_.alive(i)) {
      continue;
    }
    if (!IsSaturated(i)) {
      all_saturated = false;
      break;
    }
  }
  if (all_saturated) {
    counters_.backpressure_rejections += 1;
    return Status::ResourceExhausted("all " + std::to_string(num_replicas()) +
                                     " replicas saturated");
  }
  return Submit(std::move(request)).replica;
}

bool FleetRouter::StepOnce() {
  if (fleet_fault_ != nullptr) {
    ConsultFleetFaults();
  }
  bool any = false;
  for (int i = 0; i < num_replicas(); ++i) {
    if (!supervisor_.alive(i)) {
      continue;
    }
    Engine& engine = *replicas_[static_cast<size_t>(i)];
    if (supervisor_.stalled(i, fleet_steps_)) {
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
  const auto it = placement_.find(id);
  if (it == placement_.end()) {
    return false;
  }
  const bool cancelled = replicas_[static_cast<size_t>(it->second)]->CancelRequest(id);
  if (cancelled) {
    counters_.cancelled += 1;
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

int FleetRouter::PlacementOf(RequestId id) const {
  const auto it = placement_.find(id);
  return it == placement_.end() ? -1 : it->second;
}

}  // namespace jenga

#include "src/cluster/fleet_core.h"

#include <iterator>
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

// Every FleetCounters field, for the ledger snapshot.
constexpr int64_t FleetCounters::*kLedgerFields[] = {
    &FleetCounters::submitted,           &FleetCounters::routed_affinity,
    &FleetCounters::routed_spill,        &FleetCounters::routed_least_loaded,
    &FleetCounters::routed_round_robin,  &FleetCounters::saturated_submits,
    &FleetCounters::backpressure_rejections, &FleetCounters::cancelled,
    &FleetCounters::replica_deaths,      &FleetCounters::replica_stalls,
    &FleetCounters::death_cancels,       &FleetCounters::rerouted,
    &FleetCounters::death_fires_ignored, &FleetCounters::rejected_submits,
    &FleetCounters::lost_on_shutdown,
};
static_assert(sizeof(FleetCounters) == std::size(kLedgerFields) * sizeof(int64_t),
              "kLedgerFields must list every FleetCounters field");

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
  RouteDecision decision;
  decision.all_saturated = true;
  for (const ReplicaLoadView& load : loads) {
    if (load.alive) {
      num_alive += 1;
      decision.all_saturated =
          decision.all_saturated && Saturated(load, spill_queue_depth, spill_occupancy);
    }
  }
  JENGA_CHECK_GT(num_alive, 0) << "DecideRoute needs at least one live replica";

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

FleetCore::FleetCore(FleetConfig config,
                     const std::function<Engine&(int, EngineConfig)>& make_engine)
    : config_(std::move(config)) {
  const int n = config_.num_replicas;
  JENGA_CHECK_GT(n, 0);
  JENGA_CHECK_GT(config_.spill_queue_depth, 0);
  if (!config_.replica_pool_bytes.empty()) {
    JENGA_CHECK_EQ(static_cast<int>(config_.replica_pool_bytes.size()), n)
        << "replica_pool_bytes must name every replica (or be empty)";
  }
  alive_ = std::vector<std::atomic<bool>>(static_cast<size_t>(n));
  for (std::atomic<bool>& alive : alive_) {
    alive.store(true, std::memory_order_relaxed);
  }
  stall_until_.assign(static_cast<size_t>(n), 0);
  loads_ = std::vector<LoadCell>(static_cast<size_t>(n));
  engines_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EngineConfig engine = config_.engine;
    if (!config_.replica_pool_bytes.empty() &&
        config_.replica_pool_bytes[static_cast<size_t>(i)] > 0) {
      engine.pool_bytes_override = config_.replica_pool_bytes[static_cast<size_t>(i)];
    }
    engines_.push_back(&make_engine(i, std::move(engine)));
  }

  const KvSpec& spec = engines_[0]->kv().alloc_spec();
  routing_group_ = config_.engine.enable_prefix_caching ? PickRoutingGroup(spec) : -1;
  if (routing_group_ >= 0) {
    routing_block_size_ = spec.groups[static_cast<size_t>(routing_group_)].tokens_per_page;
    routing_salt_ = GroupChainSalt(routing_group_);
  }
  index_ = std::make_unique<ClusterPrefixIndex>(n, routing_group_);
  for (int i = 0; i < n; ++i) {
    engines_[static_cast<size_t>(i)]->kv().allocator_mutable().SetAuditSink(index_->feed(i));
  }
  rr_cursor_.store(static_cast<int64_t>(config_.seed % static_cast<uint64_t>(n)),
                   std::memory_order_relaxed);
}

ReplicaLoadView FleetCore::LoadOf(const Engine& engine) {
  const JengaAllocator::MemoryBreakdown memory = engine.kv().allocator().GetBreakdown();
  ReplicaLoadView load;
  load.waiting = engine.num_waiting();
  load.running = engine.num_running();
  load.occupancy = memory.pool_bytes > 0 ? static_cast<double>(memory.used_bytes) /
                                               static_cast<double>(memory.pool_bytes)
                                         : 0.0;
  load.draining = engine.elastic_draining();
  return load;
}

void FleetCore::PublishLoad(int replica, const Engine& engine) {
  const ReplicaLoadView load = LoadOf(engine);
  LoadCell& cell = loads_[static_cast<size_t>(replica)];
  cell.waiting.store(load.waiting, std::memory_order_relaxed);
  cell.running.store(load.running, std::memory_order_relaxed);
  cell.occupancy.store(load.occupancy, std::memory_order_relaxed);
  cell.draining.store(load.draining, std::memory_order_relaxed);
}

bool FleetCore::Saturated(const ReplicaLoadView& load) const {
  return jenga::Saturated(load, config_.spill_queue_depth, config_.spill_occupancy);
}

RouteDecision FleetCore::Decide(const Request& request, int64_t step) {
  const int n = num_replicas();
  std::vector<ReplicaLoadView> loads(static_cast<size_t>(n));
  bool any_routable = false;
  for (int i = 0; i < n; ++i) {
    const LoadCell& cell = loads_[static_cast<size_t>(i)];
    ReplicaLoadView& load = loads[static_cast<size_t>(i)];
    load.waiting = cell.waiting.load(std::memory_order_relaxed);
    load.running = cell.running.load(std::memory_order_relaxed);
    load.occupancy = cell.occupancy.load(std::memory_order_relaxed);
    load.draining = cell.draining.load(std::memory_order_relaxed);
    load.alive = alive(i) && !stalled(i, step);
    any_routable = any_routable || load.alive;
  }
  if (!any_routable) {
    for (int i = 0; i < n; ++i) {
      loads[static_cast<size_t>(i)].alive = alive(i);
    }
  }
  std::vector<int64_t> affinity(static_cast<size_t>(n), 0);
  if (config_.policy == RoutePolicy::kPrefixAffinity && routing_group_ >= 0) {
    const std::vector<BlockHash> chain = RoutingChain(request.prompt);
    for (int i = 0; i < n; ++i) {
      affinity[static_cast<size_t>(i)] = index_->ResidentPrefixBlocks(i, chain);
    }
  }
  const int64_t slot = config_.policy == RoutePolicy::kRoundRobin
                           ? rr_cursor_.fetch_add(1, std::memory_order_relaxed)
                           : rr_cursor_.load(std::memory_order_relaxed);
  return DecideRoute(config_.policy, config_.spill_queue_depth, config_.spill_occupancy, loads,
                     affinity, slot);
}

std::vector<BlockHash> FleetCore::RoutingChain(const Prompt& prompt) const {
  if (routing_group_ < 0) {
    return {};
  }
  return ChainBlockHashes(prompt.tokens, routing_block_size_, routing_salt_);
}

void FleetCore::CountSubmit(const RouteDecision& decision) {
  Count(&FleetCounters::submitted);
  switch (decision.reason) {
    case RouteDecision::Reason::kAffinity:
      Count(&FleetCounters::routed_affinity);
      break;
    case RouteDecision::Reason::kSpill:
      Count(&FleetCounters::routed_spill);
      break;
    case RouteDecision::Reason::kLeastLoaded:
      Count(&FleetCounters::routed_least_loaded);
      break;
    case RouteDecision::Reason::kRoundRobin:
      Count(&FleetCounters::routed_round_robin);
      break;
  }
  if (decision.all_saturated) {
    Count(&FleetCounters::saturated_submits);
  }
}

void FleetCore::Count(int64_t FleetCounters::*field) {
  std::atomic_ref<int64_t>(ledger_.*field).fetch_add(1, std::memory_order_relaxed);
}

FleetCounters FleetCore::counters() const {
  FleetCounters snapshot;
  for (int64_t FleetCounters::*field : kLedgerFields) {
    snapshot.*field = std::atomic_ref<int64_t>(ledger_.*field).load(std::memory_order_relaxed);
  }
  return snapshot;
}

void FleetCore::Place(RequestId id, int replica) {
  std::lock_guard<std::mutex> lock(placement_mu_);
  placement_[id] = replica;
}

void FleetCore::Unplace(RequestId id) {
  std::lock_guard<std::mutex> lock(placement_mu_);
  placement_.erase(id);
}

int FleetCore::PlacementOf(RequestId id) const {
  std::lock_guard<std::mutex> lock(placement_mu_);
  const auto it = placement_.find(id);
  return it == placement_.end() ? -1 : it->second;
}

int FleetCore::num_alive() const {
  int count = 0;
  for (const std::atomic<bool>& flag : alive_) {
    count += flag.load(std::memory_order_acquire) ? 1 : 0;
  }
  return count;
}

void FleetCore::MarkDead(int replica) {
  Count(&FleetCounters::replica_deaths);
  alive_[static_cast<size_t>(replica)].store(false, std::memory_order_release);
}

void FleetCore::RetireFromIndex(int replica) {
  engines_[static_cast<size_t>(replica)]->kv().allocator_mutable().RemoveAuditSink(
      index_->feed(replica));
  index_->PurgeReplica(replica);
}

}  // namespace jenga

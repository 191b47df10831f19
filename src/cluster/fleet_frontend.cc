#include "src/cluster/fleet_frontend.h"

#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/core/block_hash.h"

namespace jenga {

FleetFrontend::FleetFrontend(FleetConfig config, ServingFrontend::Options options)
    : config_(std::move(config)), supervisor_(config_.num_replicas) {
  JENGA_CHECK_GT(config_.num_replicas, 0);
  JENGA_CHECK_GT(config_.spill_queue_depth, 0);

  if (!config_.replica_pool_bytes.empty()) {
    JENGA_CHECK_EQ(static_cast<int>(config_.replica_pool_bytes.size()), config_.num_replicas)
        << "replica_pool_bytes must name every replica (or be empty)";
  }
  loads_.reserve(static_cast<size_t>(config_.num_replicas));
  fronts_.reserve(static_cast<size_t>(config_.num_replicas));
  for (int i = 0; i < config_.num_replicas; ++i) {
    loads_.push_back(std::make_unique<ReplicaLoad>());
    ReplicaLoad* load = loads_.back().get();
    // Chain load publication before the caller's observer: the engine thread snapshots its
    // own queue depths and occupancy after every step, which is the freshest view routing
    // can get without touching the engine from a client thread.
    ServingFrontend::Options replica_options = options;
    const std::function<void(Engine&)> user_observer = options.step_observer;
    replica_options.step_observer = [load, user_observer](Engine& engine) {
      load->waiting.store(engine.num_waiting(), std::memory_order_relaxed);
      load->running.store(engine.num_running(), std::memory_order_relaxed);
      const KvManager::MemoryStats stats = engine.kv().GetMemoryStats();
      load->occupancy.store(
          stats.pool_bytes > 0
              ? static_cast<double>(stats.used_bytes) / static_cast<double>(stats.pool_bytes)
              : 0.0,
          std::memory_order_relaxed);
      load->draining.store(engine.elastic_draining(), std::memory_order_relaxed);
      if (user_observer) {
        user_observer(engine);
      }
    };
    EngineConfig engine = config_.engine;
    if (!config_.replica_pool_bytes.empty() &&
        config_.replica_pool_bytes[static_cast<size_t>(i)] > 0) {
      engine.pool_bytes_override = config_.replica_pool_bytes[static_cast<size_t>(i)];
    }
    fronts_.push_back(
        std::make_unique<ServingFrontend>(std::move(engine), std::move(replica_options)));
  }

  const KvSpec& spec = fronts_[0]->engine().kv().alloc_spec();
  routing_group_ = config_.engine.enable_prefix_caching ? PickRoutingGroup(spec) : -1;
  if (routing_group_ >= 0) {
    routing_block_size_ = spec.groups[static_cast<size_t>(routing_group_)].tokens_per_page;
    routing_salt_ = GroupChainSalt(routing_group_);
  }
  index_ = std::make_unique<ClusterPrefixIndex>(config_.num_replicas, routing_group_);
  // Feeds attach before Start(), so no engine thread is touching the allocator yet.
  for (int i = 0; i < config_.num_replicas; ++i) {
    fronts_[static_cast<size_t>(i)]->engine().kv().allocator_mutable().SetAuditSink(
        index_->feed(i));
  }
  rr_cursor_.store(
      static_cast<int64_t>(config_.seed % static_cast<uint64_t>(config_.num_replicas)),
      std::memory_order_relaxed);
}

FleetFrontend::~FleetFrontend() { Shutdown(); }

void FleetFrontend::Start() {
  for (const auto& front : fronts_) {
    front->Start();
  }
}

void FleetFrontend::Shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // Let an in-flight KillReplica finish re-routing before the survivor queues close.
  std::lock_guard<std::mutex> lock(kill_mu_);
  for (const auto& front : fronts_) {
    front->Shutdown();  // No-op for killed replicas.
  }
}

bool FleetFrontend::KillReplica(int replica) {
  JENGA_CHECK_GE(replica, 0);
  JENGA_CHECK_LT(replica, num_replicas());
  std::lock_guard<std::mutex> lock(kill_mu_);
  if (shut_down_.load(std::memory_order_acquire)) {
    return false;
  }
  if (!supervisor_.alive(replica) || supervisor_.num_alive() <= 1) {
    return false;
  }
  replicas_killed_.fetch_add(1, std::memory_order_relaxed);
  // MarkDead before Kill: a producer that observes the closed queue (acquire) also observes
  // the death, so its re-route loop picks a survivor.
  supervisor_.MarkDead(replica);
  ServingFrontend& dead = *fronts_[static_cast<size_t>(replica)];
  dead.Kill();
  // The dead engine is quiescent now (thread joined): detach its index feed and drop its
  // summary so routing stops scoring it immediately.
  dead.engine().kv().allocator_mutable().RemoveAuditSink(index_->feed(replica));
  index_->PurgeReplica(replica);
  for (ServingFrontend::AbandonedWork& w : dead.HarvestAbandoned()) {
    if (w.engine_side) {
      death_cancels_.fetch_add(1, std::memory_order_relaxed);
    }
    // Re-place on a survivor, adopting the client's original stream. Survivor queues cannot
    // close while we hold kill_mu_ (Shutdown and other kills wait on it), so the only
    // transient failure is a full queue, which SubmitWithStream waits out.
    const RouteDecision decision = Decide(w.request);
    {
      std::lock_guard<std::mutex> plock(placement_mu_);
      placement_[w.request.id] = decision.replica;
    }
    if (fronts_[static_cast<size_t>(decision.replica)]->SubmitWithStream(w.request,
                                                                         w.stream)) {
      rerouted_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Unreachable by construction; keep the stream terminal and the ledger balanced anyway.
    lost_on_shutdown_.fetch_add(1, std::memory_order_relaxed);
    w.stream->finish_wall.store(
        fronts_[static_cast<size_t>(decision.replica)]->WallSeconds(),
        std::memory_order_release);
    w.stream->phase.store(StreamPhase::kFailed, std::memory_order_release);
  }
  return true;
}

RouteDecision FleetFrontend::Decide(const Request& request) {
  const int n = num_replicas();
  std::vector<ReplicaLoadView> loads(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const ReplicaLoad& load = *loads_[static_cast<size_t>(i)];
    loads[static_cast<size_t>(i)].waiting = load.waiting.load(std::memory_order_relaxed);
    loads[static_cast<size_t>(i)].running = load.running.load(std::memory_order_relaxed);
    loads[static_cast<size_t>(i)].occupancy = load.occupancy.load(std::memory_order_relaxed);
    loads[static_cast<size_t>(i)].draining = load.draining.load(std::memory_order_relaxed);
    // Dead replicas are unroutable; at least one stays alive (KillReplica refuses the last).
    loads[static_cast<size_t>(i)].alive = supervisor_.alive(i);
  }
  std::vector<int64_t> affinity(static_cast<size_t>(n), 0);
  if (config_.policy == RoutePolicy::kPrefixAffinity && routing_group_ >= 0) {
    const std::vector<BlockHash> chain =
        ChainBlockHashes(request.prompt.tokens, routing_block_size_, routing_salt_);
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

void FleetFrontend::CountDecision(const RouteDecision& decision) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  switch (decision.reason) {
    case RouteDecision::Reason::kAffinity:
      routed_affinity_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RouteDecision::Reason::kSpill:
      routed_spill_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RouteDecision::Reason::kLeastLoaded:
      routed_least_loaded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RouteDecision::Reason::kRoundRobin:
      routed_round_robin_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (decision.all_saturated) {
    saturated_submits_.fetch_add(1, std::memory_order_relaxed);
  }
}

StreamHandle FleetFrontend::SubmitAsync(Request request) {
  auto stream = std::make_shared<RequestStream>();
  const RequestId id = request.id;
  for (;;) {
    if (shut_down_.load(std::memory_order_acquire)) {
      // Clean refusal: no routing, no placement, no replica queue touched.
      rejected_submits_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(placement_mu_);
        placement_.erase(id);  // Drop the entry a failed earlier attempt may have left.
      }
      stream->phase.store(StreamPhase::kRejected, std::memory_order_release);
      return stream;
    }
    const RouteDecision decision = Decide(request);
    {
      // Placement is published before the push so a kill that harvests the accepted op
      // always finds (and overwrites) it.
      std::lock_guard<std::mutex> lock(placement_mu_);
      placement_[id] = decision.replica;
    }
    if (fronts_[static_cast<size_t>(decision.replica)]->SubmitWithStream(request, stream)) {
      CountDecision(decision);
      return stream;
    }
    // The chosen replica's queue closed under us — it died (re-route) or the fleet shut
    // down (next iteration rejects cleanly).
  }
}

Status FleetFrontend::TrySubmitAsync(Request request, StreamHandle* out) {
  JENGA_CHECK(out != nullptr);
  auto stream = std::make_shared<RequestStream>();
  const RequestId id = request.id;
  for (;;) {
    if (shut_down_.load(std::memory_order_acquire)) {
      rejected_submits_.fetch_add(1, std::memory_order_relaxed);
      return Status::FailedPrecondition("fleet frontend is shut down");
    }
    const RouteDecision decision = Decide(request);
    if (decision.all_saturated) {
      backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("every live replica is saturated");
    }
    {
      std::lock_guard<std::mutex> lock(placement_mu_);
      placement_[id] = decision.replica;
    }
    switch (fronts_[static_cast<size_t>(decision.replica)]->TrySubmitWithStream(request,
                                                                                stream)) {
      case ServingFrontend::TrySubmitResult::kAccepted:
        CountDecision(decision);
        *out = std::move(stream);
        return Status::Ok();
      case ServingFrontend::TrySubmitResult::kQueueFull: {
        // The replica queue can still be full (saturation thresholds and queue capacity are
        // independent); surface that as backpressure too rather than blocking.
        std::lock_guard<std::mutex> lock(placement_mu_);
        placement_.erase(id);
        backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted("replica queue full");
      }
      case ServingFrontend::TrySubmitResult::kClosed:
        break;  // Replica died or fleet shut down; loop re-checks and re-routes.
    }
  }
}

void FleetFrontend::CancelAsync(RequestId id) {
  int replica = -1;
  {
    std::lock_guard<std::mutex> lock(placement_mu_);
    const auto it = placement_.find(id);
    if (it != placement_.end()) {
      replica = it->second;
    }
  }
  if (replica < 0) {
    return;
  }
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  fronts_[static_cast<size_t>(replica)]->CancelAsync(id);
}

void FleetFrontend::RunClients(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    clients.emplace_back(fn, i);
  }
  for (std::thread& t : clients) {
    t.join();
  }
}

FleetCounters FleetFrontend::counters() const {
  FleetCounters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.routed_affinity = routed_affinity_.load(std::memory_order_relaxed);
  c.routed_spill = routed_spill_.load(std::memory_order_relaxed);
  c.routed_least_loaded = routed_least_loaded_.load(std::memory_order_relaxed);
  c.routed_round_robin = routed_round_robin_.load(std::memory_order_relaxed);
  c.saturated_submits = saturated_submits_.load(std::memory_order_relaxed);
  c.backpressure_rejections = backpressure_rejections_.load(std::memory_order_relaxed);
  c.cancelled = cancelled_.load(std::memory_order_relaxed);
  c.rejected_submits = rejected_submits_.load(std::memory_order_relaxed);
  c.replica_deaths = replicas_killed_.load(std::memory_order_relaxed);
  c.death_cancels = death_cancels_.load(std::memory_order_relaxed);
  c.rerouted = rerouted_.load(std::memory_order_relaxed);
  c.lost_on_shutdown = lost_on_shutdown_.load(std::memory_order_relaxed);
  return c;
}

ServingFrontend::Counters FleetFrontend::frontend_counters() const {
  ServingFrontend::Counters total;
  for (const auto& front : fronts_) {
    const ServingFrontend::Counters c = front->counters();
    total.submitted += c.submitted;
    total.rejected += c.rejected;
    total.admitted += c.admitted;
    total.cancelled_queued += c.cancelled_queued;
    total.finished += c.finished;
    total.cancelled += c.cancelled;
    total.failed += c.failed;
    total.harvested_queued += c.harvested_queued;
    total.harvested_live += c.harvested_live;
  }
  return total;
}

int FleetFrontend::PlacementOf(RequestId id) const {
  std::lock_guard<std::mutex> lock(placement_mu_);
  const auto it = placement_.find(id);
  return it == placement_.end() ? -1 : it->second;
}

}  // namespace jenga

#include "src/cluster/fleet_frontend.h"

#include <utility>

#include "src/common/check.h"

namespace jenga {

FleetFrontend::FleetFrontend(FleetConfig config, ServingFrontend::Options options)
    : core_(std::move(config), [this, &options](int replica, EngineConfig engine) -> Engine& {
        // Chain load publication before the caller's observer: the engine thread publishes
        // its own load after every step, which is the freshest view routing can get without
        // touching the engine from a client thread.
        ServingFrontend::Options replica_options = options;
        replica_options.step_observer = [this, replica,
                                         user_observer = options.step_observer](Engine& e) {
          core_.PublishLoad(replica, e);
          if (user_observer) {
            user_observer(e);
          }
        };
        fronts_.push_back(
            std::make_unique<ServingFrontend>(std::move(engine), std::move(replica_options)));
        return fronts_.back()->engine();
      }) {}

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
  if (!core_.alive(replica) || core_.num_alive() <= 1) {
    return false;
  }
  // MarkDead before Kill: a producer that observes the closed queue (acquire) also observes
  // the death, so its re-route loop picks a survivor.
  core_.MarkDead(replica);
  ServingFrontend& dead = *fronts_[static_cast<size_t>(replica)];
  dead.Kill();
  // The dead engine is quiescent now (thread joined): detach its index feed and drop its
  // summary so routing stops scoring it immediately.
  core_.RetireFromIndex(replica);
  for (ServingFrontend::AbandonedWork& w : dead.HarvestAbandoned()) {
    if (w.engine_side) {
      core_.Count(&FleetCounters::death_cancels);
    }
    // Re-place on a survivor, adopting the client's original stream. Survivor queues cannot
    // close while we hold kill_mu_ (Shutdown and other kills wait on it), so the only
    // transient failure is a full queue, which the blocking enqueue waits out.
    const RouteDecision decision = core_.Decide(w.request);
    core_.Place(w.request.id, decision.replica);
    ServingFrontend& survivor = *fronts_[static_cast<size_t>(decision.replica)];
    if (survivor.SubmitWithStream(w.request, w.stream, /*wait_if_full=*/true) ==
        ServingFrontend::TrySubmitResult::kAccepted) {
      core_.Count(&FleetCounters::rerouted);
      continue;
    }
    // Unreachable by construction; keep the stream terminal and the ledger balanced anyway.
    core_.Count(&FleetCounters::lost_on_shutdown);
    w.stream->finish_wall.store(survivor.WallSeconds(), std::memory_order_release);
    w.stream->phase.store(StreamPhase::kFailed, std::memory_order_release);
  }
  return true;
}

Status FleetFrontend::Enqueue(Request& request, const StreamHandle& stream,
                              bool wait_if_full) {
  const auto refuse = [this, &request](int64_t FleetCounters::*ledger, Status status) {
    core_.Count(ledger);
    core_.Unplace(request.id);  // Drop the entry a closed earlier attempt may have left.
    return status;
  };
  for (;;) {
    if (shut_down_.load(std::memory_order_acquire)) {
      // Clean refusal: no routing, no replica queue touched.
      return refuse(&FleetCounters::rejected_submits,
                    Status::FailedPrecondition("fleet frontend is shut down"));
    }
    const RouteDecision decision = core_.Decide(request);
    if (!wait_if_full && decision.all_saturated) {
      return refuse(&FleetCounters::backpressure_rejections,
                    Status::ResourceExhausted("every live replica is saturated"));
    }
    // Placement is published before the push so a kill that harvests the accepted op
    // always finds (and overwrites) it.
    core_.Place(request.id, decision.replica);
    switch (fronts_[static_cast<size_t>(decision.replica)]->SubmitWithStream(request, stream,
                                                                             wait_if_full)) {
      case ServingFrontend::TrySubmitResult::kAccepted:
        core_.CountSubmit(decision);
        return Status::Ok();
      case ServingFrontend::TrySubmitResult::kQueueFull:
        // Saturation thresholds and queue capacity are independent, so the chosen queue
        // can still be full; that is backpressure too rather than a reason to block.
        return refuse(&FleetCounters::backpressure_rejections,
                      Status::ResourceExhausted("replica queue full"));
      case ServingFrontend::TrySubmitResult::kClosed:
        break;  // The replica died (re-route) or the fleet shut down (next pass refuses).
    }
  }
}

StreamHandle FleetFrontend::SubmitAsync(Request request) {
  auto stream = std::make_shared<RequestStream>();
  if (!Enqueue(request, stream, /*wait_if_full=*/true).ok()) {
    stream->phase.store(StreamPhase::kRejected, std::memory_order_release);
  }
  return stream;
}

Status FleetFrontend::TrySubmitAsync(Request request, StreamHandle* out) {
  JENGA_CHECK(out != nullptr);
  auto stream = std::make_shared<RequestStream>();
  Status status = Enqueue(request, stream, /*wait_if_full=*/false);
  if (status.ok()) {
    *out = std::move(stream);
  }
  return status;
}

void FleetFrontend::CancelAsync(RequestId id) {
  const int replica = PlacementOf(id);
  if (replica >= 0) {
    fronts_[static_cast<size_t>(replica)]->CancelAsync(id);
  }
}

FleetCounters FleetFrontend::counters() const {
  // A cancel is counted where it takes effect, on the replica's engine thread, as
  // FleetRouter::CancelRequest counts only the cancels its engine performed.
  FleetCounters counters = core_.counters();
  for (const auto& front : fronts_) {
    counters.cancelled += front->counters().client_cancels;
  }
  return counters;
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
    total.client_cancels += c.client_cancels;
    total.harvested_queued += c.harvested_queued;
    total.harvested_live += c.harvested_live;
  }
  return total;
}

}  // namespace jenga

// Replica liveness for the fleet layer: which replicas are routable, which are stalled, and
// how a dead replica's work is rebuilt for re-submission.
//
// Failure model (DESIGN.md §10): a replica death loses the replica's KV pool and in-flight
// scheduler state but not the cluster's record of its requests — the driver (FleetRouter or
// FleetFrontend) cancels the dead replica's work through the engine's CancelRequest path
// (full resource reclamation, so the dead engine still audits clean) and re-submits each
// recoverable request to a surviving replica, recomputing from the prompt exactly like a
// preemption-by-recompute (PagedAttention's recovery primitive, lifted to fleet scope).
// A stall is milder: the replica keeps its state but is skipped by the step loop and marked
// unroutable until the stall expires.
//
// Threading: the alive flags are atomics so the threaded FleetFrontend's routing snapshots
// may read them lock-free while a supervisor thread marks a death. Stall bookkeeping is
// step-indexed and used only by the deterministic single-threaded FleetRouter.

#ifndef JENGA_SRC_CLUSTER_REPLICA_SUPERVISOR_H_
#define JENGA_SRC_CLUSTER_REPLICA_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/engine/request.h"

namespace jenga {

class ReplicaSupervisor {
 public:
  explicit ReplicaSupervisor(int num_replicas);

  ReplicaSupervisor(const ReplicaSupervisor&) = delete;
  ReplicaSupervisor& operator=(const ReplicaSupervisor&) = delete;

  [[nodiscard]] int num_replicas() const { return static_cast<int>(alive_.size()); }

  // Liveness. MarkDead is one-way; alive() uses acquire so a reader that observes a closed
  // replica queue also observes the death that closed it.
  [[nodiscard]] bool alive(int replica) const {
    return alive_[static_cast<size_t>(replica)]->load(std::memory_order_acquire);
  }
  void MarkDead(int replica) {
    alive_[static_cast<size_t>(replica)]->store(false, std::memory_order_release);
  }
  [[nodiscard]] int num_alive() const;

  // Stalls (deterministic driver only): the replica skips steps while step < stall_until.
  void MarkStalled(int replica, int64_t until_step) {
    stall_until_[static_cast<size_t>(replica)] = until_step;
  }
  [[nodiscard]] bool stalled(int replica, int64_t step) const {
    return step < stall_until_[static_cast<size_t>(replica)];
  }

  // Rebuilds a harvested request for re-submission to a survivor: fresh scheduler state,
  // same id/prompt/output target/arrival/deadline. Progress is recomputed from the prompt on
  // the new replica (the deadline stays absolute, so a revived request may still expire
  // there — a legitimate terminal state, not a lost request).
  [[nodiscard]] static Request ReviveForReroute(const Request& dead);

 private:
  // unique_ptr keeps the atomics address-stable without requiring a movable atomic.
  std::vector<std::unique_ptr<std::atomic<bool>>> alive_;
  std::vector<int64_t> stall_until_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_REPLICA_SUPERVISOR_H_

#include "src/cluster/replica_supervisor.h"

#include "src/common/check.h"

namespace jenga {

ReplicaSupervisor::ReplicaSupervisor(int num_replicas)
    : stall_until_(static_cast<size_t>(num_replicas), 0) {
  JENGA_CHECK_GT(num_replicas, 0);
  alive_.reserve(static_cast<size_t>(num_replicas));
  for (int i = 0; i < num_replicas; ++i) {
    alive_.push_back(std::make_unique<std::atomic<bool>>(true));
  }
}

int ReplicaSupervisor::num_alive() const {
  int alive = 0;
  for (const auto& flag : alive_) {
    alive += flag->load(std::memory_order_acquire) ? 1 : 0;
  }
  return alive;
}

Request ReplicaSupervisor::ReviveForReroute(const Request& dead) {
  Request revived =
      MakeRequest(dead.id, dead.prompt, dead.output_len, dead.arrival_time);
  revived.deadline = dead.deadline;
  return revived;
}

}  // namespace jenga

#include "src/cluster/prefix_index.h"

#include "src/common/check.h"

namespace jenga {

ClusterPrefixIndex::ClusterPrefixIndex(int num_replicas, int routing_group)
    : routing_group_(routing_group) {
  JENGA_CHECK_GT(num_replicas, 0);
  replicas_.reserve(static_cast<size_t>(num_replicas));
  feeds_.reserve(static_cast<size_t>(num_replicas));
  for (int i = 0; i < num_replicas; ++i) {
    replicas_.push_back(std::make_unique<ReplicaSummary>());
    feeds_.push_back(std::make_unique<Feed>(this, i));
  }
}

AuditSink* ClusterPrefixIndex::feed(int replica) {
  return feeds_[static_cast<size_t>(replica)].get();
}

void ClusterPrefixIndex::Feed::OnHashIndexed(int group_index, BlockHash hash) {
  if (group_index != index_->routing_group_) {
    return;
  }
  ReplicaSummary& summary = *index_->replicas_[static_cast<size_t>(replica_)];
  std::lock_guard<std::mutex> lock(summary.mu);
  summary.hashes.insert(hash);
}

void ClusterPrefixIndex::Feed::OnHashUnindexed(int group_index, BlockHash hash,
                                               const CacheEviction* /*evicted*/) {
  if (group_index != index_->routing_group_) {
    return;
  }
  ReplicaSummary& summary = *index_->replicas_[static_cast<size_t>(replica_)];
  std::lock_guard<std::mutex> lock(summary.mu);
  summary.hashes.erase(hash);
}

int64_t ClusterPrefixIndex::ResidentPrefixBlocks(int replica,
                                                std::span<const BlockHash> chain) const {
  const ReplicaSummary& summary = *replicas_[static_cast<size_t>(replica)];
  std::lock_guard<std::mutex> lock(summary.mu);
  int64_t blocks = 0;
  for (const BlockHash hash : chain) {
    if (summary.hashes.find(hash) == summary.hashes.end()) {
      break;
    }
    ++blocks;
  }
  return blocks;
}

void ClusterPrefixIndex::PurgeReplica(int replica) {
  ReplicaSummary& summary = *replicas_[static_cast<size_t>(replica)];
  std::lock_guard<std::mutex> lock(summary.mu);
  summary.hashes.clear();
}

int64_t ClusterPrefixIndex::ResidentHashes(int replica) const {
  const ReplicaSummary& summary = *replicas_[static_cast<size_t>(replica)];
  std::lock_guard<std::mutex> lock(summary.mu);
  return static_cast<int64_t>(summary.hashes.size());
}

}  // namespace jenga

// Cluster-level prefix index: one block-hash summary per Engine replica, maintained live
// from the OnHashIndexed / OnHashUnindexed events of the replicas' allocators (one AuditSink
// subscriber per replica), queried by the router to score replicas by longest resident
// prefix.
//
// Staleness model (DESIGN.md §10): the summary tracks *index membership*, not reservations.
// Between the router's scoring decision and the request's admission on the chosen replica,
// summarized blocks may be evicted (score too high → the replica recomputes, correctness
// unaffected) and in the concurrent fleet new blocks may land (score too low → a missed
// affinity opportunity). Routing is therefore strictly advisory; every replica serves every
// request correctly regardless of where it lands. Because block hashes are *chained* (hash i
// commits to blocks 0..i), membership of hash i implies the whole prefix was resident at
// summary time, so the score scan can stop at the first miss.
//
// Threading: each replica's summary is guarded by its own mutex. Writers are the replicas'
// engine threads (feed events fire inside allocator calls); readers are router threads.
// In the deterministic single-threaded FleetRouter the locks are uncontended and the index
// adds no nondeterminism — events fire at fixed points of the replicas' step loops.

#ifndef JENGA_SRC_CLUSTER_PREFIX_INDEX_H_
#define JENGA_SRC_CLUSTER_PREFIX_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/core/audit_events.h"
#include "src/core/types.h"

namespace jenga {

class ClusterPrefixIndex {
 public:
  // Tracks hashes of `routing_group` (the group whose chain the router scores against;
  // events for other groups are ignored) across `num_replicas` replicas. A negative
  // `routing_group` disables tracking — every feed drops every event and all scores are 0.
  ClusterPrefixIndex(int num_replicas, int routing_group);

  ClusterPrefixIndex(const ClusterPrefixIndex&) = delete;
  ClusterPrefixIndex& operator=(const ClusterPrefixIndex&) = delete;

  // The subscriber to attach to replica `replica`'s allocator (JengaAllocator::SetAuditSink).
  // Owned by the index; valid for the index's lifetime.
  [[nodiscard]] AuditSink* feed(int replica);

  // Number of leading blocks of `chain` (a routing-group hash chain) resident on `replica`
  // per the current summary. Chained hashes ⇒ the scan stops at the first miss.
  [[nodiscard]] int64_t ResidentPrefixBlocks(int replica, std::span<const BlockHash> chain) const;

  // Summary cardinality (resident routing-group hashes) for `replica`.
  [[nodiscard]] int64_t ResidentHashes(int replica) const;

  // Drops every summarized hash for `replica`. Called by the replica supervisor on death:
  // a dead replica must stop attracting affinity immediately, not when its (never-coming)
  // eviction events would have drained the summary. Detach the replica's feed first.
  void PurgeReplica(int replica);

  [[nodiscard]] int num_replicas() const { return static_cast<int>(replicas_.size()); }
  [[nodiscard]] int routing_group() const { return routing_group_; }

 private:
  struct ReplicaSummary {
    mutable std::mutex mu;
    std::unordered_set<BlockHash> hashes;
  };

  class Feed final : public AuditSink {
   public:
    Feed(ClusterPrefixIndex* index, int replica) : index_(index), replica_(replica) {}
    void OnHashIndexed(int group_index, BlockHash hash) override;
    void OnHashUnindexed(int group_index, BlockHash hash,
                         const CacheEviction* evicted) override;

   private:
    ClusterPrefixIndex* index_;
    int replica_;
  };

  int routing_group_;
  std::vector<std::unique_ptr<ReplicaSummary>> replicas_;
  std::vector<std::unique_ptr<Feed>> feeds_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_PREFIX_INDEX_H_

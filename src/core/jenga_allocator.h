// The two-level memory manager facade (Figure 5): an LCM allocator at the bottom, one
// customized small-page allocator per KV group on top, and the global coordination between
// them — in particular step 3 of §5.4, evicting the globally least-recently-used *evictable
// large page* (from any group) when the free list runs dry, which is what lets memory flow
// between layer types under shifting workloads.

#ifndef JENGA_SRC_CORE_JENGA_ALLOCATOR_H_
#define JENGA_SRC_CORE_JENGA_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/audit_events.h"
#include "src/core/lcm_allocator.h"
#include "src/core/small_page_allocator.h"
#include "src/model/kv_spec.h"

namespace jenga {

class JengaAllocator final : public LargePageProvider {
 public:
  // Creates the two-level allocator over a `pool_bytes` KV pool; the large-page size is the
  // LCM of the group page sizes.
  JengaAllocator(KvSpec spec, int64_t pool_bytes);

  JengaAllocator(const JengaAllocator&) = delete;
  JengaAllocator& operator=(const JengaAllocator&) = delete;

  [[nodiscard]] int num_groups() const { return static_cast<int>(groups_.size()); }
  [[nodiscard]] SmallPageAllocator& group(int index) { return *groups_[static_cast<size_t>(index)]; }
  [[nodiscard]] const SmallPageAllocator& group(int index) const {
    return *groups_[static_cast<size_t>(index)];
  }
  [[nodiscard]] const KvSpec& spec() const { return spec_; }
  [[nodiscard]] const LcmAllocator& lcm() const { return lcm_; }

  // LargePageProvider: serves group allocators. Tries the free list, then evicts the
  // globally-LRU evictable large page.
  [[nodiscard]] std::optional<LargePageId> AcquireLargePage(int group_index) override;
  void OnReclaimCandidate(int group_index, LargePageId large, Tick timestamp) override;

  // --- Elastic resize (governor-driven) ---

  // Appends `pages` free large pages to the pool. Always succeeds; the governor owns the
  // decision of whether the bytes exist to back them.
  void GrowPool(int32_t pages);

  // Opportunistically removes up to `pages` trailing large pages: free pages are dropped
  // directly and whole-evictable trailing pages are drained through ReclaimLargePage first
  // (their cached content parks in the host tier through the OnHashUnindexed eviction
  // payload, same path as step-3 reclaims). Stops at the first trailing page with used
  // slots — the id space must stay dense — and returns the number of pages actually removed
  // (possibly 0).
  [[nodiscard]] int32_t ShrinkPool(int32_t pages);

  // Drops every group's affinity free list for a retired request id (see
  // SmallPageAllocator::ForgetRequest).
  void ForgetRequest(RequestId request);

  // Attaches one event subscriber (non-null, not attached yet) to this allocator, every
  // group and every evictor. It receives each event after the subscribers attached before
  // it. Pure observation — never changes allocation behavior.
  void SetAuditSink(AuditSink* sink);
  // Detaches one attached subscriber; the others keep their order.
  void RemoveAuditSink(AuditSink* sink);

  struct MemoryBreakdown {
    int64_t pool_bytes = 0;
    int64_t allocated_bytes = 0;    // Large pages held by any group.
    int64_t used_bytes = 0;         // Small pages referenced by running requests.
    int64_t evictable_bytes = 0;    // Cached, reclaimable.
    int64_t empty_bytes = 0;        // Internal fragmentation inside held large pages.
    int64_t unallocated_bytes = 0;  // Free large pages + trailing pool slack.
  };
  [[nodiscard]] MemoryBreakdown GetBreakdown() const;

  // O(1) pool occupancy in [0, 1]: fraction of capacity held by any group, identical to
  // 1 − unallocated/pool from GetBreakdown but without the per-group stats walk (and without
  // the per-request needed-bytes walk of KvManager::GetMemoryStats). The shed gate and the
  // elastic governor probe this every step, so it must stay counter-only. 0 on an empty pool.
  [[nodiscard]] double Occupancy() const {
    const int64_t pool =
        static_cast<int64_t>(lcm_.num_pages()) * lcm_.large_page_bytes() + lcm_.slack_bytes();
    if (pool <= 0) {
      return 0.0;
    }
    const int64_t unallocated =
        static_cast<int64_t>(lcm_.num_free()) * lcm_.large_page_bytes() + lcm_.slack_bytes();
    return 1.0 - static_cast<double>(unallocated) / static_cast<double>(pool);
  }

  // Large pages queued for step-3 reclaim, one per page whether or not it is still a
  // candidate (revalidation is lazy); at most lcm().num_pages(). KvManager::GrowFits bounds
  // reclaimable pages by it.
  [[nodiscard]] size_t reclaim_heap_entries() const { return reclaim_live_; }
  // Entries the reclaim queue stores, stale and consumed ones included (test/bench only).
  // Compaction keeps it at most 2 × reclaim_heap_entries() + kReclaimStorageFloor.
  [[nodiscard]] size_t reclaim_queue_storage() const {
    return reclaim_runs_storage_.size() + reclaim_side_.size();
  }
  static constexpr size_t kReclaimStorageFloor = 64;

 private:
  friend class AllocatorAuditor;
  friend struct ReclaimQueueTestPeer;

  // Reclaim order (§5.4 step 3): earliest last access first; ties go to the lower group,
  // then the lower large id, so the victim never depends on queue layout. `key` packs
  // (group, large, generation) from the high bits down, so (timestamp, key) compares in
  // exactly that order. An entry is live while its generation equals its page's.
  struct ReclaimEntry {
    Tick timestamp = 0;
    uint64_t key = 0;
    auto operator<=>(const ReclaimEntry&) const = default;
  };
  static constexpr int kGenerationBits = 30;
  static constexpr int kLargeBits = 26;
  static constexpr int kGroupBits = 64 - kLargeBits - kGenerationBits;
  static constexpr uint32_t kGenerationMask = (1u << kGenerationBits) - 1;
  static uint64_t PackReclaimKey(int group, LargePageId large, uint32_t generation) {
    return (static_cast<uint64_t>(group) << (kLargeBits + kGenerationBits)) |
           (static_cast<uint64_t>(large) << kGenerationBits) | generation;
  }
  static int ReclaimGroup(const ReclaimEntry& entry) {
    return static_cast<int>(entry.key >> (kLargeBits + kGenerationBits));
  }
  static LargePageId ReclaimLarge(const ReclaimEntry& entry) {
    return static_cast<LargePageId>((entry.key >> kGenerationBits) & ((1u << kLargeBits) - 1));
  }
  static uint32_t ReclaimGeneration(const ReclaimEntry& entry) {
    return static_cast<uint32_t>(entry.key) & kGenerationMask;
  }
  [[nodiscard]] bool IsLiveReclaim(const ReclaimEntry& entry) const {
    return reclaim_generation_[static_cast<size_t>(ReclaimLarge(entry))] ==
           ReclaimGeneration(entry);
  }
  // A run of entries sharing one timestamp; it ends (exclusive) at `end` in
  // reclaim_runs_storage_ and begins where the previous run ends.
  struct ReclaimRun {
    Tick timestamp = 0;
    uint32_t end = 0;
  };

  // Queues `large` for reclaim under `group` at `timestamp`, superseding its live entry.
  void PlaceReclaim(Tick timestamp, int group, LargePageId large);
  // Removes and returns the least live entry (stale ones it passes are dropped); its page
  // stays queued until the caller places or dequeues it again. nullopt when none is queued.
  std::optional<ReclaimEntry> PopReclaim();
  void DequeueReclaim(LargePageId large);
  void MaybeCompactReclaim();
  void CompactReclaim();
  void CheckReclaimIdsFit() const;

  KvSpec spec_;
  LcmAllocator lcm_;
  std::vector<std::unique_ptr<SmallPageAllocator>> groups_;
  // The reclaim queue: entries with at most one live entry per large page, kept as runs of
  // equal timestamps in ascending timestamp order plus a side min-heap. Almost every
  // placement carries the newest timestamp and appends to the last run. A run is sorted
  // by key once, when popping first reaches it. A placement older than the last run, or
  // equal to it once popping has sorted it, goes to the side heap; a pop takes the lesser
  // of the two fronts. Superseded entries stay in place until a pop passes them or a
  // compaction drops them.
  std::vector<ReclaimEntry> reclaim_runs_storage_;
  std::vector<ReclaimRun> reclaim_runs_;
  size_t reclaim_cursor_ = 0;     // First unconsumed entry of the front run.
  size_t reclaim_front_run_ = 0;  // Index of the front run in reclaim_runs_.
  bool reclaim_front_sorted_ = false;
  std::vector<ReclaimEntry> reclaim_side_;  // Min-heap under std::greater.
  // Per large page (indexed by id, never shrunk so a re-grown id keeps counting): the
  // generation of its live entry. Odd while the page is queued, even while it is not.
  std::vector<uint32_t> reclaim_generation_;
  size_t reclaim_live_ = 0;     // Queued pages, i.e. live entries.
  // Entries written since the last compaction, its survivors included: an upper bound on
  // the storage that pops off the side heap never lower, so it also bounds how many
  // placements a stale entry can outlive (see CompactReclaim).
  size_t reclaim_written_ = 0;
  AuditSinkList audit_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_JENGA_ALLOCATOR_H_

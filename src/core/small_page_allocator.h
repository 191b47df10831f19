// Second-level allocator: one per KV group. Carves small pages of the group's page size out
// of large pages obtained from the LCM allocator, with request-aware placement (§4.3) and the
// five-step allocation algorithm of §5.4:
//
//   1. an empty small page already associated with the requesting request,
//   2. a fresh large page (the provider may satisfy this by evicting a whole evictable
//      large page anywhere in the system — step 3),
//   4. any empty small page, regardless of association,
//   5. evicting this group's LRU evictable small page.
//
// Step 5 is unreachable in a one-slot group (the group's page fills its large page): every
// evictable page is then a whole reclaim candidate, which step 3 takes first. Such groups keep
// no evictor at all.
//
// The allocator also maintains the group's prefix-cache index (block hash → resident page)
// and implements GroupCacheOps so the layer policies can adjust eviction priorities.
//
// Page metadata lives in a dense slab indexed by LargePageId (large-page ids are pool
// indices), so Meta()/Entry() are array lookups rather than hash probes — every AddRef/
// Release/SetContentHash on the per-token path is O(1) with no hashing.

#ifndef JENGA_SRC_CORE_SMALL_PAGE_ALLOCATOR_H_
#define JENGA_SRC_CORE_SMALL_PAGE_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/audit_events.h"
#include "src/core/cache_index.h"
#include "src/core/evictor.h"
#include "src/core/layer_policy.h"
#include "src/core/lcm_allocator.h"
#include "src/core/types.h"
#include "src/model/kv_spec.h"

namespace jenga {

// How a group allocator obtains large pages. Implemented by JengaAllocator, which first tries
// the LCM free list and then falls back to evicting the globally-LRU evictable large page.
class LargePageProvider {
 public:
  virtual ~LargePageProvider() = default;
  // A provider that reclaims must succeed while any reclaim candidate exists: one-slot groups
  // have no step 5 to fall back on.
  [[nodiscard]] virtual std::optional<LargePageId> AcquireLargePage(int group_index) = 0;
  // Called when `large` (owned by `group_index`) transitions to "whole-page evictable":
  // no used small pages and at least one evictable one. Lazy — the provider revalidates
  // candidacy and timestamp at eviction time.
  virtual void OnReclaimCandidate(int group_index, LargePageId large, Tick timestamp) = 0;
};

class SmallPageAllocator final : public GroupCacheOps {
 public:
  // Empty small pages for steps 1/4 of the allocation algorithm are tracked by epoch-validated
  // FreeRef lists: one per associated request, plus one over every empty page.
  SmallPageAllocator(int group_index, KvGroupSpec spec, LcmAllocator* lcm,
                     LargePageProvider* provider);

  SmallPageAllocator(const SmallPageAllocator&) = delete;
  SmallPageAllocator& operator=(const SmallPageAllocator&) = delete;

  // Allocates one small page for `request` via the five-step algorithm; the returned page is
  // used (ref count 1) with no cached content. nullopt when the group is truly out of memory.
  [[nodiscard]] std::optional<SmallPageId> Allocate(RequestId request, Tick now);

  // Bulk variant: appends `n` pages to `*out` with page ids, victim order, and audit events
  // identical to `n` consecutive Allocate calls. All-or-nothing — on exhaustion every page
  // this call took is released again (keep_cached=false, reverse order), `*out` is restored,
  // and false is returned. The single rollback path spares callers from tracking partial
  // progress per group.
  [[nodiscard]] bool AllocateN(RequestId request, int64_t n, Tick now,
                               std::vector<SmallPageId>* out);

  // Takes an additional reference on a resident cached page (prefix-cache hit). The page may
  // currently be evictable (revived) or used (shared with another request).
  void AddRef(SmallPageId page);

  // Drops one reference. When the count reaches zero the page becomes evictable if
  // `keep_cached` and it holds indexed-or-indexable content, and empty otherwise. Fully-empty
  // large pages are returned to the LCM allocator immediately.
  void Release(SmallPageId page, bool keep_cached);

  // Registers the content hash of a fully-computed block for future prefix-cache hits.
  void SetContentHash(SmallPageId page, BlockHash hash);

  // Resident page (used or evictable) holding `hash`, if any.
  [[nodiscard]] std::optional<SmallPageId> LookupCached(BlockHash hash) const;

  // GroupCacheOps (called by layer policies):
  void UpdateLastAccess(SmallPageId page, Tick now) override;
  void SetPrefixLength(SmallPageId page, int64_t prefix_length) override;

  // Points this group and its evictor at the owner's event subscribers (an
  // AuditSinkList::get() value; null when none is attached). Never changes allocation
  // behavior.
  void set_audit_sinks(const std::vector<AuditSink*>* sinks) {
    audit_ = sinks;
    evictor_.set_audit_sinks(sinks, group_index_);
  }

  // Drops the request-affinity free list of a finished request. Affinity state is otherwise
  // only pruned lazily (on pop exhaustion), so long-lived servers must call this when a
  // request id retires for good; preempted requests keep their entry for re-admission.
  void ForgetRequest(RequestId request);

  // Resizes the dense metadata slab after the LCM pool grew or shrank (elastic governor).
  // Shrink requires every removed large page to be non-resident in this group (the caller
  // drains them first); stale FreeRefs into removed pages are filtered lazily by the same
  // residency/epoch checks that already guard releases.
  void OnPoolResized(int32_t new_num_larges);

  // --- Whole-large-page eviction support (§5.4 step 3, driven by the provider) ---

  [[nodiscard]] bool IsReclaimCandidate(LargePageId large) const;
  // Max last-access among the page's evictable slots; only valid for reclaim candidates.
  [[nodiscard]] Tick ReclaimTimestamp(LargePageId large) const;
  // Evicts every cached slot and returns the large page to the LCM allocator.
  void ReclaimLargePage(LargePageId large);

  // --- Introspection ---

  [[nodiscard]] const KvGroupSpec& spec() const { return spec_; }
  [[nodiscard]] int group_index() const { return group_index_; }
  [[nodiscard]] int pages_per_large() const { return pages_per_large_; }
  [[nodiscard]] int64_t page_bytes() const { return spec_.page_bytes; }
  // O(1) counter reads of GetStats() fields, for per-call feasibility checks.
  [[nodiscard]] int64_t empty_pages() const { return empty_count_; }
  [[nodiscard]] int64_t evictable_pages() const { return evictable_count_; }

  [[nodiscard]] PageState state(SmallPageId page) const;
  [[nodiscard]] RequestId assoc(SmallPageId page) const;
  [[nodiscard]] Tick last_access(SmallPageId page) const;
  [[nodiscard]] int64_t prefix_length(SmallPageId page) const;
  [[nodiscard]] int ref_count(SmallPageId page) const;

  struct Stats {
    int64_t large_pages_held = 0;
    int64_t used_pages = 0;
    int64_t evictable_pages = 0;
    int64_t empty_pages = 0;  // Internal fragmentation inside held large pages.
    int64_t used_bytes = 0;
    int64_t evictable_bytes = 0;
    int64_t empty_bytes = 0;
  };
  [[nodiscard]] Stats GetStats() const;

  // Free-ref list sizes including stale entries; compaction keeps them O(empty_pages).
  struct FreeListStats {
    int64_t any_refs = 0;
    int64_t by_request_refs = 0;
    int64_t tracked_requests = 0;
  };
  [[nodiscard]] FreeListStats GetFreeListStats() const;

  // Verifies all internal invariants (counts, index consistency, evictor membership: exactly
  // the evictable pages, and none in a one-slot group); test-only, O(pages).
  void CheckConsistency() const;

 private:
  friend class AllocatorAuditor;

  struct SlotMeta {
    PageState state = PageState::kEmpty;
    RequestId assoc = kNoRequest;
    int32_t ref_count = 0;
    Tick last_access = 0;
    int64_t prefix_length = 0;
    uint64_t epoch = 0;
    bool has_hash = false;
    BlockHash hash = 0;
  };

  struct LargeEntry {
    std::vector<SlotMeta> slots;  // Sized on first acquisition; capacity reused thereafter.
    int32_t used_count = 0;
    int32_t evictable_count = 0;
    bool resident = false;
    [[nodiscard]] int32_t empty_count() const {
      return static_cast<int32_t>(slots.size()) - used_count - evictable_count;
    }
  };

  // An entry in the lazy free lists; valid only while the slot's epoch is unchanged.
  struct FreeRef {
    SmallPageId page = kNoSmallPage;
    uint64_t epoch = 0;
  };

  [[nodiscard]] LargePageId LargeOf(SmallPageId page) const {
    return static_cast<LargePageId>(page / pages_per_large_);
  }
  [[nodiscard]] int SlotOf(SmallPageId page) const {
    return static_cast<int>(page % pages_per_large_);
  }
  [[nodiscard]] bool IsResident(LargePageId large) const {
    return large >= 0 && static_cast<size_t>(large) < larges_.size() &&
           larges_[static_cast<size_t>(large)].resident;
  }
  [[nodiscard]] SlotMeta& Meta(SmallPageId page);
  [[nodiscard]] const SlotMeta& Meta(SmallPageId page) const;
  [[nodiscard]] LargeEntry& Entry(LargePageId large);
  [[nodiscard]] const LargeEntry& Entry(LargePageId large) const;

  // Pops a validated empty page associated with `request`, or any empty page.
  [[nodiscard]] std::optional<SmallPageId> PopRequestFree(RequestId request);
  [[nodiscard]] std::optional<SmallPageId> PopAnyFree();
  [[nodiscard]] bool IsValidEmpty(const FreeRef& ref) const;
  // Drops stale refs once a list outgrows the live empty-page population; relative order of
  // valid refs is preserved, so the pop sequence — and allocation placement — is unchanged.
  void MaybeCompactFreeLists();

  // empty_by_request_ entry for `request`, inserting if absent, through the one-entry
  // association cache: burst releases (a finished request freeing its whole page table) and
  // burst allocations hit the same key back to back, so the repeated hash lookup collapses
  // to one pointer compare. unordered_map mapped references are stable under insert and
  // rehash, so the cached pointer stays valid until the entry itself is erased — every
  // erase site must call InvalidateRefsCacheFor (or drop the cache wholesale).
  [[nodiscard]] std::vector<FreeRef>& RefsFor(RequestId request) {
    if (request != refs_cache_key_ || refs_cache_ == nullptr) {
      refs_cache_key_ = request;
      refs_cache_ = &empty_by_request_[request];
    }
    return *refs_cache_;
  }
  void InvalidateRefsCacheFor(RequestId request) {
    if (request == refs_cache_key_) {
      refs_cache_key_ = kNoRequest;
      refs_cache_ = nullptr;
    }
  }

  // empty → used for `request`.
  void ClaimEmpty(SmallPageId page, RequestId request, Tick now);
  // evictable/used(ref 0) → empty; may return the large page to the LCM allocator.
  void TransitionToEmpty(SmallPageId page);
  // Drops the page's hash, erasing its index entry if the page holds it. `evicted` marks a
  // capacity eviction, whose OnHashUnindexed event carries the destroyed page.
  void UnregisterHash(SmallPageId page, SlotMeta& meta, bool evicted = false);
  void NotifyCandidateIfEligible(LargePageId large);
  void ReleaseLarge(LargePageId large, LargeEntry& entry);

  int group_index_;
  KvGroupSpec spec_;
  LcmAllocator* lcm_;
  LargePageProvider* provider_;
  const std::vector<AuditSink*>* audit_ = nullptr;
  int pages_per_large_ = 0;
  // False in one-slot groups, whose evictor stays empty: step 5 can never pick a victim there
  // (see the header comment), so Insert/Remove/rekey upkeep is skipped.
  bool uses_evictor_ = false;

  // Dense slab over the whole pool; larges_[id].resident marks the pages this group holds.
  std::vector<LargeEntry> larges_;
  std::unordered_map<RequestId, std::vector<FreeRef>> empty_by_request_;
  // One-entry cache over empty_by_request_ (see RefsFor); kNoRequest/nullptr when invalid.
  RequestId refs_cache_key_ = kNoRequest;
  std::vector<FreeRef>* refs_cache_ = nullptr;
  std::vector<FreeRef> empty_any_;
  Evictor evictor_;
  CacheIndex cache_index_;

  uint64_t next_epoch_ = 1;
  int64_t resident_larges_ = 0;
  int64_t used_count_ = 0;
  int64_t evictable_count_ = 0;
  int64_t empty_count_ = 0;
  int64_t by_request_refs_ = 0;  // Total FreeRefs across empty_by_request_, stale included.
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_SMALL_PAGE_ALLOCATOR_H_

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
// Pages are claimed and released in runs (AllocateN, ReleaseN) with exactly the placement,
// events and later pop order of the per-page calls; the runs only skip free-list pushes whose
// refs would go stale before any pop could see them.
//
// The allocator also maintains the group's prefix-cache index (block hash → resident page)
// and implements GroupCacheOps so the layer policies can adjust eviction priorities.
//
// Page metadata lives in two flat arrays over the whole pool, so Meta()/Entry() are array
// lookups rather than hash probes or pointer chases:
//   - larges_, indexed by LargePageId (large-page ids are pool indices): a 12-byte entry of
//     residency and per-large counters;
//   - slab_, indexed by SmallPageId (large × pages_per_large + slot): one SlotMeta per small
//     page of the pool.
// The slab is committed only where the group holds a large page: it is allocated without
// initialization, a large page's slots are written when the group acquires it, a grow past
// its capacity copies only resident ranges, and no slot of a non-resident large page is ever
// read.
// Page → large page and slot is a multiply by a per-group reciprocal (PageDivider), never a
// division; the constructor and every resize check that each page id of the pool divides
// exactly.

#ifndef JENGA_SRC_CORE_SMALL_PAGE_ALLOCATOR_H_
#define JENGA_SRC_CORE_SMALL_PAGE_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
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

// page / pages_per_large and page % pages_per_large without a division: the large page is
// (page × m) >> s with s = 32 + ⌊log2 pages_per_large⌋ and m = ⌈2^s / pages_per_large⌉ ≤ 2^32,
// so a one-slot group's m = 2^32 makes it the identity. With the rounding excess
// e = m × pages_per_large − 2^s < pages_per_large, the quotient is exact for every page id p
// with p × e < 2^s, which holds for every p below 2^31. limit() is the first id past the
// exact range, capped at 2^32 (which keeps p × m within 64 bits) and at the ids whose large
// page fits a LargePageId.
class PageDivider {
 public:
  explicit PageDivider(int pages_per_large);

  [[nodiscard]] LargePageId Large(SmallPageId page) const {
    return static_cast<LargePageId>((static_cast<uint64_t>(page) * magic_) >> shift_);
  }
  [[nodiscard]] int Slot(SmallPageId page) const {
    return static_cast<int>(page - static_cast<SmallPageId>(Large(page)) * pages_per_large_);
  }
  // Number of page ids, counted from 0, that Large and Slot map exactly.
  [[nodiscard]] uint64_t limit() const { return limit_; }

 private:
  uint64_t magic_ = 0;
  uint64_t limit_ = 0;
  int shift_ = 0;
  int pages_per_large_ = 0;
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
  // identical to `n` consecutive Allocate calls. When step 2 hands over a fresh large page it
  // claims slot 0 and then slots n−1, n−2, … for the rest of the run — the pages the next
  // step-1 pops would return — and pushes only the slots left over. All-or-nothing — on
  // exhaustion every page this call took is released again (one ReleaseN, keep_cached=false,
  // reverse order), `*out` is restored, and false is returned. The single rollback path
  // spares callers from tracking partial progress per group.
  [[nodiscard]] bool AllocateN(RequestId request, int64_t n, Tick now,
                               std::vector<SmallPageId>* out);

  // Empty pages step 1 would hand `request` before anything else: the valid refs of its
  // affinity list, counted newest first and no further than `cap`. Reads nothing else.
  [[nodiscard]] int64_t AffinityEmpties(RequestId request, int64_t cap) const;

  // Leaves this group as a claim walk for `request` that fails leaves it, without running the
  // walk. KvManager calls it only when the walk cannot reclaim or evict; then the walk's one
  // visible effect here is on the empty pages it popped. Pops what steps 1 and 4 would pop —
  // `own` refs off `request`'s list, then `any` off the any-list — and re-empties those pages
  // as the rollback's ReleaseN would, newest first: a new epoch, `request` as their
  // association and last access `now`, their refs pushed to `request`'s list and to the
  // any-list. With a sink attached each page emits the walk's OnPageClaimed/OnPageEmptied
  // pair. The walk's fresh large pages need nothing: the rollback frees them in reverse, so
  // the LCM's LIFO free list hands pages out in the same order again.
  void SettleFailedClaim(RequestId request, int64_t own, int64_t any, Tick now);

  // Takes an additional reference on a resident cached page (prefix-cache hit). The page may
  // currently be evictable (revived) or used (shared with another request).
  void AddRef(SmallPageId page);

  // Drops one reference. When the count reaches zero the page becomes evictable if
  // `keep_cached` and it holds indexed-or-indexable content, and empty otherwise. Fully-empty
  // large pages are returned to the LCM allocator immediately.
  void Release(SmallPageId page, bool keep_cached) {
    ReleaseN(std::span<const SmallPageId>(&page, 1), keep_cached);
  }

  // Releases `pages` in order, each as Release(page, keep_cached); kNoSmallPage entries
  // (block-table holes) are skipped. The pages at positions below `touched` first get
  // UpdateLastAccess(page, touch_tick): the deferred last-access refresh of a request's
  // block table, fused into the same pass. Events, LCM frees and reclaim notifications are
  // those of the per-page loop, in its order. The free-list pushes are buffered and flushed
  // once at the end — minus the refs whose large page went back to the LCM whole meanwhile —
  // followed by one compaction check; nothing pops in between, so every later pop sees the
  // per-page loop's sequence.
  void ReleaseN(std::span<const SmallPageId> pages, bool keep_cached, Tick touch_tick = 0,
                int64_t touched = 0);

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
  // Fires OnRequestForgotten only when the list still held a valid ref.
  void ForgetRequest(RequestId request);

  // Resizes the metadata arrays after the LCM pool grew or shrank (elastic governor); a slab
  // that must grow copies only the resident large pages' slots. Shrink requires every removed large page to be
  // non-resident in this group (the caller drains them first); stale FreeRefs into removed
  // pages are filtered lazily by the same bounds/residency/epoch checks that guard releases.
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

 private:
  friend class AllocatorAuditor;  // CheckState re-derives this allocator's invariants.
  friend struct AllocatorStateTestPeer;

  // No default member initializers: the slab is allocated uninitialized, and a slot is
  // written whole when its large page is acquired.
  struct SlotMeta {
    PageState state;
    RequestId assoc;
    int32_t ref_count;
    Tick last_access;
    int64_t prefix_length;
    uint64_t epoch;
    bool has_hash;
    // True when the prefix-cache index maps `hash` to this page (the page owns the entry).
    // Only an owner's release needs no index probe and only an owner's unregister erases.
    bool indexed;
    BlockHash hash;
  };
  // The ownership bit sits in has_hash's padding: a slot stays one cache line.
  static_assert(sizeof(SlotMeta) == 64);
  static_assert(std::is_trivially_default_constructible_v<SlotMeta>);

  struct LargeEntry {
    int32_t used_count = 0;
    int32_t evictable_count = 0;
    bool resident = false;
  };
  static_assert(sizeof(LargeEntry) == 12);

  // An entry in the lazy free lists; valid only while the slot's epoch is unchanged.
  struct FreeRef {
    SmallPageId page = kNoSmallPage;
    uint64_t epoch = 0;
  };

  // Exact only for pages of the pool (page < num_pages_).
  [[nodiscard]] LargePageId LargeOf(SmallPageId page) const { return divider_.Large(page); }
  [[nodiscard]] int SlotOf(SmallPageId page) const { return divider_.Slot(page); }
  [[nodiscard]] bool IsResident(LargePageId large) const {
    return large >= 0 && static_cast<size_t>(large) < larges_.size() &&
           larges_[static_cast<size_t>(large)].resident;
  }
  // A page of the pool whose large page this group holds: its slot may be read.
  [[nodiscard]] bool IsResidentPage(SmallPageId page) const {
    return static_cast<uint64_t>(page) < num_pages_ &&
           larges_[static_cast<size_t>(LargeOf(page))].resident;
  }
  // Sizes the metadata arrays for a pool of `num_larges` large pages, keeping the resident
  // slots; checks first that every page id of that pool divides exactly.
  void ResizeSlab(int32_t num_larges);
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

  // One pass of the five-step algorithm for `request`: claims one page, or — when step 2
  // hands over a fresh large page — up to `run` of its slots (slot 0, then n−1, n−2, …).
  // Passes each claimed page to `emit` in claim order and returns how many were claimed;
  // 0 when the group is out of memory. Allocate is a pass with run = 1.
  template <typename Emit>
  int64_t ClaimPass(RequestId request, int64_t run, Tick now, Emit emit);
  // empty → used for `request`.
  void ClaimEmpty(SmallPageId page, RequestId request, Tick now);
  // evictable/used(ref 0) → empty; may return the large page to the LCM allocator. The new
  // empty page's free-list ref is buffered in released_refs_ until ReleaseN's flush.
  void TransitionToEmpty(SmallPageId page);
  // Pops the refs into `large`, just returned to the LCM, off the tails of the any-list and
  // of `request`'s list. Pops skip stale refs anyway, so no pop changes; the refs a fresh
  // large page's leftover slots or an earlier release left there never reach a sweep.
  void DropStaleTails(LargePageId large, RequestId request);
  // Pushes the refs buffered in released_refs_ whose large page is still resident onto their
  // association's list and the any-list, in buffer order, then checks for compaction.
  void FlushReleasedRefs();
  // Drops the page's hash, erasing its index entry if the page owns it. `evicted` marks a
  // capacity eviction, whose OnHashUnindexed event carries the destroyed page.
  void UnregisterHash(SmallPageId page, SlotMeta& meta, bool evicted = false);
  void NotifyCandidateIfEligible(LargePageId large);
  void ReleaseLarge(LargePageId large, LargeEntry& entry);

  int group_index_;
  KvGroupSpec spec_;
  LcmAllocator* lcm_;
  LargePageProvider* provider_;
  const std::vector<AuditSink*>* audit_ = nullptr;
  int pages_per_large_;
  // False in one-slot groups, whose evictor stays empty: step 5 can never pick a victim there
  // (see the header comment), so Insert/Remove/rekey upkeep is skipped.
  bool uses_evictor_;
  PageDivider divider_;
  // Dense arrays over the whole pool (see the header comment); larges_[id].resident marks the
  // large pages this group holds, and only their slab_ slots are initialized.
  std::vector<LargeEntry> larges_;
  std::unique_ptr<SlotMeta[]> slab_;
  uint64_t num_pages_ = 0;  // larges_.size() × pages_per_large_: the pool's page ids.
  uint64_t slab_capacity_ = 0;  // Slots slab_ holds, at least num_pages_.
  std::unordered_map<RequestId, std::vector<FreeRef>> empty_by_request_;
  // One-entry cache over empty_by_request_ (see RefsFor); kNoRequest/nullptr when invalid.
  RequestId refs_cache_key_ = kNoRequest;
  std::vector<FreeRef>* refs_cache_ = nullptr;
  std::vector<FreeRef> empty_any_;
  // A free-list push of the ReleaseN in progress, kept as (large page, slot) so the flush
  // tests residency without dividing by pages_per_large_.
  struct ReleasedRef {
    LargePageId large = kNoLargePage;
    int32_t slot = 0;
    uint64_t epoch = 0;
  };
  // Empty between calls; capacity reused. SettleFailedClaim buffers its pushes here too.
  std::vector<ReleasedRef> released_refs_;
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

// The allocator event interface. An AuditSink observes every state transition in
// SmallPageAllocator / Evictor / JengaAllocator / HostPool and every prefix-index insert and
// erase. Every consumer subscribes through it: the auditor (src/audit) keeps shadow state and
// cross-checks it against a full re-derivation, the host offload tier parks capacity
// evictions, and the cluster prefix index mirrors each replica's indexed hashes.
//
// JengaAllocator and HostPool each own an AuditSinkList; a JengaAllocator's group allocators
// and evictors emit through a pointer to their owner's list. Attach order is delivery order:
// every event reaches the attached sinks one after another, in the order they were
// attached. Detached is the default and costs one null-pointer test per transition — no
// virtual call, no allocation, no behavior change. The hooks are observation-only:
// subscribers must not call back into the allocator. Lives in core so the emitting classes
// need not depend on any subscriber.

#ifndef JENGA_SRC_CORE_AUDIT_EVENTS_H_
#define JENGA_SRC_CORE_AUDIT_EVENTS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/core/types.h"

namespace jenga {

// What a capacity eviction destroyed: enough for the host tier to park the page.
struct CacheEviction {
  int64_t page_bytes = 0;
  int64_t prefix_length = 0;
  Tick last_access = 0;
};

class AuditSink {
 public:
  virtual ~AuditSink() = default;

  // --- SmallPageAllocator transitions (group = emitting group allocator's index) ---

  // A large page became resident in `group`; all its slots start empty, associated with
  // `request` (§4.3 affinity seeding). Fires before the first slot is claimed.
  virtual void OnLargeAcquired(int /*group*/, LargePageId /*large*/, RequestId /*request*/) {}
  // A fully-empty large page was returned to the LCM allocator.
  virtual void OnLargeReleased(int /*group*/, LargePageId /*large*/) {}
  // empty → used (steps 1/2/4 of §5.4, or step 5 right after OnPageEvicted).
  virtual void OnPageClaimed(int /*group*/, SmallPageId /*page*/, RequestId /*request*/) {}
  // evictable → used (prefix-cache hit revived the page).
  virtual void OnPageRevived(int /*group*/, SmallPageId /*page*/) {}
  // used → evictable (released with indexed content).
  virtual void OnPageCached(int /*group*/, SmallPageId /*page*/, BlockHash /*hash*/) {}
  // used/evictable → empty (content declared obsolete by its owner).
  virtual void OnPageEmptied(int /*group*/, SmallPageId /*page*/) {}
  // evictable → empty under capacity pressure (step-5 victim or large-page reclaim); the
  // cached content was destroyed (its OnHashUnindexed payload let the host tier park it).
  virtual void OnPageEvicted(int /*group*/, SmallPageId /*page*/) {}
  // The request's affinity free list was dropped (request id retired).
  virtual void OnRequestForgotten(int /*group*/, RequestId /*request*/) {}
  // An AllocateN call completed: `count` pages were claimed for `request` in one pass, each
  // already announced through the per-page events above (claims, acquisitions, evictions) in
  // exactly the order `count` single Allocate calls would have produced. Lets the auditor
  // cross-check the bulk path against its per-page shadow state.
  virtual void OnBulkAllocate(int /*group*/, RequestId /*request*/, int64_t /*count*/) {}

  // --- Prefix-cache index membership (one event per key insert / erase) ---
  //
  // A subscriber that keeps a set from these two events holds exactly the hashes LookupCached
  // would find.

  // `hash` entered the group's index (SetContentHash, or Release with keep_cached).
  virtual void OnHashIndexed(int /*group*/, BlockHash /*hash*/) {}
  // `hash` left the group's index. `evicted` is non-null only for capacity eviction (a
  // step-5 victim or a large-page reclaim; fires just before OnPageEvicted) and describes
  // the destroyed page. Null for a recompute re-hash and for content its owner declared
  // obsolete (Release with keep_cached=false), which is not an eviction.
  virtual void OnHashUnindexed(int /*group*/, BlockHash /*hash*/,
                               const CacheEviction* /*evicted*/) {}

  // --- Evictor transitions ---

  virtual void OnEvictorInsert(int /*group*/, SmallPageId /*page*/, Tick /*last_access*/, int64_t /*prefix_length*/) {}
  virtual void OnEvictorRemove(int /*group*/, SmallPageId /*page*/) {}
  virtual void OnEvictorRekey(int /*group*/, SmallPageId /*page*/, Tick /*last_access*/, int64_t /*prefix_length*/) {}
  virtual void OnEvictorPop(int /*group*/, SmallPageId /*page*/) {}

  // --- JengaAllocator (global coordination) ---

  // A whole-evictable large page's reclaim-heap entry was placed, or re-keyed in place to a
  // newer timestamp (the heap holds at most one entry per large page).
  virtual void OnReclaimPushed(int /*group*/, LargePageId /*large*/, Tick /*timestamp*/) {}
  // Step 3 of §5.4 chose this large page as the global reclaim victim.
  virtual void OnLargeReclaimed(int /*group*/, LargePageId /*large*/) {}

  // The LCM pool was resized in place (elastic governor grow/shrink): the page id space is
  // now [0, new_num_pages). Every removed page was free when this fires, so shadow
  // conservation only needs to re-base the pool extent.
  virtual void OnPoolResized(int32_t /*new_num_pages*/) {}

  // --- HostPool (offload tier; keys mirror HostPool's) ---

  virtual void OnHostSetStored(RequestId /*id*/, int64_t /*bytes*/) {}
  // evicted=true → LRU capacity eviction; false → explicit erase (swap-in, drop, replace).
  virtual void OnHostSetRemoved(RequestId /*id*/, int64_t /*bytes*/, bool /*evicted*/) {}
  virtual void OnHostPageStored(int /*manager*/, int /*group*/, BlockHash /*hash*/, int64_t /*bytes*/) {}
  // evicted=true → LRU capacity eviction; false → explicit erase (promotion, replace).
  virtual void OnHostPageRemoved(int /*manager*/, int /*group*/, BlockHash /*hash*/, int64_t /*bytes*/, bool /*evicted*/) {}
};

// The sinks attached to one emitter, in attach order.
class AuditSinkList {
 public:
  // Appends `sink`, which must not be attached already.
  void Add(AuditSink* sink) {
    JENGA_CHECK(sink != nullptr);
    JENGA_CHECK(std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end())
        << "audit sink attached twice";
    sinks_.push_back(sink);
  }
  // Detaches `sink`, which must be attached; the others keep their order.
  void Remove(AuditSink* sink) {
    const auto it = std::find(sinks_.begin(), sinks_.end(), sink);
    JENGA_CHECK(it != sinks_.end()) << "audit sink not attached";
    sinks_.erase(it);
  }
  // What JENGA_AUDIT_HOOK takes: null while no sink is attached.
  [[nodiscard]] const std::vector<AuditSink*>* get() const {
    return sinks_.empty() ? nullptr : &sinks_;
  }

 private:
  std::vector<AuditSink*> sinks_;
};

}  // namespace jenga

// Delivers `call` to every sink of `sinks` (an AuditSinkList::get() value) in attach order.
// The detached (null) case is the hot one — most runs attach nothing — so the taken branch
// is marked [[unlikely]] to keep the delivery loop out of the fall-through instruction
// stream.
#define JENGA_AUDIT_HOOK(sinks, call)                      \
  do {                                                     \
    if ((sinks) != nullptr) [[unlikely]] {                 \
      for (::jenga::AuditSink* audit_sink_ : *(sinks)) {   \
        audit_sink_->call;                                 \
      }                                                    \
    }                                                      \
  } while (false)

#endif  // JENGA_SRC_CORE_AUDIT_EVENTS_H_

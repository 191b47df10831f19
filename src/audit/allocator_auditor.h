// AllocatorAuditor: a whole-stack invariant checker for the two-tier memory manager.
//
// It attaches to one or more JengaAllocators (and optionally a SwapManager) through the
// AuditSink event hooks, maintains an independent *shadow* copy of the observable state
// (page lifecycle per group, evictor keys, host-pool contents), and on demand re-derives the
// allocators' global state from first principles to check:
//
//   - every small page belongs to exactly one live large page of its group, and every
//     resident large page is owned by that group in the LCM allocator;
//   - per-group used/evictable/empty counts (per large page and in total) sum to the pool,
//     and the byte breakdown conserves (allocated == used + evictable + empty);
//   - affinity free lists hold only refs whose (live) slot is empty and associated with the
//     list's request, and the stale-inclusive ref accounting matches;
//   - the evictor's authoritative key map equals a ground-truth rebuild from the slot
//     metadata (the evictable pages, or none in a one-slot group), its lazy heap is empty
//     until built and then covers every live key and satisfies the heap property, and the
//     shadow (event-derived) copy agrees —
//     so an UpdateLastAccess/SetPrefixLength that skipped the evictor (or vice versa) is
//     caught;
//   - the global reclaim queue keeps its runs in ascending timestamp order and a sorted run
//     in key order from its cursor, holds exactly one live entry per queued large page and
//     stays within its compaction bound, and every whole-evictable large page is
//     represented under its owning group with a timestamp no newer than its current one
//     (lazy re-key contract);
//   - the prefix-cache index maps each hash to a resident page carrying that hash, and every
//     evictable page is reachable through it; a page's ownership bit is set exactly when the
//     index maps its hash to it;
//   - host-pool byte accounting equals the sum of parked swap sets and cache pages, the LRU
//     index is a bijection onto the entries, and the event-derived shadow of the host pool
//     matches exactly. Promotions therefore provably erase the host copy — the "GPU-resident
//     and still promoted" failure mode shows up as a shadow/actual mismatch. (A host copy
//     MAY legally coexist with a GPU page of the same hash when a request *recomputed* the
//     block after its eviction; promotion is the only path that must erase.)
//
// CheckState re-derives every clause above but the shadow and host ones from one allocator's
// state alone; it is the one allocator invariant checker. Neither it nor Audit() aborts: both
// return the list of violations so harnesses (the engine fuzzer) can print a reproducible
// schedule instead of dying mid-run. Shadow-state machine violations detected at event time
// (e.g. a page claimed while not empty) are buffered and reported by the next Audit() call.
//
// The auditor is strictly an observer — it never mutates the audited structures. It is one
// subscriber among any others attached to the same allocator; detaching removes only its own.

#ifndef JENGA_SRC_AUDIT_ALLOCATOR_AUDITOR_H_
#define JENGA_SRC_AUDIT_ALLOCATOR_AUDITOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/audit_events.h"
#include "src/core/jenga_allocator.h"
#include "src/core/types.h"
#include "src/offload/swap_manager.h"

namespace jenga {

class AllocatorAuditor {
 public:
  AllocatorAuditor();
  ~AllocatorAuditor();

  AllocatorAuditor(const AllocatorAuditor&) = delete;
  AllocatorAuditor& operator=(const AllocatorAuditor&) = delete;

  // Installs audit sinks and seeds the shadow from the allocator's current state. May be
  // called several times (speculative decoding runs one allocator per KvManager).
  void AttachAllocator(JengaAllocator* alloc);
  // Installs the host-pool sink and seeds the host shadow. At most one swap manager.
  void AttachSwapManager(SwapManager* swap);
  // Uninstalls every sink and clears all shadow state.
  void DetachAll();

  // Returns every invariant `alloc`'s state breaks (empty = consistent). Needs no attached
  // auditor; O(pool).
  [[nodiscard]] static std::vector<std::string> CheckState(const JengaAllocator& alloc);
  // The per-group clauses of the above; also serves a group built over its own LCM allocator.
  [[nodiscard]] static std::vector<std::string> CheckState(const SmallPageAllocator& group);

  // CheckState on every attached allocator, then the shadow copies. Returns all violations
  // found (empty = green), including buffered event-time violations.
  [[nodiscard]] std::vector<std::string> Audit() const;

  // Convenience: first violation, or nullopt when everything is green.
  [[nodiscard]] std::optional<std::string> FirstViolation() const;

  // Negative control for tests: corrupts one entry of the shadow state (a slot's lifecycle
  // state if any slot is tracked, otherwise the host byte counter) so the next Audit() must
  // report a shadow/actual divergence. Verifies the detection machinery is actually wired.
  void InjectShadowFaultForTest();

  [[nodiscard]] int64_t events_observed() const { return events_observed_; }
  [[nodiscard]] int num_attached_allocators() const { return static_cast<int>(allocs_.size()); }

 private:
  struct Tap;      // AuditSink adapter tagging allocator events with the allocator index.
  struct HostTap;  // AuditSink adapter for host-pool events.

  struct ShadowSlot {
    PageState state = PageState::kEmpty;
    RequestId assoc = kNoRequest;
  };
  struct ShadowGroup {
    std::unordered_map<SmallPageId, ShadowSlot> slots;  // All slots of resident larges.
    std::unordered_map<SmallPageId, std::pair<Tick, int64_t>> evictor;  // page → key.
    std::unordered_set<LargePageId> resident;
  };
  struct AllocState {
    JengaAllocator* alloc = nullptr;
    std::unique_ptr<Tap> tap;
    std::vector<ShadowGroup> groups;
  };
  struct HostShadow {
    SwapManager* swap = nullptr;
    std::unique_ptr<HostTap> tap;
    std::unordered_map<RequestId, int64_t> sets;                        // id → bytes.
    std::map<std::tuple<int, int, BlockHash>, int64_t> pages;           // key → bytes.
    int64_t bytes = 0;
    int64_t pages_stored = 0;
    int64_t pages_removed_explicit = 0;  // Promotions + replacements.
  };

  // Event handlers (called by the taps; record violations instead of aborting).
  void HandleLargeAcquired(size_t a, int g, LargePageId large, RequestId request);
  void HandleLargeReleased(size_t a, int g, LargePageId large);
  void HandlePageClaimed(size_t a, int g, SmallPageId page, RequestId request);
  void HandleBulkAllocate(size_t a, int g, RequestId request, int64_t count);
  void HandlePageRevived(size_t a, int g, SmallPageId page);
  void HandlePageCached(size_t a, int g, SmallPageId page);
  void HandlePageEmptied(size_t a, int g, SmallPageId page);
  void HandlePageEvicted(size_t a, int g, SmallPageId page);
  void HandleEvictorInsert(size_t a, int g, SmallPageId page, Tick last_access,
                           int64_t prefix_length);
  void HandleEvictorRemove(size_t a, int g, SmallPageId page);
  void HandleEvictorRekey(size_t a, int g, SmallPageId page, Tick last_access,
                          int64_t prefix_length);
  void HandleEvictorPop(size_t a, int g, SmallPageId page);
  void HandlePoolResized(size_t a, int32_t new_num_pages);
  void HandleHostSetStored(RequestId id, int64_t bytes);
  void HandleHostSetRemoved(RequestId id, int64_t bytes, bool evicted);
  void HandleHostPageStored(int manager, int group, BlockHash hash, int64_t bytes);
  void HandleHostPageRemoved(int manager, int group, BlockHash hash, int64_t bytes,
                             bool evicted);

  [[nodiscard]] ShadowGroup& Shadow(size_t a, int g);
  [[nodiscard]] ShadowSlot* FindSlot(size_t a, int g, SmallPageId page, const char* event);
  void EventError(std::string message);

  // Passes of CheckState and Audit (append violations to `out`).
  static void CheckReclaimQueue(const JengaAllocator& alloc, std::vector<std::string>* out);
  void CompareShadow(size_t a, int g, std::vector<std::string>* out) const;
  void AuditHost(std::vector<std::string>* out) const;

  void SeedAllocatorShadow(AllocState* state);
  void SeedHostShadow();

  std::vector<std::unique_ptr<AllocState>> allocs_;
  HostShadow host_;
  // Violations caught at event time; drained into the next Audit() result.
  std::vector<std::string> event_errors_;
  int64_t events_observed_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_AUDIT_ALLOCATOR_AUDITOR_H_

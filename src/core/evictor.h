// Per-group eviction queue. Orders evictable small pages by (last_access ascending,
// prefix_length descending): LRU for balance across requests (§5.1), with the paper's
// prefix-length tie-break so that, among pages last touched at the same time, the deepest
// token is evicted first — keeping evicted sets aligned across layer types.
//
// Implementation: a lazy-deletion binary heap. Remove and rekey tombstone the old heap entry
// (the authoritative key lives in `keys_`); PopVictim/PeekOldestAccess discard stale entries
// on the way down. This turns the per-token UpdateLastAccess/SetPrefixLength rekeys from
// O(log n) node-allocating tree operations into O(log n) in-place heap pushes, and keeps the
// victim order bit-identical to the ordered-set formulation: a heap entry is honored only
// when it equals the page's current key, so the popped sequence is exactly the ascending
// (last_access, -prefix_length, page) order over live keys.
//
// `keys_` is a dense vector indexed by page id (small-page ids are dense pool indices), so
// the liveness test on every heap entry is an array read, not a hash probe.
//
// The heap is built at the first PopVictim or PeekOldestAccess that finds a page present;
// until then Insert, Remove and rekeys write `keys_` only. Most groups never reach step 5,
// so they never pay a heap push. The pop order is the total order on live keys, so when the
// heap was built cannot show.

#ifndef JENGA_SRC_CORE_EVICTOR_H_
#define JENGA_SRC_CORE_EVICTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/audit_events.h"
#include "src/core/types.h"

namespace jenga {

class Evictor {
 public:
  // Adds `page` to the queue with the given priority; the page must not already be present.
  void Insert(SmallPageId page, Tick last_access, int64_t prefix_length);

  // Removes `page` (it became used or empty). No-op if absent.
  void Remove(SmallPageId page);

  // Re-keys `page` in place if present; no-op otherwise (metadata for used pages is kept by
  // the small-page allocator and applied on insertion).
  void UpdateLastAccess(SmallPageId page, Tick last_access);
  void SetPrefixLength(SmallPageId page, int64_t prefix_length);

  // Pops the eviction victim: earliest last_access, then longest prefix_length, then lowest
  // page id (for determinism).
  [[nodiscard]] std::optional<SmallPageId> PopVictim();

  [[nodiscard]] bool Contains(SmallPageId page) const {
    return page >= 0 && static_cast<size_t>(page) < keys_.size() &&
           keys_[static_cast<size_t>(page)].page == page;
  }
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Priority of the page that PopVictim would return, without popping.
  [[nodiscard]] std::optional<Tick> PeekOldestAccess() const;

  // Heap entries including tombstones; bounded at O(size()) by compaction, and 0 until the
  // heap is built (test/bench only).
  [[nodiscard]] size_t heap_entries() const { return heap_.size(); }

  // Event subscribers (an AuditSinkList::get() value); `group` tags this queue's events.
  void set_audit_sinks(const std::vector<AuditSink*>* sinks, int group) {
    audit_ = sinks;
    audit_group_ = group;
  }

 private:
  friend class AllocatorAuditor;
  friend struct AllocatorStateTestPeer;
  struct Key {
    Tick last_access;
    int64_t neg_prefix_length;  // negated so larger prefixes sort first.
    SmallPageId page;           // kNoSmallPage in an absent keys_ slot.
    auto operator<=>(const Key&) const = default;
  };

  // A heap entry is live iff it matches the page's current key; everything else is a
  // tombstone left behind by Remove/rekey. Every heap entry's page indexes into keys_.
  [[nodiscard]] bool IsLive(const Key& key) const {
    return keys_[static_cast<size_t>(key.page)] == key;
  }
  // Pushes `key` once the heap is built; before that, `keys_` alone records it.
  void Push(Key key);
  // Applies a changed key to a present page: records it and pushes the new heap entry.
  void Rekey(Key& slot, const Key& key);
  // Builds the heap if need be, then discards stale entries from its top (const: neither is
  // observable).
  void PrepareTop() const;
  // Filters the heap down to one entry per live key when tombstones dominate.
  void MaybeCompact();

  // Min-heap over Key (ascending order through std::greater); empty until `built_`.
  mutable std::vector<Key> heap_;
  mutable bool built_ = false;
  // Current key of every present page, indexed by page id; absent slots hold page ==
  // kNoSmallPage. Grows to the largest page id ever inserted (bounded by the pool).
  std::vector<Key> keys_;
  size_t size_ = 0;
  const std::vector<AuditSink*>* audit_ = nullptr;
  int audit_group_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_EVICTOR_H_

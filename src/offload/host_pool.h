// Host-memory tier below the GPU KV pool: a byte-accounted store with its own capacity and
// deterministic LRU. It holds two kinds of entries that compete for the same bytes:
//
//   - swap sets: the swappable pages of one preempted request, keyed by RequestId. The pages
//     themselves are simulated — the payload records how many tokens/bytes the set covers and
//     per-manager content fingerprints so a swap-in can prove the round trip is bit-identical.
//   - cache pages: individual evicted prefix-cache pages (second-chance path), keyed by
//     (manager, group, block hash).
//
// LRU order is a monotonic insertion/touch sequence number, so eviction order is a pure
// function of the call sequence — no wall-clock anywhere (engine determinism).

#ifndef JENGA_SRC_OFFLOAD_HOST_POOL_H_
#define JENGA_SRC_OFFLOAD_HOST_POOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/core/audit_events.h"
#include "src/core/types.h"
#include "src/fault/fault_injector.h"

namespace jenga {

// A preempted request's swapped-out footprint.
struct HostSwapSet {
  int64_t bytes = 0;   // Swap-eligible bytes resident in the host pool.
  int64_t tokens = 0;  // Computed tokens the set restores (num_computed_tokens at swap-out).
  int64_t resident_bytes = 0;        // All-group GPU-resident bytes at swap-out.
  int64_t drop_recompute_bytes = 0;  // Ineligible-group bytes recomputed on restore.
  // One fingerprint per KvManager (hash of per-group chains + block-table shape).
  std::vector<uint64_t> fingerprints;
};

// One evicted prefix-cache page parked in host memory.
struct HostCachePage {
  int64_t bytes = 0;
  int64_t prefix_length = 0;  // Eviction priority it carried on the GPU.
  Tick evicted_at = 0;
};

class HostPool {
 public:
  struct PageKey {
    int32_t manager = 0;
    int32_t group = 0;
    BlockHash hash = 0;
    bool operator==(const PageKey&) const = default;
  };

  explicit HostPool(int64_t capacity_bytes);

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  // Inserts (or replaces) an entry, evicting LRU entries until it fits. Returns false — and
  // stores nothing — when the entry alone exceeds capacity.
  bool PutSwapSet(RequestId id, HostSwapSet set);
  bool PutPage(const PageKey& key, HostCachePage page);

  [[nodiscard]] const HostSwapSet* FindSwapSet(RequestId id) const;
  [[nodiscard]] const HostCachePage* FindPage(const PageKey& key) const;

  // Explicit removal (swap-in consumed the set / a page was promoted back to the GPU).
  // Returns false when the entry was already gone (e.g. LRU-evicted under pressure).
  bool EraseSwapSet(RequestId id);
  bool ErasePage(const PageKey& key);

  // Memory-pressure spike: shrinks capacity and LRU-evicts overflow through the audited
  // eviction path. Shrinking to 0 empties the pool.
  void ForceShrink(int64_t new_capacity_bytes);

  // Drops every entry through the audited (non-eviction) removal path; used when the engine
  // degrades to GPU-only mode and the tier detaches.
  void Clear();

  [[nodiscard]] int64_t capacity_bytes() const { return capacity_bytes_; }
  [[nodiscard]] int64_t used_bytes() const { return used_bytes_; }
  [[nodiscard]] int64_t num_sets() const { return static_cast<int64_t>(sets_.size()); }
  [[nodiscard]] int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }

  // Cumulative capacity-pressure evictions (not explicit erases).
  [[nodiscard]] int64_t sets_evicted() const { return sets_evicted_; }
  [[nodiscard]] int64_t pages_evicted() const { return pages_evicted_; }
  [[nodiscard]] int64_t bytes_evicted() const { return bytes_evicted_; }
  [[nodiscard]] int64_t rejected_inserts() const { return rejected_inserts_; }
  // Inserts rejected by an injected kHostPoolAlloc fault (subset of rejected_inserts()).
  [[nodiscard]] int64_t injected_failures() const { return injected_failures_; }

  // Subscribers to every insert/erase/LRU-eviction.
  AuditSinkList& audit_sinks() { return audit_; }

  // Fault injection (nullptr = disabled). Consulted at the top of every Put*, before any
  // state is touched, so a fired fault leaves the pool exactly as it was.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

 private:
  friend class AllocatorAuditor;
  struct PageKeyHash {
    size_t operator()(const PageKey& key) const {
      uint64_t h = key.hash;
      h ^= (static_cast<uint64_t>(static_cast<uint32_t>(key.manager)) << 32 |
            static_cast<uint32_t>(key.group)) +
           0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct SetEntry {
    HostSwapSet set;
    uint64_t seq = 0;
  };
  struct PageEntry {
    HostCachePage page;
    uint64_t seq = 0;
  };
  // LRU index: seq → which map owns the entry. std::map gives ordered (oldest-first) walks.
  struct LruRef {
    bool is_set = false;
    RequestId id = kNoRequest;
    PageKey key;
  };

  // Evicts oldest entries until `incoming` more bytes fit. Never touches `keep_*` (the entry
  // being inserted/replaced was already unlinked by the caller).
  void MakeRoom(int64_t incoming);
  void Unlink(uint64_t seq);

  int64_t capacity_bytes_ = 0;
  int64_t used_bytes_ = 0;
  uint64_t next_seq_ = 1;
  AuditSinkList audit_;
  FaultInjector* fault_ = nullptr;
  std::unordered_map<RequestId, SetEntry> sets_;
  std::unordered_map<PageKey, PageEntry, PageKeyHash> pages_;
  std::map<uint64_t, LruRef> lru_;

  int64_t sets_evicted_ = 0;
  int64_t pages_evicted_ = 0;
  int64_t bytes_evicted_ = 0;
  int64_t rejected_inserts_ = 0;
  int64_t injected_failures_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_OFFLOAD_HOST_POOL_H_

// A group allocator's prefix-cache index: block hash → the resident small page holding it.
//
// Open addressing with linear probing over a power-of-two slot array kept at most half full,
// and backward-shift deletion: an erase pulls later members of the probe run back into the
// hole instead of leaving a tombstone, so probe lengths depend only on the live load, never
// on how many inserts and erases came before. Lookups are one multiply and a short scan of
// contiguous 16-byte slots — no node allocation, no pointer chase.
//
// Nothing observable depends on slot order: callers only find, insert and erase by key, and
// ForEach exists for audits that check every entry independently.

#ifndef JENGA_SRC_CORE_CACHE_INDEX_H_
#define JENGA_SRC_CORE_CACHE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/types.h"

namespace jenga {

class CacheIndex {
 public:
  // Page holding `hash`, or kNoSmallPage when the hash is not indexed.
  [[nodiscard]] SmallPageId Find(BlockHash hash) const {
    if (size_ == 0) {
      return kNoSmallPage;
    }
    for (size_t i = HomeSlot(hash);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.page == kNoSmallPage) {
        return kNoSmallPage;
      }
      if (slot.hash == hash) {
        return slot.page;
      }
    }
  }

  // Maps `hash` to `page` unless `hash` is already indexed. Returns the page `hash` maps to
  // afterwards and whether this call inserted it.
  std::pair<SmallPageId, bool> Emplace(BlockHash hash, SmallPageId page) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    size_t i = HomeSlot(hash);
    for (; slots_[i].page != kNoSmallPage; i = (i + 1) & mask_) {
      if (slots_[i].hash == hash) {
        return {slots_[i].page, false};
      }
    }
    slots_[i] = Slot{hash, page};
    size_ += 1;
    return {page, true};
  }

  // Drops `hash` if it maps to `page`; returns whether it did.
  bool Erase(BlockHash hash, SmallPageId page) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = HomeSlot(hash);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].page == kNoSmallPage) {
        return false;
      }
      if (slots_[hole].hash == hash) {
        break;
      }
    }
    if (slots_[hole].page != page) {
      return false;
    }
    // Backward shift: walk the rest of the run and move each entry whose home does not lie
    // strictly between the hole and its current slot into the hole.
    for (size_t next = (hole + 1) & mask_; slots_[next].page != kNoSmallPage;
         next = (next + 1) & mask_) {
      const size_t home = HomeSlot(slots_[next].hash);
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole].page = kNoSmallPage;
    size_ -= 1;
    return true;
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] size_t capacity() const { return slots_.size(); }

  // Slot where a probe for `hash` starts (exposed so tests can force collisions). Only
  // meaningful once capacity() > 0.
  [[nodiscard]] size_t HomeSlot(BlockHash hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Calls fn(hash, page) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.page != kNoSmallPage) {
        fn(slot.hash, slot.page);
      }
    }
  }

 private:
  struct Slot {
    BlockHash hash = 0;
    SmallPageId page = kNoSmallPage;  // kNoSmallPage marks a free slot.
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) {
      shift_ -= 1;
    }
    for (const Slot& slot : old) {
      if (slot.page == kNoSmallPage) {
        continue;
      }
      size_t i = HomeSlot(slot.hash);
      while (slots_[i].page != kNoSmallPage) {
        i = (i + 1) & mask_;
      }
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 63;
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_CACHE_INDEX_H_

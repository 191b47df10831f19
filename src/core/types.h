// Shared identifier types for the two-level allocator.

#ifndef JENGA_SRC_CORE_TYPES_H_
#define JENGA_SRC_CORE_TYPES_H_

#include <cstdint>

namespace jenga {

// Logical time used for LRU ordering. The engine advances it once per scheduler step.
using Tick = int64_t;

// Identity of the request a page is associated with (request-aware allocation, §4.3).
using RequestId = int64_t;
inline constexpr RequestId kNoRequest = -1;

// Index of a large (LCM-sized) page within the KV pool.
using LargePageId = int32_t;
inline constexpr LargePageId kNoLargePage = -1;

// Index of a small page within one group's allocator. Encodes (large page, slot):
// id = large_page * pages_per_large + slot, so ids are stable while the large page is held.
using SmallPageId = int64_t;
inline constexpr SmallPageId kNoSmallPage = -1;

// Content hash identifying the token-block a cached page holds (prefix caching).
using BlockHash = uint64_t;

// Lifecycle of a small page (§5.4): empty (no valid KV, unused), evictable (valid cached KV,
// no user), used (referenced by at least one running request).
enum class PageState : uint8_t {
  kEmpty,
  kEvictable,
  kUsed,
};

[[nodiscard]] inline const char* PageStateName(PageState state) {
  switch (state) {
    case PageState::kEmpty:
      return "empty";
    case PageState::kEvictable:
      return "evictable";
    case PageState::kUsed:
      return "used";
  }
  return "unknown";
}

}  // namespace jenga

#endif  // JENGA_SRC_CORE_TYPES_H_

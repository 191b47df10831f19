// Test-only access to JengaAllocator's §5.4 reclaim queue: read its layout to tell where a
// placement went, and mutate it to seed the defects the AllocatorAuditor must report.

#ifndef JENGA_TESTS_CORE_RECLAIM_QUEUE_TEST_PEER_H_
#define JENGA_TESTS_CORE_RECLAIM_QUEUE_TEST_PEER_H_

#include <cstddef>
#include <cstdint>

#include "src/core/jenga_allocator.h"

namespace jenga {

struct ReclaimQueueTestPeer {
  // Where the newest placement of `large` landed.
  enum class Route {
    kRun,         // Appended to the newest run (or opened a newer one).
    kSideOlder,   // Side heap: older than the newest run.
    kSideSorted,  // Side heap: the newest run's timestamp, after popping had sorted that run.
  };
  static Route LastPlacement(const JengaAllocator& alloc, LargePageId large) {
    const auto& storage = alloc.reclaim_runs_storage_;
    if (!storage.empty() && JengaAllocator::ReclaimLarge(storage.back()) == large &&
        alloc.IsLiveReclaim(storage.back())) {
      return Route::kRun;
    }
    for (const auto& entry : alloc.reclaim_side_) {
      if (JengaAllocator::ReclaimLarge(entry) == large && alloc.IsLiveReclaim(entry)) {
        const bool has_run = alloc.reclaim_front_run_ < alloc.reclaim_runs_.size();
        return has_run && entry.timestamp == alloc.reclaim_runs_.back().timestamp
                   ? Route::kSideSorted
                   : Route::kSideOlder;
      }
    }
    return Route::kRun;
  }
  // Unconsumed entries (stale ones included) naming a large id at or above `first`.
  static int64_t EntriesAtOrAbove(const JengaAllocator& alloc, LargePageId first) {
    int64_t count = 0;
    const auto& storage = alloc.reclaim_runs_storage_;
    for (size_t i = alloc.reclaim_cursor_; i < storage.size(); ++i) {
      count += JengaAllocator::ReclaimLarge(storage[i]) >= first ? 1 : 0;
    }
    for (const auto& entry : alloc.reclaim_side_) {
      count += JengaAllocator::ReclaimLarge(entry) >= first ? 1 : 0;
    }
    return count;
  }

  // --- Raw access for seeded defects ---
  static auto& Storage(JengaAllocator& alloc) { return alloc.reclaim_runs_storage_; }
  static auto& Runs(JengaAllocator& alloc) { return alloc.reclaim_runs_; }
  static auto& Side(JengaAllocator& alloc) { return alloc.reclaim_side_; }
  static auto& Generation(JengaAllocator& alloc) { return alloc.reclaim_generation_; }
  static size_t& Live(JengaAllocator& alloc) { return alloc.reclaim_live_; }
  static size_t& Written(JengaAllocator& alloc) { return alloc.reclaim_written_; }
  static size_t Cursor(const JengaAllocator& alloc) { return alloc.reclaim_cursor_; }
  static bool FrontSorted(const JengaAllocator& alloc) { return alloc.reclaim_front_sorted_; }
  static uint64_t Key(int group, LargePageId large, uint32_t generation) {
    return JengaAllocator::PackReclaimKey(group, large, generation);
  }
  static LargePageId Large(const JengaAllocator& alloc, size_t storage_index) {
    return JengaAllocator::ReclaimLarge(alloc.reclaim_runs_storage_[storage_index]);
  }
  // A placement that skips the candidate check (queue operations stay well formed).
  static void Place(JengaAllocator& alloc, Tick timestamp, int group, LargePageId large) {
    alloc.PlaceReclaim(timestamp, group, large);
  }
};

}  // namespace jenga

#endif  // JENGA_TESTS_CORE_RECLAIM_QUEUE_TEST_PEER_H_

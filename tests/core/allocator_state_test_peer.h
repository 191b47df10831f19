// Test-only write access to a group allocator's page metadata, counters and evictor, and to
// the LCM allocator's owner table and free list, to seed the defects
// AllocatorAuditor::CheckState must report.

#ifndef JENGA_TESTS_CORE_ALLOCATOR_STATE_TEST_PEER_H_
#define JENGA_TESTS_CORE_ALLOCATOR_STATE_TEST_PEER_H_

#include <cstdint>
#include <vector>

#include "src/core/evictor.h"
#include "src/core/lcm_allocator.h"
#include "src/core/small_page_allocator.h"

namespace jenga {

struct AllocatorStateTestPeer {
  static auto& Slot(SmallPageAllocator& group, SmallPageId page) { return group.Meta(page); }
  static auto& Large(SmallPageAllocator& group, SmallPageId page) {
    return group.Entry(group.LargeOf(page));
  }
  static Evictor& EvictorOf(SmallPageAllocator& group) { return group.evictor_; }
  // The evictor's heap storage, and its key for a present page.
  static std::vector<Evictor::Key>& Heap(Evictor& evictor) { return evictor.heap_; }
  static Evictor::Key KeyOf(const Evictor& evictor, SmallPageId page) {
    return evictor.keys_[static_cast<size_t>(page)];
  }
  static int64_t& UsedCount(SmallPageAllocator& group) { return group.used_count_; }
  static int64_t& EmptyCount(SmallPageAllocator& group) { return group.empty_count_; }
  static int64_t& ByRequestRefs(SmallPageAllocator& group) { return group.by_request_refs_; }
  static LcmAllocator& Lcm(SmallPageAllocator& group) { return *group.lcm_; }
  static std::vector<int>& Owner(LcmAllocator& lcm) { return lcm.owner_; }
  static std::vector<LargePageId>& FreeList(LcmAllocator& lcm) { return lcm.free_list_; }
};

}  // namespace jenga

#endif  // JENGA_TESTS_CORE_ALLOCATOR_STATE_TEST_PEER_H_

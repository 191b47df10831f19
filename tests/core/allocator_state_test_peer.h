// Test-only write access to a group allocator's page metadata, counters and evictor, and to
// the LCM allocator's owner table and free list, to seed the defects
// AllocatorAuditor::CheckState must report.

#ifndef JENGA_TESTS_CORE_ALLOCATOR_STATE_TEST_PEER_H_
#define JENGA_TESTS_CORE_ALLOCATOR_STATE_TEST_PEER_H_

#include <cstdint>
#include <map>
#include <tuple>
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

  // Every resident page of `group`, ascending, with its state and association.
  static std::vector<std::tuple<SmallPageId, PageState, RequestId>> ResidentPages(
      const SmallPageAllocator& group) {
    std::vector<std::tuple<SmallPageId, PageState, RequestId>> pages;
    const auto ppl = static_cast<size_t>(group.pages_per_large_);
    for (size_t large = 0; large < group.larges_.size(); ++large) {
      if (!group.larges_[large].resident) {
        continue;
      }
      for (size_t page = large * ppl; page < (large + 1) * ppl; ++page) {
        const SmallPageAllocator::SlotMeta& meta = group.slab_[page];
        pages.emplace_back(static_cast<SmallPageId>(page), meta.state, meta.assoc);
      }
    }
    return pages;
  }
  // The pages step 4 would hand out, in pop order: the any-list's valid refs, newest first.
  static std::vector<SmallPageId> AnyListPops(const SmallPageAllocator& group) {
    return ValidPops(group, group.empty_any_);
  }
  // The same for step 1, per request whose affinity list holds a valid ref.
  static std::map<RequestId, std::vector<SmallPageId>> AffinityListPops(
      const SmallPageAllocator& group) {
    std::map<RequestId, std::vector<SmallPageId>> pops;
    for (const auto& [request, refs] : group.empty_by_request_) {
      std::vector<SmallPageId> valid = ValidPops(group, refs);
      if (!valid.empty()) {
        pops.emplace(request, std::move(valid));
      }
    }
    return pops;
  }

 private:
  template <typename Refs>
  static std::vector<SmallPageId> ValidPops(const SmallPageAllocator& group, const Refs& refs) {
    std::vector<SmallPageId> pages;
    for (auto ref = refs.rbegin(); ref != refs.rend(); ++ref) {
      if (group.IsValidEmpty(*ref)) {
        pages.push_back(ref->page);
      }
    }
    return pages;
  }
};

}  // namespace jenga

#endif  // JENGA_TESTS_CORE_ALLOCATOR_STATE_TEST_PEER_H_

// First-level allocator: carves the KV pool into fixed-size *large pages* whose size is the
// least common multiple of all group page sizes (§4.1). Large pages are handed out to the
// per-group customized allocators and returned when all their small pages become empty.
// Because every large page has the same size, there is no external fragmentation at this level.

#ifndef JENGA_SRC_CORE_LCM_ALLOCATOR_H_
#define JENGA_SRC_CORE_LCM_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/types.h"

namespace jenga {

class LcmAllocator {
 public:
  // `pool_bytes` is the KV memory available; pages that do not fit are simply not created
  // (the trailing remainder is reported as slack, not usable memory).
  LcmAllocator(int64_t pool_bytes, int64_t large_page_bytes);

  // Hands a free large page to group `owner_group`; nullopt when no page is free (the caller
  // then falls back to large-page eviction, step 3 of §5.4).
  [[nodiscard]] std::optional<LargePageId> Allocate(int owner_group);

  // Returns a page to the free pool. The page must currently be allocated.
  void Free(LargePageId page);

  // Elastic resize (governor-driven). The page id space stays dense [0, num_pages): grow
  // appends pages at the top, shrink removes pages from the top. Both keep the free list's
  // hand-out order deterministic (new pages are handed out ascending, like construction).
  //
  // Appends `n` free pages. Returns the id of the first new page.
  LargePageId GrowPages(int32_t n);
  // Removes the `n` highest-numbered pages; every one of them must currently be free (the
  // caller drains them first). CHECK-fails otherwise.
  void ShrinkPages(int32_t n);
  // True when the `n` highest-numbered pages are all free (shrink would succeed).
  [[nodiscard]] bool TopPagesFree(int32_t n) const;

  [[nodiscard]] int32_t num_pages() const { return num_pages_; }
  [[nodiscard]] int32_t num_free() const { return static_cast<int32_t>(free_list_.size()); }
  [[nodiscard]] int32_t num_allocated() const { return num_pages_ - num_free(); }
  [[nodiscard]] int64_t large_page_bytes() const { return large_page_bytes_; }
  // Pool bytes lost to the trailing partial page (reported in the memory breakdown).
  [[nodiscard]] int64_t slack_bytes() const { return slack_bytes_; }
  // Owning group of `page`, or -1 when free.
  [[nodiscard]] int owner(LargePageId page) const;

 private:
  friend struct AllocatorStateTestPeer;

  int64_t large_page_bytes_ = 0;
  int64_t slack_bytes_ = 0;
  int32_t num_pages_ = 0;
  std::vector<int> owner_;            // -1 = free.
  std::vector<LargePageId> free_list_;  // LIFO keeps reuse hot and tests deterministic.
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_LCM_ALLOCATOR_H_

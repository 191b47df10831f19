// Differential tests for SmallPageAllocator::AllocateN: the bulk path must produce page ids,
// victim order, and post-failure state identical to n consecutive Allocate calls with an
// explicit reverse rollback — the loop it replaced on the admission hot path. Both twins run
// under the AllocatorAuditor so any shadow-model violation fails the test immediately.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/core/jenga_allocator.h"
#include "src/core/small_page_allocator.h"
#include "src/model/kv_spec.h"
#include "tests/audit/audit_test_util.h"

namespace jenga {
namespace {

// Same two-group Figure 6 shape as the auditor tests: 256 B image pages and 384 B text pages
// under a 768 B LCM page, so cross-group reclaim participates in victim selection.
KvSpec TwoGroupSpec() {
  KvSpec spec;
  KvGroupSpec image;
  image.name = "image";
  image.kind = GroupKind::kCrossAttention;
  image.scope = GroupScope::kImageTokens;
  image.num_layers = 2;
  image.bytes_per_token_per_layer = 128;
  image.tokens_per_page = 1;
  image.page_bytes = 256;
  KvGroupSpec text;
  text.name = "text";
  text.kind = GroupKind::kFullAttention;
  text.num_layers = 3;
  text.bytes_per_token_per_layer = 128;
  text.tokens_per_page = 1;
  text.page_bytes = 384;
  spec.groups = {image, text};
  return spec;
}

// The reference semantics AllocateN promises: n consecutive Allocate calls, releasing in
// reverse (keep_cached=false) and restoring *out on the first failure.
bool LoopAllocate(SmallPageAllocator& group, RequestId request, int64_t n, Tick now,
                  std::vector<SmallPageId>* out) {
  const size_t base = out->size();
  for (int64_t i = 0; i < n; ++i) {
    const std::optional<SmallPageId> page = group.Allocate(request, now);
    if (!page.has_value()) {
      for (size_t j = out->size(); j > base; --j) {
        group.Release((*out)[j - 1], /*keep_cached=*/false);
      }
      out->resize(base);
      return false;
    }
    out->push_back(*page);
  }
  return true;
}

// Seeds a mid-life state: cached pages in both groups (evictor-resident, revivable by hash)
// plus a held run, so AllocateN has to walk the same victim order as the loop.
void SeedState(JengaAllocator& alloc, std::vector<SmallPageId>* held) {
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(/*request=*/1, /*now=*/i);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    alloc.group(0).Release(p, /*keep_cached=*/true);
  }
  for (int i = 0; i < 4; ++i) {
    const SmallPageId p = *alloc.group(1).Allocate(/*request=*/2, /*now=*/10 + i);
    alloc.group(1).SetContentHash(p, 0x200 + static_cast<BlockHash>(i));
    alloc.group(1).Release(p, /*keep_cached=*/true);
  }
  for (int i = 0; i < 2; ++i) {
    held->push_back(*alloc.group(1).Allocate(/*request=*/3, /*now=*/20 + i));
  }
}

// Drains a group one page at a time; the resulting id sequence fingerprints the entire
// internal state (free lists, evictor order, cached contents).
std::vector<SmallPageId> DrainFingerprint(SmallPageAllocator& group, Tick now) {
  std::vector<SmallPageId> ids;
  while (const std::optional<SmallPageId> p = group.Allocate(/*request=*/99, now)) {
    ids.push_back(*p);
  }
  return ids;
}

TEST(AllocateN, MatchesLoopOnSuccess) {
  JengaAllocator bulk_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 8);
  JengaAllocator loop_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 8);
  AllocatorAuditor bulk_audit, loop_audit;
  bulk_audit.AttachAllocator(&bulk_alloc);
  loop_audit.AttachAllocator(&loop_alloc);

  std::vector<SmallPageId> held_bulk, held_loop;
  SeedState(bulk_alloc, &held_bulk);
  SeedState(loop_alloc, &held_loop);
  ASSERT_EQ(held_bulk, held_loop);

  // Bulk run large enough to consume free pages, revive nothing, and evict cached victims.
  std::vector<SmallPageId> bulk_pages{kNoSmallPage};  // Pre-existing tail must be preserved.
  std::vector<SmallPageId> loop_pages{kNoSmallPage};
  ASSERT_TRUE(bulk_alloc.group(1).AllocateN(/*request=*/7, 7, /*now=*/30, &bulk_pages));
  ASSERT_TRUE(LoopAllocate(loop_alloc.group(1), /*request=*/7, 7, /*now=*/30, &loop_pages));
  EXPECT_EQ(bulk_pages, loop_pages);
  ExpectConsistent(bulk_audit);
  ExpectConsistent(loop_audit);

  // Identical internal state afterwards: both twins hand out the same pages until empty.
  EXPECT_EQ(DrainFingerprint(bulk_alloc.group(0), /*now=*/40),
            DrainFingerprint(loop_alloc.group(0), /*now=*/40));
  ExpectConsistent(bulk_alloc);
  ExpectConsistent(loop_alloc);
}

TEST(AllocateN, RollsBackExactlyLikeLoopOnExhaustion) {
  JengaAllocator bulk_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 4);
  JengaAllocator loop_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 4);
  AllocatorAuditor bulk_audit, loop_audit;
  bulk_audit.AttachAllocator(&bulk_alloc);
  loop_audit.AttachAllocator(&loop_alloc);

  std::vector<SmallPageId> held_bulk, held_loop;
  SeedState(bulk_alloc, &held_bulk);
  SeedState(loop_alloc, &held_loop);

  // Far beyond capacity: both must fail mid-bulk, roll back, and leave *out untouched.
  std::vector<SmallPageId> bulk_pages{kNoSmallPage};
  std::vector<SmallPageId> loop_pages{kNoSmallPage};
  EXPECT_FALSE(bulk_alloc.group(1).AllocateN(/*request=*/7, 64, /*now=*/30, &bulk_pages));
  EXPECT_FALSE(LoopAllocate(loop_alloc.group(1), /*request=*/7, 64, /*now=*/30, &loop_pages));
  EXPECT_EQ(bulk_pages, std::vector<SmallPageId>{kNoSmallPage});
  EXPECT_EQ(bulk_pages, loop_pages);
  ExpectConsistent(bulk_audit);
  ExpectConsistent(loop_audit);

  // Rollback released the partial run (keep_cached=false) identically on both sides.
  const auto bulk_stats = bulk_alloc.group(1).GetFreeListStats();
  const auto loop_stats = loop_alloc.group(1).GetFreeListStats();
  EXPECT_EQ(bulk_stats.any_refs, loop_stats.any_refs);
  EXPECT_EQ(bulk_stats.by_request_refs, loop_stats.by_request_refs);
  EXPECT_EQ(bulk_stats.tracked_requests, loop_stats.tracked_requests);
  EXPECT_EQ(DrainFingerprint(bulk_alloc.group(1), /*now=*/40),
            DrainFingerprint(loop_alloc.group(1), /*now=*/40));
  EXPECT_EQ(DrainFingerprint(bulk_alloc.group(0), /*now=*/50),
            DrainFingerprint(loop_alloc.group(0), /*now=*/50));
  ExpectConsistent(bulk_alloc);
}

TEST(AllocateN, ZeroAndRepeatedCallsAreNoOpsAndComposable) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 4);
  std::vector<SmallPageId> pages;
  EXPECT_TRUE(alloc.group(0).AllocateN(/*request=*/1, 0, /*now=*/0, &pages));
  EXPECT_TRUE(pages.empty());
  // Two bulk calls behave like one larger bulk call.
  EXPECT_TRUE(alloc.group(0).AllocateN(/*request=*/1, 3, /*now=*/1, &pages));
  EXPECT_TRUE(alloc.group(0).AllocateN(/*request=*/1, 2, /*now=*/2, &pages));
  EXPECT_EQ(pages.size(), 5u);
  JengaAllocator one_call(TwoGroupSpec(), 768 * 4);
  std::vector<SmallPageId> reference;
  // Two now-ticks can't be replayed in one call; replay the same two-call shape unheld.
  EXPECT_TRUE(one_call.group(0).AllocateN(/*request=*/1, 3, /*now=*/1, &reference));
  EXPECT_TRUE(one_call.group(0).AllocateN(/*request=*/1, 2, /*now=*/2, &reference));
  EXPECT_EQ(pages, reference);
  ExpectConsistent(alloc);
}

}  // namespace
}  // namespace jenga

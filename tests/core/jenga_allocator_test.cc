#include "src/core/jenga_allocator.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/common/random.h"
#include "src/model/kv_spec.h"
#include "src/model/model_zoo.h"

namespace jenga {
namespace {

// Two-group spec mirroring the paper's Figure 6: image pages of 256 bytes and text pages of
// 384 bytes, LCM page 768.
KvSpec Figure6Spec() {
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

TEST(JengaAllocator, ConstructionUsesLcmPageSize) {
  JengaAllocator alloc(Figure6Spec(), /*pool_bytes=*/768 * 8);
  EXPECT_EQ(alloc.lcm().large_page_bytes(), 768);
  EXPECT_EQ(alloc.lcm().num_pages(), 8);
  EXPECT_EQ(alloc.num_groups(), 2);
  EXPECT_EQ(alloc.group(0).pages_per_large(), 3);  // 768 / 256.
  EXPECT_EQ(alloc.group(1).pages_per_large(), 2);  // 768 / 384.
}

TEST(JengaAllocator, GroupsShareThePool) {
  JengaAllocator alloc(Figure6Spec(), 768 * 2);
  // Group 0 takes both large pages (6 image pages), leaving none for group 1.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(alloc.group(0).Allocate(1, 0).has_value());
  }
  EXPECT_FALSE(alloc.group(1).Allocate(1, 0).has_value());
}

TEST(JengaAllocator, WholePageEvictionMovesMemoryBetweenGroups) {
  // §5.4 step 3: once group 0's content is evictable, group 1 can steal the large pages.
  JengaAllocator alloc(Figure6Spec(), 768 * 2);
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(1, /*now=*/i);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, /*keep_cached=*/true);
  }
  const auto text_page = alloc.group(1).Allocate(2, /*now=*/10);
  ASSERT_TRUE(text_page.has_value());
  // One large page was reclaimed from group 0; its three cached image pages are gone.
  EXPECT_EQ(alloc.group(0).GetStats().evictable_pages, 3);
  EXPECT_EQ(alloc.group(1).GetStats().large_pages_held, 1);
  alloc.CheckConsistency();
}

TEST(JengaAllocator, WholePageEvictionPrefersLruLargePage) {
  JengaAllocator alloc(Figure6Spec(), 768 * 2);
  // Large page A holds pages accessed at t=0..2, large page B at t=10..12.
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 6; ++i) {
    const Tick t = (i < 3) ? i : 10 + i;
    const SmallPageId p = *alloc.group(0).Allocate(1, t);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, true);
  }
  (void)*alloc.group(1).Allocate(2, 20);
  // The newer half (hashes 0x103..0x105) must survive.
  EXPECT_FALSE(alloc.group(0).LookupCached(0x100).has_value());
  EXPECT_FALSE(alloc.group(0).LookupCached(0x102).has_value());
  EXPECT_TRUE(alloc.group(0).LookupCached(0x103).has_value());
  EXPECT_TRUE(alloc.group(0).LookupCached(0x105).has_value());
}

TEST(JengaAllocator, ReclaimHeapRevalidatesRevivedPages) {
  JengaAllocator alloc(Figure6Spec(), 768 * 2);
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(1, i);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, true);
  }
  // Revive the older large page's pages: the stale heap entry must be skipped and the *other*
  // large page reclaimed instead.
  alloc.group(0).AddRef(pages[0]);
  (void)*alloc.group(1).Allocate(2, 20);
  EXPECT_TRUE(alloc.group(0).LookupCached(0x100).has_value());
  EXPECT_FALSE(alloc.group(0).LookupCached(0x103).has_value());
  alloc.CheckConsistency();
}

// Records the large pages reclaimed through step 3 (and through ShrinkPool's drain).
struct ReclaimLog final : AuditSink {
  std::vector<std::pair<int, LargePageId>> reclaimed;
  void OnLargeReclaimed(int group, LargePageId large) override {
    reclaimed.emplace_back(group, large);
  }
};

TEST(JengaAllocator, ReclaimHeapBreaksEqualTimestampTiesByGroupThenLargeId) {
  // Three fully-evictable large pages share last-access tick 5, and reviving and re-releasing
  // one page per large re-keys every entry. Ties resolve by (group, large id): L0, L1, L2 —
  // whatever order the entries were placed or re-keyed in.
  JengaAllocator alloc(Figure6Spec(), 768 * 3);
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 9; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(1, /*now=*/5);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, /*keep_cached=*/true);
  }
  for (const int l : {2, 0, 1}) {
    alloc.group(0).AddRef(pages[static_cast<size_t>(3 * l)]);
    alloc.group(0).Release(pages[static_cast<size_t>(3 * l)], true);
  }
  EXPECT_EQ(alloc.reclaim_heap_entries(), 3u);
  ReclaimLog log;
  alloc.SetAuditSink(&log);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/20).has_value());
  }
  const std::vector<std::pair<int, LargePageId>> expected = {{0, 0}, {0, 1}, {0, 2}};
  EXPECT_EQ(log.reclaimed, expected);
  EXPECT_EQ(alloc.reclaim_heap_entries(), 0u);
  EXPECT_FALSE(alloc.group(1).Allocate(2, /*now=*/30).has_value());
  alloc.RemoveAuditSink(&log);
  alloc.CheckConsistency();
}

// Drives both groups through random claims, caching releases, plain releases, revivals,
// last-access bumps and pool resizes with frequent equal ticks. Before every operation a
// std::set of (current timestamp, group, large) over all whole-evictable large pages is the
// model: a step-3 reclaim must take its first element. After every operation the heap holds
// at most one entry per pool page and the auditor's reclaim-heap invariants hold.
class ReclaimOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReclaimOrderTest, MatchesOrderedSetModel) {
  Rng rng(GetParam());
  JengaAllocator alloc(Figure6Spec(), 768 * 6);
  ReclaimLog log;
  AllocatorAuditor auditor;
  std::vector<std::vector<SmallPageId>> used(2);      // Pages this test holds a ref on.
  std::vector<std::vector<BlockHash>> hashes(2);      // Every hash ever registered.
  BlockHash next_hash = 1;
  Tick now = 0;
  int64_t checked_reclaims = 0;
  int64_t revives = 0;
  int64_t rekeys = 0;
  int64_t grows = 0;
  int64_t shrinks = 0;

  // A random resident evictable page of group `g`, found through its cached hash.
  const auto pick_evictable = [&](int g) -> std::optional<SmallPageId> {
    if (hashes[static_cast<size_t>(g)].empty()) {
      return std::nullopt;
    }
    const auto& pool = hashes[static_cast<size_t>(g)];
    const BlockHash hash = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    const auto page = alloc.group(g).LookupCached(hash);
    if (!page.has_value() || alloc.group(g).state(*page) != PageState::kEvictable) {
      return std::nullopt;
    }
    return page;
  };

  for (int step = 0; step < 4000; ++step) {
    now += rng.UniformInt(0, 1);
    std::set<std::tuple<Tick, int, LargePageId>> model;
    for (int g = 0; g < alloc.num_groups(); ++g) {
      for (LargePageId large = 0; large < alloc.lcm().num_pages(); ++large) {
        if (alloc.group(g).IsReclaimCandidate(large)) {
          model.emplace(alloc.group(g).ReclaimTimestamp(large), g, large);
        }
      }
    }
    log.reclaimed.clear();
    alloc.SetAuditSink(&log);
    const int g = static_cast<int>(rng.UniformInt(0, 1));
    std::vector<SmallPageId>& held = used[static_cast<size_t>(g)];
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    bool resized = false;
    if (op < 35) {
      const RequestId request = rng.UniformInt(1, 3);
      if (const auto page = alloc.group(g).Allocate(request, now)) {
        alloc.group(g).SetContentHash(*page, next_hash);
        hashes[static_cast<size_t>(g)].push_back(next_hash++);
        held.push_back(*page);
      }
    } else if (op < 65 && !held.empty()) {
      const size_t at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      alloc.group(g).Release(held[at], /*keep_cached=*/op < 60);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (op < 77) {
      if (const auto page = pick_evictable(g)) {
        alloc.group(g).AddRef(*page);
        alloc.group(g).UpdateLastAccess(*page, now);
        held.push_back(*page);
        revives += 1;
      }
    } else if (op < 92) {
      if (const auto page = pick_evictable(g)) {
        alloc.group(g).UpdateLastAccess(*page, now);
        rekeys += 1;
      }
    } else if (op < 96) {
      alloc.GrowPool(static_cast<int32_t>(rng.UniformInt(1, 2)));
      resized = true;
      grows += 1;
    } else {
      const int32_t before = alloc.lcm().num_pages();
      if (before > 2) {
        shrinks += alloc.ShrinkPool(static_cast<int32_t>(rng.UniformInt(1, 2))) > 0 ? 1 : 0;
      }
      resized = true;
    }
    alloc.RemoveAuditSink(&log);

    // Step 3 reclaims at most once per allocation, and always the model's first element.
    // (ShrinkPool drains trailing pages by position, not by order.)
    if (!resized) {
      ASSERT_LE(log.reclaimed.size(), 1u) << "step " << step;
      if (!log.reclaimed.empty()) {
        ASSERT_FALSE(model.empty()) << "step " << step;
        const auto& [ts, group, large] = *model.begin();
        (void)ts;
        ASSERT_EQ(log.reclaimed.front(), std::make_pair(group, large)) << "step " << step;
        checked_reclaims += 1;
      }
    }
    ASSERT_LE(alloc.reclaim_heap_entries(), static_cast<size_t>(alloc.lcm().num_pages()))
        << "step " << step;
    if (step % 8 == 0) {
      auditor.AttachAllocator(&alloc);
      const auto violation = auditor.FirstViolation();
      auditor.DetachAll();
      ASSERT_FALSE(violation.has_value()) << "step " << step << ": " << *violation;
    }
  }
  alloc.CheckConsistency();
  EXPECT_GT(checked_reclaims, 50);
  EXPECT_GT(revives, 50);
  EXPECT_GT(rekeys, 50);
  EXPECT_GT(grows, 20);
  EXPECT_GT(shrinks, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReclaimOrderTest, ::testing::Values(0x1u, 0x5u, 0x2Au, 0xBEEFu));

TEST(JengaAllocator, ReclaimHeapEqualTimestampsRespectLazyRekey) {
  // Both large pages become candidates with identical timestamp 5; a later touch of large
  // A's page leaves its heap entry stale (key 5, true timestamp 9). Whichever entry pops
  // first, the revalidation step must re-key A and reclaim B — equal keys never excuse
  // evicting the recently-touched page.
  JengaAllocator alloc(Figure6Spec(), 768 * 2);
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(1, /*now=*/5);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, true);
  }
  alloc.group(0).UpdateLastAccess(pages[0], /*now=*/9);
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/20).has_value());
  // Large B (hashes 0x103..0x105, timestamp 5) was reclaimed; large A survived.
  EXPECT_TRUE(alloc.group(0).LookupCached(0x100).has_value());
  EXPECT_TRUE(alloc.group(0).LookupCached(0x102).has_value());
  EXPECT_FALSE(alloc.group(0).LookupCached(0x103).has_value());
  EXPECT_FALSE(alloc.group(0).LookupCached(0x105).has_value());
  alloc.CheckConsistency();
  // A second large is needed next: now A's re-keyed entry (9) is the only candidate left.
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/21).has_value());
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/22).has_value());
  EXPECT_FALSE(alloc.group(0).LookupCached(0x100).has_value());
  EXPECT_EQ(alloc.group(1).GetStats().large_pages_held, 2);
  alloc.CheckConsistency();
}

TEST(JengaAllocator, FreeAndAvailableSmallPages) {
  JengaAllocator alloc(Figure6Spec(), 768 * 4);
  EXPECT_EQ(alloc.FreeSmallPages(0), 4 * 3);
  EXPECT_EQ(alloc.FreeSmallPages(1), 4 * 2);
  const SmallPageId p = *alloc.group(0).Allocate(1, 0);
  // One large page now held by group 0 with 2 empty slots.
  EXPECT_EQ(alloc.FreeSmallPages(0), 3 * 3 + 2);
  EXPECT_EQ(alloc.FreeSmallPages(1), 3 * 2);
  alloc.group(0).SetContentHash(p, 0x1);
  alloc.group(0).Release(p, true);
  // The cached page counts toward available-but-not-free capacity.
  EXPECT_EQ(alloc.FreeSmallPages(0), 3 * 3 + 2);
  EXPECT_EQ(alloc.AvailableSmallPages(0), 3 * 3 + 2 + 1);
}

TEST(JengaAllocator, BreakdownSumsToPool) {
  JengaAllocator alloc(Figure6Spec(), 768 * 4 + 32);
  (void)*alloc.group(0).Allocate(1, 0);
  (void)*alloc.group(1).Allocate(2, 0);
  const auto breakdown = alloc.GetBreakdown();
  EXPECT_EQ(breakdown.pool_bytes, 768 * 4 + 32);
  EXPECT_EQ(breakdown.allocated_bytes, 768 * 2);
  EXPECT_EQ(breakdown.used_bytes, 256 + 384);
  EXPECT_EQ(breakdown.empty_bytes, 2 * 256 + 384);
  EXPECT_EQ(breakdown.evictable_bytes, 0);
  EXPECT_EQ(breakdown.unallocated_bytes, 768 * 2 + 32);
  EXPECT_EQ(breakdown.allocated_bytes + breakdown.unallocated_bytes, breakdown.pool_bytes);
  alloc.CheckConsistency();
}

TEST(JengaAllocator, OverrideLargePageSize) {
  // MAX-page ablation: force the large page to the larger group page (384); the 256-byte
  // group cannot pack into it evenly, so construction must reject it.
  EXPECT_DEATH(JengaAllocator(Figure6Spec(), 768 * 4, /*large_page_bytes_override=*/384),
               "must divide");
  // A valid override: double the LCM.
  JengaAllocator alloc(Figure6Spec(), 768 * 4, 1536);
  EXPECT_EQ(alloc.lcm().large_page_bytes(), 1536);
  EXPECT_EQ(alloc.group(0).pages_per_large(), 6);
}

TEST(JengaAllocator, RealModelSpec) {
  const KvSpec spec = BuildKvSpec(Jamba52B_Fp8(), KvSpecOptions{});
  JengaAllocator alloc(spec, /*pool_bytes=*/spec.LcmPageBytes() * 10);
  // Group order follows the spec; find the mamba group.
  int mamba_index = -1;
  for (int i = 0; i < alloc.num_groups(); ++i) {
    if (alloc.group(i).spec().kind == GroupKind::kMamba) {
      mamba_index = i;
    }
  }
  ASSERT_GE(mamba_index, 0);
  EXPECT_EQ(alloc.group(mamba_index).pages_per_large(), 1);
  const auto state = alloc.group(mamba_index).Allocate(1, 0);
  ASSERT_TRUE(state.has_value());
  alloc.CheckConsistency();
}

// Per-group evictor and reclaim events.
class EvictorEventCounter : public AuditSink {
 public:
  std::vector<int64_t> inserts = std::vector<int64_t>(2);
  std::vector<int64_t> pops = std::vector<int64_t>(2);
  int64_t reclaims = 0;
  void OnEvictorInsert(int group, SmallPageId, Tick, int64_t) override {
    ++inserts[static_cast<size_t>(group)];
  }
  void OnEvictorPop(int group, SmallPageId) override { ++pops[static_cast<size_t>(group)]; }
  void OnLargeReclaimed(int, LargePageId) override { ++reclaims; }
};

// Two groups with `page_bytes` pages. Fills a `large_pages` pool with cached pages, then
// keeps claiming and caching a page per group in turn; every claim must succeed. Returns the
// claims made after the pool was full.
int64_t ChurnCachedPages(JengaAllocator& alloc, int64_t large_pages, AuditSink* sink) {
  alloc.SetAuditSink(sink);
  BlockHash next_hash = 1;
  Tick now = 0;
  const auto claim_and_cache = [&](int group) {
    SmallPageAllocator& g = alloc.group(group);
    ++now;
    const auto page = g.Allocate(/*request=*/now % 5, now);
    EXPECT_TRUE(page.has_value()) << "claim " << now << " in group " << group << " failed";
    if (page.has_value()) {
      g.SetContentHash(*page, next_hash++);
      g.Release(*page, /*keep_cached=*/true);
    }
  };
  while (alloc.lcm().num_free() > 0) {
    claim_and_cache(static_cast<int>(now % 2));
  }
  const int64_t after_full = 4 * large_pages;
  for (int64_t i = 0; i < after_full; ++i) {
    claim_and_cache(static_cast<int>(i % 2));
  }
  alloc.RemoveAuditSink(sink);
  return after_full;
}

TEST(JengaAllocator, OneSlotGroupsNeverNeedStep5) {
  // Gemma-2 shape: both groups' pages fill the large page, so every cached page is a whole
  // reclaim candidate and step 3 always finds one before step 5 could run.
  KvSpec spec = Figure6Spec();
  spec.groups[0].page_bytes = 768;
  spec.groups[1].page_bytes = 768;
  constexpr int64_t kLarges = 8;
  JengaAllocator alloc(spec, 768 * kLarges);
  ASSERT_EQ(alloc.group(0).pages_per_large(), 1);
  ASSERT_EQ(alloc.group(1).pages_per_large(), 1);
  EvictorEventCounter counter;
  const int64_t claims = ChurnCachedPages(alloc, kLarges, &counter);
  EXPECT_EQ(counter.reclaims, claims) << "every claim on a full pool goes through reclaim";
  for (int g = 0; g < 2; ++g) {
    EXPECT_EQ(counter.inserts[static_cast<size_t>(g)], 0) << "group " << g;
    EXPECT_EQ(counter.pops[static_cast<size_t>(g)], 0) << "group " << g;
    EXPECT_GT(alloc.group(g).evictable_pages(), 0) << "group " << g;
  }
  alloc.CheckConsistency();
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  EXPECT_EQ(auditor.FirstViolation(), std::nullopt);
  auditor.DetachAll();
}

TEST(JengaAllocator, MultiSlotGroupsKeepTheirEvictor) {
  // Pages of 4096 and 6144 bytes in a 12288-byte large page: 3 and 2 slots per large page.
  KvSpec spec = Figure6Spec();
  spec.groups[0].page_bytes = 4096;
  spec.groups[1].page_bytes = 6144;
  constexpr int64_t kLarges = 8;
  JengaAllocator alloc(spec, 12288 * kLarges);
  ASSERT_EQ(alloc.group(0).pages_per_large(), 3);
  ASSERT_EQ(alloc.group(1).pages_per_large(), 2);
  EvictorEventCounter counter;
  ChurnCachedPages(alloc, kLarges, &counter);
  EXPECT_GT(counter.inserts[0], 0);
  EXPECT_GT(counter.inserts[1], 0);
  alloc.CheckConsistency();
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  EXPECT_EQ(auditor.FirstViolation(), std::nullopt);
  auditor.DetachAll();
}

}  // namespace
}  // namespace jenga

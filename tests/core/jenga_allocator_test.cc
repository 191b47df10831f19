#include "src/core/jenga_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/common/random.h"
#include "src/model/kv_spec.h"
#include "src/model/model_zoo.h"
#include "tests/audit/audit_test_util.h"
#include "tests/core/allocator_state_test_peer.h"
#include "tests/core/reclaim_queue_test_peer.h"

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
  ExpectConsistent(alloc);
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
  ExpectConsistent(alloc);
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
  ExpectConsistent(alloc);
}

// Classifies every reclaim placement by where it lands in the queue, and counts large pages
// that one group reclaims and the other places again within the same tick.
struct PlacementLog final : AuditSink {
  using Route = ReclaimQueueTestPeer::Route;
  const JengaAllocator* alloc = nullptr;
  Tick now = 0;
  std::map<Route, int64_t> routes;
  std::map<LargePageId, std::pair<int, Tick>> last_reclaim;  // large -> (group, tick).
  int64_t replaced_by_other_group = 0;
  void OnReclaimPushed(int group, LargePageId large, Tick /*timestamp*/) override {
    routes[ReclaimQueueTestPeer::LastPlacement(*alloc, large)] += 1;
    const auto it = last_reclaim.find(large);
    if (it != last_reclaim.end() && it->second.first != group && it->second.second == now) {
      replaced_by_other_group += 1;
    }
  }
  void OnLargeReclaimed(int group, LargePageId large) override {
    last_reclaim[large] = {group, now};
  }
};

// Drives both groups through random claims, caching releases, plain releases, revivals,
// last-access bumps, claim-and-cache in one tick, tie bursts and pool resizes with frequent
// equal ticks. Before every claim a std::set of (current timestamp, group, large) over all
// whole-evictable large pages is the model: a step-3 reclaim must take its first element.
// After every operation the queue holds at most one live entry per pool page, its storage
// stays within the compaction bound and the auditor's reclaim-queue invariants hold. The
// schedule must reach each queue path: placements older than the newest run, equal ones
// after popping sorted it, a page re-placed by the other group in the tick it was reclaimed,
// and a grow that reuses ids a shrink left stale entries for.
class ReclaimOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReclaimOrderTest, MatchesOrderedSetModel) {
  using Route = ReclaimQueueTestPeer::Route;
  Rng rng(GetParam());
  JengaAllocator alloc(Figure6Spec(), 768 * 6);
  ReclaimLog log;
  PlacementLog placements;
  placements.alloc = &alloc;
  alloc.SetAuditSink(&log);
  alloc.SetAuditSink(&placements);
  AllocatorAuditor auditor;
  std::vector<std::vector<SmallPageId>> used(2);      // Pages this test holds a ref on.
  std::vector<std::vector<BlockHash>> hashes(2);      // Every hash ever registered.
  BlockHash next_hash = 1;
  Tick now = 0;
  int step = 0;
  int64_t checked_reclaims = 0;
  int64_t revives = 0;
  int64_t rekeys = 0;
  int64_t grows = 0;
  int64_t shrinks = 0;
  int64_t grows_over_stale_ids = 0;

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
  // Claims one hashed page of group `g`. Step 3 reclaims at most once per claim, and always
  // the model's first element.
  const auto claim = [&](int g) -> std::optional<SmallPageId> {
    std::set<std::tuple<Tick, int, LargePageId>> model;
    for (int group = 0; group < alloc.num_groups(); ++group) {
      for (LargePageId large = 0; large < alloc.lcm().num_pages(); ++large) {
        if (alloc.group(group).IsReclaimCandidate(large)) {
          model.emplace(alloc.group(group).ReclaimTimestamp(large), group, large);
        }
      }
    }
    log.reclaimed.clear();
    const auto page = alloc.group(g).Allocate(rng.UniformInt(1, 3), now);
    EXPECT_LE(log.reclaimed.size(), 1u) << "step " << step;
    if (!log.reclaimed.empty()) {
      EXPECT_FALSE(model.empty()) << "step " << step;
      if (!model.empty()) {
        const auto& [ts, group, large] = *model.begin();
        (void)ts;
        EXPECT_EQ(log.reclaimed.front(), std::make_pair(group, large)) << "step " << step;
      }
      checked_reclaims += 1;
    }
    if (page.has_value()) {
      alloc.group(g).SetContentHash(*page, next_hash);
      hashes[static_cast<size_t>(g)].push_back(next_hash++);
    }
    return page;
  };
  // Revives a cached page of group `g` at `now` and keeps holding it.
  const auto revive = [&](int g) {
    if (const auto page = pick_evictable(g)) {
      alloc.group(g).AddRef(*page);
      alloc.group(g).UpdateLastAccess(*page, now);
      used[static_cast<size_t>(g)].push_back(*page);
      revives += 1;
    }
  };

  for (; step < 4000 && !::testing::Test::HasFailure(); ++step) {
    now += rng.UniformInt(0, 1);
    placements.now = now;
    const int g = static_cast<int>(rng.UniformInt(0, 1));
    std::vector<SmallPageId>& held = used[static_cast<size_t>(g)];
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 33) {
      if (const auto page = claim(g)) {
        held.push_back(*page);
      }
    } else if (op < 62 && !held.empty()) {
      const size_t at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      alloc.group(g).Release(held[at], /*keep_cached=*/op < 57);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (op < 74) {
      revive(g);
    } else if (op < 87) {
      if (const auto page = pick_evictable(g)) {
        alloc.group(g).UpdateLastAccess(*page, now);
        rekeys += 1;
      }
    } else if (op < 90) {
      // Claim and cache within one tick: a claim that reclaims the other group's page places
      // it again under this group at the same tick.
      if (const auto page = claim(g)) {
        alloc.group(g).Release(*page, /*keep_cached=*/true);
      }
    } else if (op < 92) {
      // Tie burst: touch every cached page, so the next claim re-places every candidate at
      // `now`, drains the older runs, sorts the run at `now` and reclaims from it; then a
      // revival and cached release places a page at `now` again.
      for (int group = 0; group < alloc.num_groups(); ++group) {
        for (const BlockHash hash : hashes[static_cast<size_t>(group)]) {
          const auto page = alloc.group(group).LookupCached(hash);
          if (page.has_value() && alloc.group(group).state(*page) == PageState::kEvictable) {
            alloc.group(group).UpdateLastAccess(*page, now);
          }
        }
      }
      if (const auto page = claim(g)) {
        held.push_back(*page);
      }
      revive(1 - g);
      std::vector<SmallPageId>& other = used[static_cast<size_t>(1 - g)];
      if (!other.empty()) {
        alloc.group(1 - g).Release(other.back(), /*keep_cached=*/true);
        other.pop_back();
      }
    } else if (op < 96) {
      grows_over_stale_ids +=
          ReclaimQueueTestPeer::EntriesAtOrAbove(alloc, alloc.lcm().num_pages()) > 0 ? 1 : 0;
      alloc.GrowPool(static_cast<int32_t>(rng.UniformInt(1, 2)));
      grows += 1;
    } else if (alloc.lcm().num_pages() > 2) {
      // ShrinkPool drains trailing pages by position, not by order.
      shrinks += alloc.ShrinkPool(static_cast<int32_t>(rng.UniformInt(1, 2))) > 0 ? 1 : 0;
    }

    ASSERT_LE(alloc.reclaim_heap_entries(), static_cast<size_t>(alloc.lcm().num_pages()))
        << "step " << step;
    ASSERT_LE(alloc.reclaim_queue_storage(),
              2 * alloc.reclaim_heap_entries() + JengaAllocator::kReclaimStorageFloor)
        << "step " << step;
    if (step % 8 == 0) {
      auditor.AttachAllocator(&alloc);
      const auto violation = auditor.FirstViolation();
      auditor.DetachAll();
      ASSERT_FALSE(violation.has_value()) << "step " << step << ": " << *violation;
    }
  }
  alloc.RemoveAuditSink(&placements);
  alloc.RemoveAuditSink(&log);
  ExpectConsistent(alloc);
  EXPECT_GT(checked_reclaims, 50);
  EXPECT_GT(revives, 50);
  EXPECT_GT(rekeys, 50);
  EXPECT_GT(grows, 20);
  EXPECT_GT(shrinks, 5);
  EXPECT_GT(placements.routes[Route::kRun], 100);
  EXPECT_GT(placements.routes[Route::kSideOlder], 0);
  EXPECT_GT(placements.routes[Route::kSideSorted], 0);
  EXPECT_GT(placements.replaced_by_other_group, 0);
  EXPECT_GT(grows_over_stale_ids, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReclaimOrderTest, ::testing::Values(0x1u, 0x5u, 0x2Au, 0xBEEFu));

TEST(JengaAllocator, ReclaimQueueCompactionKeepsAnUnsortedRunUnsorted) {
  // Large pages 7, 6, 5 and 4 are cached at one tick in that order, so the front run is out
  // of key order and nothing has sorted it yet. Re-caching large 4 over and over supersedes
  // its entry until a compaction runs. The pops that follow must still sort the run.
  JengaAllocator alloc(Figure6Spec(), 768 * 8);
  std::vector<std::vector<SmallPageId>> by_large(8);
  for (int i = 0; i < 16; ++i) {
    const SmallPageId p = *alloc.group(1).Allocate(1, /*now=*/1);
    alloc.group(1).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    by_large[static_cast<size_t>(p / alloc.group(1).pages_per_large())].push_back(p);
  }
  for (const size_t large : {7, 6, 5, 4}) {
    for (const SmallPageId p : by_large[large]) {
      alloc.group(1).Release(p, /*keep_cached=*/true);
    }
  }
  size_t peak_storage = 0;
  for (int i = 0; i < 100; ++i) {
    alloc.group(1).AddRef(by_large[4][0]);
    alloc.group(1).Release(by_large[4][0], /*keep_cached=*/true);
    peak_storage = std::max(peak_storage, alloc.reclaim_queue_storage());
  }
  EXPECT_EQ(alloc.reclaim_heap_entries(), 4u);
  EXPECT_LT(alloc.reclaim_queue_storage(), peak_storage);  // A compaction ran.
  ReclaimLog log;
  alloc.SetAuditSink(&log);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(alloc.group(0).Allocate(2, /*now=*/5).has_value());
  }
  alloc.RemoveAuditSink(&log);
  const std::vector<std::pair<int, LargePageId>> expected = {{1, 4}, {1, 5}, {1, 6}, {1, 7}};
  EXPECT_EQ(log.reclaimed, expected);
}

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
  ExpectConsistent(alloc);
  // A second large is needed next: now A's re-keyed entry (9) is the only candidate left.
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/21).has_value());
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/22).has_value());
  EXPECT_FALSE(alloc.group(0).LookupCached(0x100).has_value());
  EXPECT_EQ(alloc.group(1).GetStats().large_pages_held, 2);
  ExpectConsistent(alloc);
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
  ExpectConsistent(alloc);
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
  ExpectConsistent(alloc);
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
  ExpectConsistent(alloc);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  ExpectConsistent(auditor);
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
  ExpectConsistent(alloc);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  ExpectConsistent(auditor);
  auditor.DetachAll();
}

TEST(JengaAllocator, ResizingKeepsEveryResidentPagesMetadata) {
  using Peer = AllocatorStateTestPeer;
  constexpr int kLarges = 6;
  JengaAllocator alloc(Figure6Spec(), 768 * kLarges);
  // Group 0 (3 slots): request 1 holds four pages, two of them hashed, over two large pages,
  // so two slots are empty; one hashed page is cached. Group 1 (2 slots): request 2 holds three
  // pages over two large pages; of the first, one is cached and one released empty.
  std::vector<SmallPageId> image;
  std::vector<SmallPageId> text;
  for (int i = 0; i < 4; ++i) {
    image.push_back(*alloc.group(0).Allocate(1, /*now=*/i));
  }
  for (int i = 0; i < 3; ++i) {
    text.push_back(*alloc.group(1).Allocate(2, /*now=*/10 + i));
  }
  alloc.group(0).SetContentHash(image[0], 0x10);
  alloc.group(0).SetContentHash(image[1], 0x11);
  alloc.group(0).SetPrefixLength(image[1], 7);
  alloc.group(0).UpdateLastAccess(image[1], 20);
  alloc.group(0).Release(image[1], /*keep_cached=*/true);
  alloc.group(1).SetContentHash(text[0], 0x20);
  alloc.group(1).Release(text[0], /*keep_cached=*/true);
  alloc.group(1).Release(text[1], /*keep_cached=*/false);
  ExpectConsistent(alloc);

  using PageMeta = std::tuple<PageState, RequestId, uint64_t, Tick, int64_t, int, bool, bool,
                              BlockHash>;
  struct Snapshot {
    std::vector<std::tuple<SmallPageId, PageState, RequestId>> resident;
    std::vector<PageMeta> meta;
    std::vector<SmallPageId> any_pops;
    std::map<RequestId, std::vector<SmallPageId>> affinity_pops;
    bool operator==(const Snapshot&) const = default;
  };
  const auto snapshot = [&alloc](int g) {
    SmallPageAllocator& group = alloc.group(g);
    Snapshot shot{Peer::ResidentPages(group), {}, Peer::AnyListPops(group),
                  Peer::AffinityListPops(group)};
    for (const auto& [page, state, assoc] : shot.resident) {
      const auto& meta = Peer::Slot(group, page);
      shot.meta.emplace_back(meta.state, meta.assoc, meta.epoch, meta.last_access,
                             meta.prefix_length, meta.ref_count, meta.has_hash, meta.indexed,
                             meta.hash);
    }
    return shot;
  };
  const Snapshot before[] = {snapshot(0), snapshot(1)};
  for (int g = 0; g < 2; ++g) {
    SCOPED_TRACE(::testing::Message() << "group " << g);
    std::set<PageState> states;
    for (const auto& page : before[g].resident) {
      states.insert(std::get<1>(page));
    }
    EXPECT_EQ(states.size(), 3u) << "the pool holds used, evictable and empty pages";
    EXPECT_FALSE(before[g].any_pops.empty());
  }

  alloc.GrowPool(3);  // Outgrows the slab: the resident ranges are copied.
  ASSERT_EQ(alloc.lcm().num_pages(), kLarges + 3);
  EXPECT_TRUE(before[0] == snapshot(0));
  EXPECT_TRUE(before[1] == snapshot(1));
  ExpectConsistent(alloc);
  ASSERT_EQ(alloc.ShrinkPool(3), 3);
  ASSERT_EQ(alloc.lcm().num_pages(), kLarges);
  EXPECT_TRUE(before[0] == snapshot(0));
  EXPECT_TRUE(before[1] == snapshot(1));
  ExpectConsistent(alloc);
}

TEST(JengaAllocatorDeathTest, PageIdsPastTheDividersRangeAreRefusedBeforeTheSlabIsSized) {
  // 1 B pages in a 1 MiB large page: 2^20 slots each, so 4,097 large pages hold more than
  // 2^32 page ids. The slab would be 275 GB; the check must fire first.
  KvSpec spec = Figure6Spec();
  spec.groups[0].page_bytes = 1;
  spec.groups[1].page_bytes = int64_t{1} << 20;
  EXPECT_DEATH(JengaAllocator(spec, int64_t{4097} << 20), "overflow the page ids");
  // The same pool reached by growing one that fits.
  EXPECT_DEATH(
      {
        JengaAllocator alloc(spec, int64_t{1} << 20);
        alloc.GrowPool(4096);
      },
      "overflow the page ids");
}

}  // namespace
}  // namespace jenga

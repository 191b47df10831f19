#include "src/core/small_page_allocator.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/model/kv_spec.h"
#include "src/model/model_zoo.h"
#include "tests/audit/audit_test_util.h"

namespace jenga {
namespace {

// Provider that serves straight from the LCM free list (no whole-page eviction) and records
// reclaim-candidate notifications.
class SimpleProvider : public LargePageProvider {
 public:
  explicit SimpleProvider(LcmAllocator* lcm) : lcm_(lcm) {}

  std::optional<LargePageId> AcquireLargePage(int group_index) override {
    return lcm_->Allocate(group_index);
  }
  void OnReclaimCandidate(int group_index, LargePageId large, Tick timestamp) override {
    candidates.push_back({group_index, large, timestamp});
  }

  struct Candidate {
    int group;
    LargePageId large;
    Tick timestamp;
  };
  std::vector<Candidate> candidates;

 private:
  LcmAllocator* lcm_;
};

KvGroupSpec MakeGroup(int64_t page_bytes, int tokens_per_page = 16) {
  KvGroupSpec spec;
  spec.name = "test";
  spec.kind = GroupKind::kFullAttention;
  spec.page_bytes = page_bytes;
  spec.tokens_per_page = tokens_per_page;
  spec.num_layers = 1;
  spec.bytes_per_token_per_layer = page_bytes / tokens_per_page;
  return spec;
}

class SmallPageAllocatorTest : public ::testing::Test {
 protected:
  // 4 large pages of 768 bytes; the group under test uses 256-byte pages → 3 per large.
  SmallPageAllocatorTest()
      : lcm_(4 * 768, 768),
        provider_(&lcm_),
        alloc_(/*group_index=*/0, MakeGroup(256), &lcm_, &provider_) {}

  LcmAllocator lcm_;
  SimpleProvider provider_;
  SmallPageAllocator alloc_;
};

TEST_F(SmallPageAllocatorTest, PagesPerLarge) { EXPECT_EQ(alloc_.pages_per_large(), 3); }

TEST_F(SmallPageAllocatorTest, FirstAllocationAcquiresLargePage) {
  const auto page = alloc_.Allocate(/*request=*/1, /*now=*/0);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(lcm_.num_allocated(), 1);
  EXPECT_EQ(alloc_.state(*page), PageState::kUsed);
  EXPECT_EQ(alloc_.assoc(*page), 1);
  EXPECT_EQ(alloc_.ref_count(*page), 1);
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, SameRequestFillsItsLargePageFirst) {
  // Request-aware allocation (§4.3): three pages of request 1 land in one large page.
  const SmallPageId a = *alloc_.Allocate(1, 0);
  const SmallPageId b = *alloc_.Allocate(1, 0);
  const SmallPageId c = *alloc_.Allocate(1, 0);
  EXPECT_EQ(a / 3, b / 3);
  EXPECT_EQ(b / 3, c / 3);
  EXPECT_EQ(lcm_.num_allocated(), 1);
  // The fourth allocation needs a second large page.
  (void)*alloc_.Allocate(1, 0);
  EXPECT_EQ(lcm_.num_allocated(), 2);
}

TEST_F(SmallPageAllocatorTest, InterleavedRequestsGetSeparateLargePages) {
  // Figure 8b: interleaved allocations from two requests must not share large pages while
  // fresh large pages are available.
  const SmallPageId a1 = *alloc_.Allocate(1, 0);
  const SmallPageId b1 = *alloc_.Allocate(2, 0);
  const SmallPageId a2 = *alloc_.Allocate(1, 0);
  const SmallPageId b2 = *alloc_.Allocate(2, 0);
  EXPECT_EQ(a1 / 3, a2 / 3);
  EXPECT_EQ(b1 / 3, b2 / 3);
  EXPECT_NE(a1 / 3, b1 / 3);
  EXPECT_EQ(lcm_.num_allocated(), 2);
}

TEST_F(SmallPageAllocatorTest, Step4FallsBackToForeignEmpties) {
  // Exhaust the pool with request 1's large pages (12 small pages), then release two.
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 12; ++i) {
    pages.push_back(*alloc_.Allocate(1, 0));
  }
  EXPECT_FALSE(alloc_.Allocate(2, 0).has_value());  // Fully exhausted.
  alloc_.Release(pages[0], /*keep_cached=*/false);
  // Request 2 has no associated empties and no fresh large page, but can take request 1's
  // freed page (step 4).
  const auto page = alloc_.Allocate(2, 1);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(*page, pages[0]);
  EXPECT_EQ(alloc_.assoc(*page), 2);
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, FullyEmptyLargePageReturnsToLcm) {
  const SmallPageId a = *alloc_.Allocate(1, 0);
  const SmallPageId b = *alloc_.Allocate(1, 0);
  EXPECT_EQ(lcm_.num_allocated(), 1);
  alloc_.Release(a, false);
  EXPECT_EQ(lcm_.num_allocated(), 1);  // Still one used slot.
  alloc_.Release(b, false);
  EXPECT_EQ(lcm_.num_allocated(), 0);  // All three slots empty → returned.
  EXPECT_EQ(alloc_.GetStats().large_pages_held, 0);
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, ReleaseWithoutHashGoesEmptyEvenIfCachingRequested) {
  const SmallPageId a = *alloc_.Allocate(1, 0);
  (void)*alloc_.Allocate(1, 0);  // Keep the large page held.
  alloc_.Release(a, /*keep_cached=*/true);
  EXPECT_EQ(alloc_.state(a), PageState::kEmpty);
}

TEST_F(SmallPageAllocatorTest, CachedReleaseBecomesEvictableAndIndexed) {
  const SmallPageId a = *alloc_.Allocate(1, 5);
  (void)*alloc_.Allocate(1, 5);
  alloc_.SetContentHash(a, 0xABCD);
  alloc_.Release(a, true);
  EXPECT_EQ(alloc_.state(a), PageState::kEvictable);
  EXPECT_EQ(alloc_.LookupCached(0xABCD), a);
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, AddRefRevivesEvictablePage) {
  const SmallPageId a = *alloc_.Allocate(1, 5);
  (void)*alloc_.Allocate(1, 5);
  alloc_.SetContentHash(a, 0xABCD);
  alloc_.Release(a, true);
  alloc_.AddRef(a);
  EXPECT_EQ(alloc_.state(a), PageState::kUsed);
  EXPECT_EQ(alloc_.LookupCached(0xABCD), a);  // Still hittable while shared.
  alloc_.AddRef(a);
  EXPECT_EQ(alloc_.ref_count(a), 2);
  alloc_.Release(a, true);
  EXPECT_EQ(alloc_.state(a), PageState::kUsed);  // One reference remains.
  alloc_.Release(a, true);
  EXPECT_EQ(alloc_.state(a), PageState::kEvictable);
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, Step5EvictsLruCachedPage) {
  // Fill the whole pool with cached evictable pages from request 1.
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 12; ++i) {
    const SmallPageId p = *alloc_.Allocate(1, /*now=*/i);
    alloc_.SetContentHash(p, 0x1000 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  for (const SmallPageId p : pages) {
    alloc_.Release(p, true);
  }
  EXPECT_EQ(alloc_.GetStats().evictable_pages, 12);
  // Next allocation must evict the LRU page (now=0) and erase its hash.
  const auto page = alloc_.Allocate(2, 100);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(*page, pages[0]);
  EXPECT_FALSE(alloc_.LookupCached(0x1000).has_value());
  EXPECT_TRUE(alloc_.LookupCached(0x1001).has_value());
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, DuplicateContentIsNotDoubleIndexed) {
  const SmallPageId a = *alloc_.Allocate(1, 0);
  const SmallPageId b = *alloc_.Allocate(1, 0);
  (void)*alloc_.Allocate(1, 0);  // Hold the large page.
  alloc_.SetContentHash(a, 0x77);
  alloc_.SetContentHash(b, 0x77);
  alloc_.Release(a, true);
  EXPECT_EQ(alloc_.state(a), PageState::kEvictable);
  // b duplicates a's content; caching it would be useless, so it goes empty.
  alloc_.Release(b, true);
  EXPECT_EQ(alloc_.state(b), PageState::kEmpty);
  EXPECT_EQ(alloc_.LookupCached(0x77), a);
  ExpectConsistent(alloc_);
}

// Index ownership with duplicate holders: only the page the index maps a hash to owns the
// entry. A non-owning copy's release and loss must leave the owner's entry alone, and when the
// owner goes first the copy's release indexes the copy.
TEST_F(SmallPageAllocatorTest, DuplicateHoldersKeepTheOwnersEntry) {
  struct IndexEvents final : AuditSink {
    void OnHashIndexed(int /*group*/, BlockHash /*hash*/) override { ++indexed; }
    void OnHashUnindexed(int /*group*/, BlockHash /*hash*/,
                         const CacheEviction* evicted) override {
      ++unindexed;
      evictions += evicted != nullptr ? 1 : 0;
    }
    int indexed = 0;
    int unindexed = 0;
    int evictions = 0;
  };
  IndexEvents events;
  const std::vector<AuditSink*> sinks = {&events};
  alloc_.set_audit_sinks(&sinks);

  // The copy is released and its large page goes back whole; the owner then caches as usual.
  const SmallPageId owner = *alloc_.Allocate(1, 0);
  const SmallPageId copy = *alloc_.Allocate(2, 0);
  ASSERT_NE(owner / 3, copy / 3);
  alloc_.SetContentHash(owner, 0x77);
  alloc_.SetContentHash(copy, 0x77);
  EXPECT_EQ(events.indexed, 1);
  alloc_.Release(copy, /*keep_cached=*/true);
  EXPECT_EQ(lcm_.num_allocated(), 1);
  EXPECT_EQ(alloc_.LookupCached(0x77), owner);
  EXPECT_EQ(events.unindexed, 0);
  ExpectConsistent(alloc_);
  alloc_.Release(owner, /*keep_cached=*/true);
  EXPECT_EQ(alloc_.state(owner), PageState::kEvictable);
  EXPECT_EQ(alloc_.LookupCached(0x77), owner);
  EXPECT_EQ(events.indexed, 1);
  ExpectConsistent(alloc_);

  // The owner is cached and then evicted with its large page; the copy's release takes over.
  const SmallPageId copy2 = *alloc_.Allocate(3, 1);
  alloc_.SetContentHash(copy2, 0x77);
  EXPECT_EQ(events.indexed, 1);
  alloc_.ReclaimLargePage(static_cast<LargePageId>(owner / 3));
  EXPECT_EQ(events.unindexed, 1);
  EXPECT_EQ(events.evictions, 1);
  EXPECT_FALSE(alloc_.LookupCached(0x77).has_value());
  ExpectConsistent(alloc_);
  alloc_.Release(copy2, /*keep_cached=*/true);
  EXPECT_EQ(alloc_.state(copy2), PageState::kEvictable);
  EXPECT_EQ(alloc_.LookupCached(0x77), copy2);
  EXPECT_EQ(events.indexed, 2);
  ExpectConsistent(alloc_);
  alloc_.set_audit_sinks(nullptr);
}

TEST_F(SmallPageAllocatorTest, ReclaimCandidateNotifications) {
  const SmallPageId a = *alloc_.Allocate(1, 3);
  alloc_.SetContentHash(a, 0x1);
  alloc_.Release(a, true);
  ASSERT_FALSE(provider_.candidates.empty());
  const auto& candidate = provider_.candidates.back();
  EXPECT_EQ(candidate.group, 0);
  EXPECT_EQ(candidate.large, static_cast<LargePageId>(a / 3));
  EXPECT_EQ(candidate.timestamp, 3);
  EXPECT_TRUE(alloc_.IsReclaimCandidate(candidate.large));
  EXPECT_EQ(alloc_.ReclaimTimestamp(candidate.large), 3);
}

TEST_F(SmallPageAllocatorTest, ReclaimLargePageDropsCacheAndFrees) {
  const SmallPageId a = *alloc_.Allocate(1, 3);
  alloc_.SetContentHash(a, 0x1);
  alloc_.Release(a, true);
  const LargePageId large = static_cast<LargePageId>(a / 3);
  alloc_.ReclaimLargePage(large);
  EXPECT_EQ(lcm_.num_allocated(), 0);
  EXPECT_FALSE(alloc_.LookupCached(0x1).has_value());
  EXPECT_FALSE(alloc_.IsReclaimCandidate(large));
  EXPECT_EQ(alloc_.GetStats().large_pages_held, 0);
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, UpdateLastAccessProtectsFromEviction) {
  // Two cached pages; refreshing the older one flips the eviction order.
  SmallPageId a = *alloc_.Allocate(1, 0);
  SmallPageId b = *alloc_.Allocate(1, 1);
  SmallPageId filler = *alloc_.Allocate(1, 1);
  alloc_.SetContentHash(a, 0xA);
  alloc_.SetContentHash(b, 0xB);
  alloc_.Release(a, true);
  alloc_.Release(b, true);
  alloc_.UpdateLastAccess(a, 50);
  // Exhaust remaining capacity (3 large pages × 3 = 9 fresh pages).
  for (int i = 0; i < 9; ++i) {
    (void)*alloc_.Allocate(2, 60);
  }
  const auto victim_reuse = alloc_.Allocate(2, 61);  // Must evict b, not a.
  ASSERT_TRUE(victim_reuse.has_value());
  EXPECT_EQ(*victim_reuse, b);
  EXPECT_TRUE(alloc_.LookupCached(0xA).has_value());
  EXPECT_FALSE(alloc_.LookupCached(0xB).has_value());
  (void)filler;
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, StatsTrackBytes) {
  (void)*alloc_.Allocate(1, 0);
  const auto stats = alloc_.GetStats();
  EXPECT_EQ(stats.large_pages_held, 1);
  EXPECT_EQ(stats.used_pages, 1);
  EXPECT_EQ(stats.empty_pages, 2);
  EXPECT_EQ(stats.used_bytes, 256);
  EXPECT_EQ(stats.empty_bytes, 512);
}

TEST_F(SmallPageAllocatorTest, EpochSafetyAcrossLargePageRecycling) {
  // Allocate and free through several generations of the same large page; stale free-list
  // entries must never produce a double allocation.
  for (int round = 0; round < 5; ++round) {
    std::vector<SmallPageId> pages;
    for (int i = 0; i < 12; ++i) {
      const auto p = alloc_.Allocate(round, round);
      ASSERT_TRUE(p.has_value());
      pages.push_back(*p);
    }
    // All 12 distinct.
    std::sort(pages.begin(), pages.end());
    EXPECT_TRUE(std::adjacent_find(pages.begin(), pages.end()) == pages.end());
    for (const SmallPageId p : pages) {
      alloc_.Release(p, false);
    }
    EXPECT_EQ(lcm_.num_allocated(), 0);
  }
  ExpectConsistent(alloc_);
}

TEST_F(SmallPageAllocatorTest, MambaStyleWholeLargePages) {
  // A group whose page size equals the LCM page: one small page per large page.
  SmallPageAllocator mamba(/*group_index=*/1, MakeGroup(768, 16), &lcm_, &provider_);
  EXPECT_EQ(mamba.pages_per_large(), 1);
  const SmallPageId state = *mamba.Allocate(9, 0);
  EXPECT_EQ(lcm_.num_allocated(), 1);
  mamba.Release(state, false);
  EXPECT_EQ(lcm_.num_allocated(), 0);
  ExpectConsistent(mamba);
}

TEST_F(SmallPageAllocatorTest, DeathOnForeignPage) {
  EXPECT_DEATH(alloc_.Release(99, false), "not resident");
}

TEST_F(SmallPageAllocatorTest, DeathOnPageSizeNotDividingLargePage) {
  // The MAX-page shape: 256-byte pages cannot pack evenly into 384-byte large pages.
  LcmAllocator lcm(4 * 384, 384);
  SimpleProvider provider(&lcm);
  EXPECT_DEATH(SmallPageAllocator(0, MakeGroup(256), &lcm, &provider), "must divide");
}

TEST_F(SmallPageAllocatorTest, DeathOnDoubleRelease) {
  const SmallPageId a = *alloc_.Allocate(1, 0);
  (void)*alloc_.Allocate(1, 0);
  alloc_.Release(a, false);
  EXPECT_DEATH(alloc_.Release(a, false), "non-used");
}

// Every pages_per_large a model-zoo spec produces, and those of the merged Gemma-2-27B + 2B
// spec that speculative decoding serves.
std::set<int> ZooPagesPerLarge() {
  std::set<int> found;
  const auto add = [&found](const KvSpec& spec) {
    for (const KvGroupSpec& group : spec.groups) {
      found.insert(static_cast<int>(spec.LcmPageBytes() / group.page_bytes));
    }
  };
  for (const ModelConfig& model : AllZooModels()) {
    add(BuildKvSpec(model, KvSpecOptions{}));
  }
  add(MergeKvSpecs({{"target", BuildKvSpec(Gemma2_27B(), KvSpecOptions{})},
                    {"draft", BuildKvSpec(Gemma2_2B(), KvSpecOptions{})}}));
  return found;
}

// Page ids `first` … `last` (inclusive) divide as `/` and `%` do.
::testing::AssertionResult DividesExactly(int pages_per_large, SmallPageId first,
                                          SmallPageId last, SmallPageId stride = 1) {
  const PageDivider divider(pages_per_large);
  for (SmallPageId page = first; page <= last; page += stride) {
    if (divider.Large(page) != page / pages_per_large ||
        divider.Slot(page) != page % pages_per_large) {
      return ::testing::AssertionFailure()
             << "pages_per_large " << pages_per_large << ", page " << page << ": large "
             << divider.Large(page) << " slot " << divider.Slot(page);
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PageDivider, MatchesDivisionAcrossTheAllowedRange) {
  std::set<int> divisors = ZooPagesPerLarge();
  // Jamba's Mamba page, and the merged Gemma-2-27B + 2B spec's two page sizes.
  for (const int expected : {84, 13, 46}) {
    EXPECT_TRUE(divisors.contains(expected)) << expected;
  }
  for (int pages_per_large = 1; pages_per_large <= 128; ++pages_per_large) {
    divisors.insert(pages_per_large);
  }
  for (const int pages_per_large : divisors) {
    const auto limit = static_cast<SmallPageId>(PageDivider(pages_per_large).limit());
    ASSERT_LE(limit, SmallPageId{1} << 32);
    ASSERT_GE(limit, SmallPageId{1} << 31) << pages_per_large;
    const SmallPageId span = 4 * SmallPageId{pages_per_large} + 4;
    EXPECT_TRUE(DividesExactly(pages_per_large, 0, span));
    EXPECT_TRUE(DividesExactly(pages_per_large, limit - span, limit - 1));
    EXPECT_TRUE(DividesExactly(pages_per_large, 0, limit - 1, limit / 4099 + 1));
  }
  // One-slot groups are bounded by the large-page id type, 2^20-slot groups by 2^32.
  EXPECT_EQ(PageDivider(1).limit(), uint64_t{1} << 31);
  EXPECT_EQ(PageDivider(1 << 20).limit(), uint64_t{1} << 32);
}

}  // namespace
}  // namespace jenga

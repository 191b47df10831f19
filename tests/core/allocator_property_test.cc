// Property-based tests: random operation sequences over the two-level allocator, checked
// against a shadow model and the allocator's own consistency checker. Parameterized over
// seeds so each instantiation explores a different trajectory.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/common/random.h"
#include "src/core/jenga_allocator.h"
#include "src/model/kv_spec.h"
#include "tests/audit/audit_test_util.h"

namespace jenga {
namespace {

KvSpec TwoGroupSpec() {
  KvSpec spec;
  KvGroupSpec small;
  small.name = "small";
  small.kind = GroupKind::kCrossAttention;
  small.num_layers = 2;
  small.bytes_per_token_per_layer = 128;
  small.tokens_per_page = 1;
  small.page_bytes = 256;
  KvGroupSpec big;
  big.name = "big";
  big.kind = GroupKind::kFullAttention;
  big.num_layers = 3;
  big.bytes_per_token_per_layer = 128;
  big.tokens_per_page = 1;
  big.page_bytes = 384;
  spec.groups = {small, big};
  return spec;
}

struct Held {
  int group;
  SmallPageId page;
  int refs;
  bool hashed;
};

class AllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorPropertyTest, RandomWorkoutKeepsInvariants) {
  Rng rng(GetParam());
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 32);

  std::vector<Held> held;
  std::set<std::pair<int, SmallPageId>> live;  // Pages with refs > 0.
  BlockHash next_hash = 1;
  Tick now = 0;

  for (int step = 0; step < 4000; ++step) {
    ++now;
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 45) {
      // Allocate for a random request.
      const int group = static_cast<int>(rng.UniformInt(0, 1));
      const RequestId request = rng.UniformInt(0, 7);
      const auto page = alloc.group(group).Allocate(request, now);
      if (page.has_value()) {
        // Property: a freshly allocated page is never one we already hold a reference to.
        EXPECT_TRUE(live.emplace(group, *page).second)
            << "double allocation of group " << group << " page " << *page;
        held.push_back({group, *page, 1, false});
        EXPECT_EQ(alloc.group(group).state(*page), PageState::kUsed);
        EXPECT_EQ(alloc.group(group).assoc(*page), request);
      } else {
        // Allocation may only fail when nothing is free or evictable anywhere.
        EXPECT_EQ(alloc.lcm().num_free(), 0);
        EXPECT_EQ(alloc.group(group).empty_pages(), 0);
        EXPECT_EQ(alloc.group(group).GetStats().evictable_pages, 0);
      }
    } else if (op < 75 && !held.empty()) {
      // Release a random reference.
      const size_t index = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      Held& h = held[index];
      const bool keep = rng.Bernoulli(0.6);
      alloc.group(h.group).Release(h.page, keep);
      h.refs -= 1;
      if (h.refs == 0) {
        live.erase({h.group, h.page});
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(index));
      }
    } else if (op < 85 && !held.empty()) {
      // Hash a random held page (possibly re-hash).
      const size_t index = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      Held& h = held[index];
      alloc.group(h.group).SetContentHash(h.page, next_hash++);
      h.hashed = true;
    } else if (op < 92 && !held.empty()) {
      // Touch eviction metadata.
      const size_t index = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      const Held& h = held[index];
      alloc.group(h.group).UpdateLastAccess(h.page, now);
      alloc.group(h.group).SetPrefixLength(h.page, rng.UniformInt(0, 1000));
    } else if (next_hash > 1) {
      // Try to revive a cached page via lookup + AddRef.
      const int group = static_cast<int>(rng.UniformInt(0, 1));
      const BlockHash hash = static_cast<BlockHash>(rng.UniformInt(1, static_cast<int64_t>(next_hash) - 1));
      if (const auto page = alloc.group(group).LookupCached(hash)) {
        alloc.group(group).AddRef(*page);
        const auto it = std::find_if(held.begin(), held.end(), [&](const Held& h) {
          return h.group == group && h.page == *page;
        });
        if (it != held.end()) {
          it->refs += 1;
        } else {
          held.push_back({group, *page, 1, true});
          live.emplace(group, *page);
        }
      }
    }

    if (step % 256 == 0) {
      ExpectConsistent(alloc);
      // Conservation: the breakdown always partitions the pool.
      const auto b = alloc.GetBreakdown();
      EXPECT_EQ(b.allocated_bytes + b.unallocated_bytes, b.pool_bytes);
      EXPECT_EQ(b.used_bytes + b.evictable_bytes + b.empty_bytes, b.allocated_bytes);
    }
  }

  // Drain: release every reference without caching; all memory must return to the pool.
  for (const Held& h : held) {
    for (int r = 0; r < h.refs; ++r) {
      alloc.group(h.group).Release(h.page, false);
    }
  }
  // Reclaim any still-evictable large pages by exhausting the allocator, then verify that a
  // full drain with caching disabled leaves zero used pages.
  for (int g = 0; g < alloc.num_groups(); ++g) {
    EXPECT_EQ(alloc.group(g).GetStats().used_pages, 0);
  }
  ExpectConsistent(alloc);
}

TEST_P(AllocatorPropertyTest, NoCachingDrainReturnsEverything) {
  Rng rng(GetParam() ^ 0xDEADBEEF);
  JengaAllocator alloc(TwoGroupSpec(), 768 * 16);
  std::vector<Held> held;
  for (int round = 0; round < 50; ++round) {
    const int allocs = static_cast<int>(rng.UniformInt(1, 30));
    for (int i = 0; i < allocs; ++i) {
      const int group = static_cast<int>(rng.UniformInt(0, 1));
      const auto page = alloc.group(group).Allocate(rng.UniformInt(0, 3), round);
      if (page.has_value()) {
        held.push_back({group, *page, 1, false});
      }
    }
    const int frees = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(held.size())));
    for (int i = 0; i < frees; ++i) {
      const size_t index = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      alloc.group(held[index].group).Release(held[index].page, false);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(index));
    }
  }
  for (const Held& h : held) {
    alloc.group(h.group).Release(h.page, false);
  }
  // With no caching, every large page must be back on the free list.
  EXPECT_EQ(alloc.lcm().num_allocated(), 0);
  const auto b = alloc.GetBreakdown();
  EXPECT_EQ(b.unallocated_bytes, b.pool_bytes);
  ExpectConsistent(alloc);
}

TEST_P(AllocatorPropertyTest, RequestAwarePackingBeatsArbitraryPlacement) {
  // §4.3's claim as a property: allocate pages for K requests round-robin (the adversarial
  // interleaving of Figure 8), free all pages of all but one request — most large pages must
  // return to the LCM allocator because each was dedicated to a single request.
  Rng rng(GetParam() ^ 0xABCD);
  JengaAllocator alloc(TwoGroupSpec(), 768 * 64);
  const int kRequests = 4;
  const int kPagesEach = 24;
  std::map<RequestId, std::vector<SmallPageId>> pages;
  for (int i = 0; i < kPagesEach; ++i) {
    for (RequestId r = 0; r < kRequests; ++r) {
      const auto page = alloc.group(0).Allocate(r, i);
      ASSERT_TRUE(page.has_value());
      pages[r].push_back(*page);
    }
  }
  const int64_t held_before = alloc.lcm().num_allocated();
  for (RequestId r = 1; r < kRequests; ++r) {
    for (const SmallPageId p : pages[r]) {
      alloc.group(0).Release(p, false);
    }
  }
  // Request 0 holds 24 pages = 8 large pages; everything else must be free again.
  EXPECT_EQ(alloc.lcm().num_allocated(), 8);
  EXPECT_LT(alloc.lcm().num_allocated(), held_before);
  ExpectConsistent(alloc);
}

TEST_P(AllocatorPropertyTest, LongRunFreeListsStayCompact) {
  // Regression for unbounded free-ref growth: every empty transition used to push refs that
  // were only discarded when a pop happened to reach them, so a long-lived server accumulated
  // stale epochs forever. With periodic compaction the lists stay O(pool), no matter how many
  // operations have run.
  Rng rng(GetParam() ^ 0xF00D);
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 32);
  int64_t total_small_pages = 0;
  for (int g = 0; g < alloc.num_groups(); ++g) {
    total_small_pages +=
        static_cast<int64_t>(alloc.lcm().num_pages()) * alloc.group(g).pages_per_large();
  }

  std::vector<Held> held;
  Tick now = 0;
  for (int step = 0; step < 60000; ++step) {
    ++now;
    const RequestId request = rng.UniformInt(0, 15);
    if (rng.Bernoulli(0.55) || held.empty()) {
      const int group = static_cast<int>(rng.UniformInt(0, 1));
      if (const auto page = alloc.group(group).Allocate(request, now)) {
        held.push_back({group, *page, 1, false});
      }
    } else {
      const size_t index =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      alloc.group(held[index].group).Release(held[index].page, false);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(index));
    }
    // Retire a request id for good now and then, as KvManager does on finish.
    if (step % 512 == 511) {
      alloc.ForgetRequest(rng.UniformInt(0, 15));
    }

    if (step % 1024 == 0) {
      ExpectConsistent(alloc);
    }
    for (int g = 0; g < alloc.num_groups(); ++g) {
      const auto stats = alloc.group(g).GetFreeListStats();
      // Compaction bound: after 60k operations the lists must still be proportional to the
      // pool, not to the operation count (the lists saw tens of thousands of pushes).
      ASSERT_LE(stats.any_refs, 2 * total_small_pages + 64) << "step " << step;
      ASSERT_LE(stats.by_request_refs, 2 * total_small_pages + 64) << "step " << step;
      ASSERT_LE(stats.tracked_requests, 16) << "step " << step;
    }
  }

  for (const Held& h : held) {
    alloc.group(h.group).Release(h.page, false);
  }
  ExpectConsistent(alloc);
  // Once every request id is forgotten, no affinity state may remain.
  for (RequestId r = 0; r < 16; ++r) {
    alloc.ForgetRequest(r);
  }
  for (int g = 0; g < alloc.num_groups(); ++g) {
    EXPECT_EQ(alloc.group(g).GetFreeListStats().by_request_refs, 0);
    EXPECT_EQ(alloc.group(g).GetFreeListStats().tracked_requests, 0);
  }
  ExpectConsistent(alloc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

}  // namespace
}  // namespace jenga

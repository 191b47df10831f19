#include "src/audit/allocator_auditor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/prefix_index.h"
#include "src/common/random.h"
#include "src/core/audit_events.h"
#include "src/core/jenga_allocator.h"
#include "src/model/kv_spec.h"
#include "src/offload/swap_manager.h"
#include "tests/audit/audit_test_util.h"
#include "tests/core/allocator_state_test_peer.h"
#include "tests/core/reclaim_queue_test_peer.h"

namespace jenga {
namespace {

// Same two-group shape as the allocator unit tests (Figure 6): 256 B image pages and 384 B
// text pages under a 768 B LCM page.
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

TEST(AllocatorAuditor, GreenAcrossAllocateCacheEvictCycle) {
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  ExpectConsistent(auditor);

  std::vector<SmallPageId> pages;
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(1, /*now=*/i);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
    ExpectConsistent(auditor);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, /*keep_cached=*/true);
    ExpectConsistent(auditor);
  }
  // Cross-group reclaim: group 1 steals a large page, evicting cached image pages.
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/10).has_value());
  ExpectConsistent(auditor);
  // Cache revival through the prefix index.
  const auto revived = alloc.group(0).LookupCached(0x103);
  if (revived.has_value()) {
    alloc.group(0).AddRef(*revived);
    ExpectConsistent(auditor);
    alloc.group(0).Release(*revived, true);
    ExpectConsistent(auditor);
  }
  EXPECT_GT(auditor.events_observed(), 0);
}

TEST(AllocatorAuditor, AttachSeedsFromMidLifeState) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 4);
  // Mutate before attaching: the auditor must seed its shadow from live state, not replay.
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 5; ++i) {
    const SmallPageId p = *alloc.group(1).Allocate(7, i);
    alloc.group(1).SetContentHash(p, 0x900 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  alloc.group(1).Release(pages[0], true);

  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  ExpectConsistent(auditor);
  // And it keeps tracking transitions from that seeded state.
  alloc.group(1).Release(pages[1], false);
  ExpectConsistent(auditor);
  EXPECT_GT(auditor.events_observed(), 0);
}

TEST(AllocatorAuditor, DetachStopsObservationAndClearsState) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  (void)*alloc.group(0).Allocate(1, 0);
  const int64_t seen = auditor.events_observed();
  EXPECT_GT(seen, 0);
  auditor.DetachAll();
  EXPECT_EQ(auditor.num_attached_allocators(), 0);
  (void)*alloc.group(0).Allocate(1, 1);
  EXPECT_EQ(auditor.events_observed(), seen);
  ExpectConsistent(auditor);  // Nothing attached: trivially green.
}

TEST(AllocatorAuditor, InjectedShadowFaultIsDetected) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  (void)*alloc.group(0).Allocate(1, 0);
  ExpectConsistent(auditor);
  auditor.InjectShadowFaultForTest();
  EXPECT_FALSE(auditor.Audit().empty());
  EXPECT_TRUE(auditor.FirstViolation().has_value());
}

// Seeded defects in the §5.4 reclaim queue: each corrupts one invariant of a queue with a
// sorted front run partly popped, three runs and a two-entry side heap, and the auditor must
// name it.
//
// gtest prints a parameter that has no PrintTo as its raw bytes, and each case's ctest ID
// keeps the first of them. `id` leads the struct so that this byte is fixed per case instead
// of being the low byte of a string's address, which moved with the build type and with any
// change to the binary; the values are the bytes the cases were first listed under, so the
// IDs did not change when the layout was pinned.
struct ReclaimQueueDefect {
  uint64_t id;
  const char* name;
  // Corrupts one invariant and returns a phrase the auditor's report must contain.
  const char* (*seed)(JengaAllocator&);
};
static_assert(sizeof(ReclaimQueueDefect) == 24, "the printed size is part of each case's ID");

class ReclaimQueueAuditTest : public ::testing::TestWithParam<ReclaimQueueDefect> {
 protected:
  using Peer = ReclaimQueueTestPeer;

  // Group 1 (two text pages per large page) fills all eight large pages; large page L is
  // cached at tick 10 + L / 3 and released in the order 2 0 1 5 3 4 7 6, giving runs
  // {2 0 1}@10, {5 3 4}@11 and {7 6}@12. Group 0's claim sorts the first run and reclaims
  // large 0. Reviving and re-caching large pages 5 and 4 places them at 11, older than the
  // newest run, so they go to the side heap and leave their run entries stale.
  ReclaimQueueAuditTest() : alloc_(TwoGroupSpec(), 768 * 8) {
    std::vector<std::vector<SmallPageId>> by_large(8);
    for (int i = 0; i < 16; ++i) {
      const SmallPageId page = *alloc_.group(1).Allocate(1, /*now=*/0);
      alloc_.group(1).SetContentHash(page, 0x500 + static_cast<BlockHash>(i));
      const auto large = static_cast<size_t>(page / alloc_.group(1).pages_per_large());
      alloc_.group(1).UpdateLastAccess(page, 10 + static_cast<Tick>(large) / 3);
      by_large[large].push_back(page);
    }
    for (const size_t large : {2, 0, 1, 5, 3, 4, 7, 6}) {
      for (const SmallPageId page : by_large[large]) {
        alloc_.group(1).Release(page, /*keep_cached=*/true);
      }
    }
    (void)*alloc_.group(0).Allocate(2, /*now=*/20);
    for (const size_t large : {5, 4}) {
      alloc_.group(1).AddRef(by_large[large][0]);
      alloc_.group(1).Release(by_large[large][0], /*keep_cached=*/true);
    }
  }

  JengaAllocator alloc_;
};

TEST_P(ReclaimQueueAuditTest, SeededDefectIsReported) {
  // The setup reached the shape the defects assume.
  ASSERT_TRUE(Peer::FrontSorted(alloc_));
  ASSERT_EQ(Peer::Cursor(alloc_), 1u);
  ASSERT_EQ(Peer::Large(alloc_, 1), 1);
  ASSERT_EQ(Peer::Runs(alloc_).size(), 3u);
  ASSERT_EQ(Peer::Side(alloc_).size(), 2u);
  ASSERT_EQ(alloc_.reclaim_heap_entries(), 7u);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc_);
  ExpectConsistent(auditor);

  const std::string expected = GetParam().seed(alloc_);
  const std::vector<std::string> violations = auditor.Audit();
  const bool named = std::any_of(violations.begin(), violations.end(), [&](const std::string& v) {
    return v.find(expected) != std::string::npos;
  });
  EXPECT_TRUE(named) << "no violation mentions \"" << expected << "\"; first: "
                     << (violations.empty() ? std::string("none") : violations.front());
  auditor.DetachAll();
}

INSTANTIATE_TEST_SUITE_P(
    Defects, ReclaimQueueAuditTest,
    ::testing::Values(
        ReclaimQueueDefect{0x1E, "RunPastStorage",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Runs(a).back().end += 1;
                             return "do not tile";
                           }},
        ReclaimQueueDefect{0x39, "RunsOutOfOrder",
                           [](JengaAllocator& a) {
                             auto& runs = ReclaimQueueTestPeer::Runs(a);
                             std::swap(runs[1].timestamp, runs[2].timestamp);
                             return "does not follow";
                           }},
        ReclaimQueueDefect{0x58, "EntryOutsideItsRun",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Storage(a)[6].timestamp = 11;
                             return "in a run at";
                           }},
        ReclaimQueueDefect{0x77, "SortedRunUnsorted",
                           [](JengaAllocator& a) {
                             auto& storage = ReclaimQueueTestPeer::Storage(a);
                             std::swap(storage[1], storage[2]);
                             return "out of order after its cursor";
                           }},
        ReclaimQueueDefect{0xA7, "SideHeapBroken",
                           [](JengaAllocator& a) {
                             auto& side = ReclaimQueueTestPeer::Side(a);
                             std::swap(side[0], side[1]);
                             return "violates the heap property";
                           }},
        ReclaimQueueDefect{0xD1, "QueuedWithoutLiveEntry",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Generation(a)[3] += 2;
                             return "large page 3 is queued but has 0 live entries";
                           }},
        ReclaimQueueDefect{0xE8, "TwoLiveEntries",
                           [](JengaAllocator& a) {
                             auto& side = ReclaimQueueTestPeer::Side(a);
                             side.push_back(ReclaimQueueTestPeer::Storage(a)[1]);
                             std::push_heap(side.begin(), side.end(), std::greater<>{});
                             ReclaimQueueTestPeer::Written(a) += 1;
                             return "large page 1 is queued but has 2 live entries";
                           }},
        ReclaimQueueDefect{0xF7, "LiveEntryForUnqueuedPage",
                           [](JengaAllocator& a) {
                             auto& side = ReclaimQueueTestPeer::Side(a);
                             side.push_back(side.front());
                             side.back().key = ReclaimQueueTestPeer::Key(
                                 0, 0, ReclaimQueueTestPeer::Generation(a)[0]);
                             std::push_heap(side.begin(), side.end(), std::greater<>{});
                             ReclaimQueueTestPeer::Written(a) += 1;
                             return "large page 0 is not queued but has 1 live entries";
                           }},
        ReclaimQueueDefect{0x10, "QueuedBeyondPool",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Generation(a).push_back(1);
                             return "beyond the 8-page pool is queued";
                           }},
        ReclaimQueueDefect{0x21, "QueuedCountDrifts",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Live(a) += 1;
                             return "counts 8 queued pages, 7 are queued";
                           }},
        ReclaimQueueDefect{0x33, "CandidateDequeued",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Generation(a)[6] += 1;
                             ReclaimQueueTestPeer::Live(a) -= 1;
                             return "large page 6 of group 1 is not represented";
                           }},
        ReclaimQueueDefect{0x45, "KeyNewerThanPage",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Place(a, 99, 1, 3);
                             return "large 3 has timestamp 99 newer than the current 11";
                           }},
        ReclaimQueueDefect{0x56, "WrittenUndercounted",
                           [](JengaAllocator& a) {
                             ReclaimQueueTestPeer::Written(a) -= 1;
                             return "stores 10 entries but counts only 9 written";
                           }},
        ReclaimQueueDefect{0x6A, "CompactionSkipped",
                           [](JengaAllocator& a) {
                             // Stale copies a compaction should have dropped.
                             auto& side = ReclaimQueueTestPeer::Side(a);
                             for (size_t i = 0; i < 2 * 7 + JengaAllocator::kReclaimStorageFloor;
                                  ++i) {
                               side.push_back(ReclaimQueueTestPeer::Storage(a)[3]);
                               std::push_heap(side.begin(), side.end(), std::greater<>{});
                               ReclaimQueueTestPeer::Written(a) += 1;
                             }
                             return "exceed 2 x 7 live";
                           }}),
    [](const ::testing::TestParamInfo<ReclaimQueueDefect>& info) { return info.param.name; });

// Seeded defects in the per-group and pool state: each corrupts one clause of
// AllocatorAuditor::CheckState through AllocatorStateTestPeer, and CheckState must name it —
// on the whole allocator and, for a group clause, on that group alone.
struct StatePages {
  SmallPageId used = kNoSmallPage;       // Group 0, hashed; shares a large page with `evictable`.
  SmallPageId evictable = kNoSmallPage;  // Group 0.
  SmallPageId lone = kNoSmallPage;       // Group 0, unhashed; the only used page of its large.
  SmallPageId empty = kNoSmallPage;      // Group 0, next to `lone`.
  SmallPageId state = kNoSmallPage;      // Group 2 (one slot per large page), evictable.
};

struct StateDefect {
  const char* name;
  void (*seed)(JengaAllocator&, const StatePages&);
  int group;  // The group whose own CheckState must name it too; -1 for a pool clause.
  // Fragments one violation must contain.
  const char* what;
  const char* detail;
};

void PrintTo(const StateDefect& defect, std::ostream* os) { *os << defect.name; }

class AllocatorStateDefectTest : public ::testing::TestWithParam<StateDefect> {
 protected:
  // TwoGroupSpec plus a one-slot group of 768 B pages. Group 0 holds one large page with two
  // hashed used pages and one cached page, and one with a single used page and two empty
  // slots; group 1 fills a large page; group 2 holds a used and a cached page.
  AllocatorStateDefectTest() : alloc_(ThreeGroupSpec(), 768 * 8) {
    SmallPageAllocator& image = alloc_.group(0);
    std::vector<SmallPageId> pages;
    for (int i = 0; i < 4; ++i) {
      pages.push_back(*image.Allocate(1, /*now=*/i));
    }
    for (int i = 0; i < 3; ++i) {
      image.SetContentHash(pages[static_cast<size_t>(i)], 0x100 + static_cast<BlockHash>(i));
    }
    image.Release(pages[1], /*keep_cached=*/true);
    pages_.used = pages[0];
    pages_.evictable = pages[1];
    pages_.lone = pages[3];
    pages_.empty = pages[3] + 1;
    for (int i = 0; i < 2; ++i) {
      alloc_.group(1).SetContentHash(*alloc_.group(1).Allocate(2, 4), 0x200 + static_cast<BlockHash>(i));
    }
    for (int i = 0; i < 2; ++i) {
      const SmallPageId page = *alloc_.group(2).Allocate(3, 5);
      alloc_.group(2).SetContentHash(page, 0x300 + static_cast<BlockHash>(i));
      pages_.state = page;
    }
    alloc_.group(2).Release(pages_.state, /*keep_cached=*/true);
  }

  static KvSpec ThreeGroupSpec() {
    KvSpec spec = TwoGroupSpec();
    KvGroupSpec state = spec.groups[1];
    state.name = "state";
    state.tokens_per_page = 2;
    state.page_bytes = 768;
    spec.groups.push_back(state);
    return spec;
  }

  static ::testing::AssertionResult Names(const std::vector<std::string>& violations) {
    for (const std::string& v : violations) {
      if (v.find(GetParam().what) != std::string::npos &&
          v.find(GetParam().detail) != std::string::npos) {
        return ::testing::AssertionSuccess();
      }
    }
    return ::testing::AssertionFailure()
           << "no violation mentions \"" << GetParam().what << "\" and \"" << GetParam().detail
           << "\"; first: " << (violations.empty() ? std::string("none") : violations.front());
  }

  JengaAllocator alloc_;
  StatePages pages_;
};

TEST_P(AllocatorStateDefectTest, CheckStateNamesTheFault) {
  ASSERT_EQ(alloc_.group(0).state(pages_.evictable), PageState::kEvictable);
  ASSERT_EQ(alloc_.group(0).state(pages_.empty), PageState::kEmpty);
  ASSERT_EQ(alloc_.group(2).pages_per_large(), 1);
  ASSERT_EQ(alloc_.group(2).state(pages_.state), PageState::kEvictable);
  ExpectConsistent(alloc_);

  GetParam().seed(alloc_, pages_);
  EXPECT_TRUE(Names(AllocatorAuditor::CheckState(alloc_)));
  if (GetParam().group >= 0) {
    EXPECT_TRUE(Names(AllocatorAuditor::CheckState(alloc_.group(GetParam().group))));
  }
}

using Peer = AllocatorStateTestPeer;

INSTANTIATE_TEST_SUITE_P(
    Defects, AllocatorStateDefectTest,
    ::testing::Values(
        StateDefect{"LcmOwnerIsAnotherGroup",
                    [](JengaAllocator& a, const StatePages& p) {
                      SmallPageAllocator& g = a.group(0);
                      Peer::Owner(Peer::Lcm(g))[static_cast<size_t>(
                          p.used / g.pages_per_large())] = 1;
                    },
                    0, "resident large page", "is owned by group 1 in the LCM allocator"},
        StateDefect{"UsedPageWithoutRef",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.used).ref_count = 0;
                    },
                    0, "used page", "has ref_count 0"},
        StateDefect{"UsedPageInEvictor",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::EvictorOf(a.group(0)).Insert(p.used, 0, 0);
                    },
                    0, "used page", "present in evictor"},
        StateDefect{"EvictablePageWithRef",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.evictable).ref_count = 1;
                    },
                    0, "evictable page", "has ref_count 1"},
        StateDefect{"EvictablePageWithoutHash",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.evictable).has_hash = false;
                    },
                    0, "evictable page", "has no content hash"},
        StateDefect{"EvictablePageOutsideEvictor",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::EvictorOf(a.group(0)).Remove(p.evictable);
                    },
                    0, "evictable page", "missing from evictor"},
        StateDefect{"EmptyPageWithRef",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.empty).ref_count = 1;
                    },
                    0, "empty page", "carries refs or cached content"},
        StateDefect{"EmptyPageWithHash",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.empty).has_hash = true;
                    },
                    0, "empty page", "carries refs or cached content"},
        StateDefect{"EmptyPageInEvictor",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::EvictorOf(a.group(0)).Insert(p.empty, 0, 0);
                    },
                    0, "empty page", "present in evictor"},
        StateDefect{"UnbuiltEvictorHeapHoldsEntries",
                    [](JengaAllocator& a, const StatePages& p) {
                      Evictor& evictor = Peer::EvictorOf(a.group(0));
                      Peer::Heap(evictor).push_back(Peer::KeyOf(evictor, p.evictable));
                    },
                    0, "evictor heap holds 1 entries", "before it was built"},
        StateDefect{"BuiltEvictorHeapLosesLiveKey",
                    [](JengaAllocator& a, const StatePages& /*p*/) {
                      Evictor& evictor = Peer::EvictorOf(a.group(0));
                      (void)evictor.PeekOldestAccess();  // Builds the heap.
                      Peer::Heap(evictor).clear();
                    },
                    0, "live evictor key for page", "has no matching heap entry"},
        StateDefect{"BuiltEvictorHeapBroken",
                    [](JengaAllocator& a, const StatePages& p) {
                      Evictor& evictor = Peer::EvictorOf(a.group(0));
                      (void)evictor.PeekOldestAccess();  // Builds the heap.
                      auto stale = Peer::KeyOf(evictor, p.evictable);
                      stale.last_access -= 1;  // Sorts before the top: a tombstone out of place.
                      Peer::Heap(evictor).push_back(stale);
                    },
                    0, "evictor heap", "violates the heap property"},
        StateDefect{"IndexOwnerWithoutHash",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.lone).indexed = true;
                    },
                    0, "owns an index entry", "but has no content hash"},
        StateDefect{"IndexOwnerBitCleared",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.used).indexed = false;
                    },
                    0, "index ownership bit is clear", "but the index maps its hash to it"},
        StateDefect{"IndexOwnerBitOnDuplicate",
                    [](JengaAllocator& a, const StatePages& p) {
                      SmallPageAllocator& g = a.group(0);
                      Peer::Slot(g, p.lone).has_hash = true;
                      Peer::Slot(g, p.lone).hash = Peer::Slot(g, p.used).hash;
                      Peer::Slot(g, p.lone).indexed = true;
                    },
                    0, "index ownership bit is set", "but the index does not map its hash to it"},
        StateDefect{"EvictorEntryInOneSlotGroup",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::EvictorOf(a.group(2)).Insert(p.state, 5, 0);
                    },
                    2, "evictor counts 1 keys", "ground truth 0"},
        StateDefect{"LargePageCounterDrifts",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Large(a.group(0), p.used).used_count += 1;
                    },
                    0, "counts (3u/1e)", "!= recount (2u/1e)"},
        StateDefect{"GroupCounterDrifts",
                    [](JengaAllocator& a, const StatePages& /*p*/) {
                      Peer::UsedCount(a.group(0)) += 1;
                    },
                    0, "group totals", "!= recount"},
        StateDefect{"FullyEmptyLargePageResident",
                    [](JengaAllocator& a, const StatePages& p) {
                      SmallPageAllocator& g = a.group(0);
                      Peer::Slot(g, p.lone).state = PageState::kEmpty;
                      Peer::Slot(g, p.lone).ref_count = 0;
                      Peer::Large(g, p.lone).used_count -= 1;
                      Peer::UsedCount(g) -= 1;
                      Peer::EmptyCount(g) += 1;
                    },
                    0, "fully-empty large page", "was not returned to the LCM allocator"},
        StateDefect{"ByRequestRefCountDrifts",
                    [](JengaAllocator& a, const StatePages& /*p*/) {
                      Peer::ByRequestRefs(a.group(0)) += 1;
                    },
                    0, "by-request ref count", "!= recount"},
        StateDefect{"CacheIndexEntryLosesItsHash",
                    [](JengaAllocator& a, const StatePages& p) {
                      Peer::Slot(a.group(0), p.used).hash ^= 1;
                    },
                    0, "cache index entry for hash", "which does not carry it"},
        StateDefect{"LcmAllocatedCountDrifts",
                    [](JengaAllocator& a, const StatePages& p) {
                      SmallPageAllocator& g = a.group(0);
                      Peer::FreeList(Peer::Lcm(g)).push_back(p.used / g.pages_per_large());
                    },
                    -1, "LCM owner table counts", "allocated pages, allocator reports"},
        StateDefect{"BytesNotConserved",
                    [](JengaAllocator& a, const StatePages& /*p*/) {
                      Peer::EmptyCount(a.group(0)) += 1;
                    },
                    -1, "byte conservation violated", "allocated"}),
    [](const ::testing::TestParamInfo<StateDefect>& info) { return info.param.name; });

TEST(AllocatorAuditor, TracksTwoAllocatorsIndependently) {
  JengaAllocator a(TwoGroupSpec(), 768 * 2);
  JengaAllocator b(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&a);
  auditor.AttachAllocator(&b);
  EXPECT_EQ(auditor.num_attached_allocators(), 2);
  (void)*a.group(0).Allocate(1, 0);
  (void)*b.group(1).Allocate(2, 0);
  ExpectConsistent(auditor);
}

// Several subscribers on one allocator at once: the auditor, the host offload tier (which
// parks capacity evictions) and a cluster prefix-index feed (which mirrors the routing group's
// indexed hashes), driven through a pool-pressure workload with step-5 evictions,
// whole-large-page reclaims, owner releases and recompute re-hashes.

constexpr int kRoutingGroup = 1;
constexpr BlockHash kHashesPerGroup = 48;

OffloadConfig HostTierConfig() {
  OffloadConfig config;
  config.enabled = true;
  config.host_prefix_cache = true;
  config.host_pool_bytes = 1ll << 30;  // Never refuses a page.
  return config;
}

SwapCostParams Cost() {
  SwapCostParams cost;
  cost.flops_per_token = 1e9;
  cost.gpu_flops = 1e12;
  cost.gpu_mem_bandwidth = 1e12;
  cost.chunk_tokens = 1024;
  return cost;
}

// Counts the transitions the workload must reach, and every eviction payload.
struct TransitionCounter final : AuditSink {
  void OnHashUnindexed(int /*group*/, BlockHash /*hash*/, const CacheEviction* evicted) override {
    (evicted != nullptr ? evictions : unindexed_obsolete) += 1;
  }
  void OnPageEvicted(int /*group*/, SmallPageId /*page*/) override { ++pages_evicted; }
  void OnEvictorPop(int /*group*/, SmallPageId /*page*/) override { ++evictor_pops; }
  void OnLargeReclaimed(int /*group*/, LargePageId /*large*/) override { ++reclaims; }

  int64_t evictions = 0;
  int64_t unindexed_obsolete = 0;
  int64_t pages_evicted = 0;
  int64_t evictor_pops = 0;
  int64_t reclaims = 0;
};

BlockHash HashOf(int group, BlockHash n) {
  return static_cast<BlockHash>(group) * 1000 + n + 1;
}

// Random claims, hash registrations, re-hashes, hits and releases over a six-large-page pool.
class Workload {
 public:
  explicit Workload(JengaAllocator* alloc) : alloc_(alloc) {}

  void Run(int ops) {
    for (int i = 0; i < ops; ++i) {
      ++now_;
      const int group = static_cast<int>(rng_.UniformInt(0, 1));
      SmallPageAllocator& g = alloc_->group(group);
      const int64_t op = rng_.UniformInt(0, 9);
      if (op <= 3 || held_.empty()) {
        if (const auto page = g.Allocate(rng_.UniformInt(1, 6), now_)) {
          held_.push_back({group, *page, false});
          if (rng_.Bernoulli(0.8)) {
            SetHash(held_.back());
          }
        }
      } else if (op <= 4) {
        // Recompute re-hash: a block registered earlier takes a new content hash.
        Held& h = held_[static_cast<size_t>(rng_.UniformInt(0, Size() - 1))];
        if (h.hashed) {
          SetHash(h);
          ++rehashes_;
        }
      } else if (op <= 6) {
        const auto hit = g.LookupCached(HashOf(group, RandomHash()));
        if (hit.has_value()) {
          g.AddRef(*hit);
          g.UpdateLastAccess(*hit, now_);
          held_.push_back({group, *hit, true});
        }
      } else {
        const size_t at = static_cast<size_t>(rng_.UniformInt(0, Size() - 1));
        const Held h = held_[at];
        held_[at] = held_.back();
        held_.pop_back();
        alloc_->group(h.group).Release(h.page, /*keep_cached=*/rng_.Bernoulli(0.9));
      }
    }
  }

  [[nodiscard]] int64_t rehashes() const { return rehashes_; }

 private:
  struct Held {
    int group;
    SmallPageId page;
    bool hashed;
  };

  BlockHash RandomHash() {
    return static_cast<BlockHash>(rng_.UniformInt(0, kHashesPerGroup - 1));
  }
  int64_t Size() const { return static_cast<int64_t>(held_.size()); }
  void SetHash(Held& h) {
    alloc_->group(h.group).SetContentHash(h.page, HashOf(h.group, RandomHash()));
    h.hashed = true;
  }

  JengaAllocator* alloc_;
  Rng rng_{0x5B5C};
  Tick now_ = 0;
  std::vector<Held> held_;
  int64_t rehashes_ = 0;
};

// Membership of every routing-group hash in the feed's summary.
std::vector<bool> Summary(const ClusterPrefixIndex& index) {
  std::vector<bool> resident;
  for (BlockHash n = 0; n < kHashesPerGroup; ++n) {
    const std::vector<BlockHash> chain = {HashOf(kRoutingGroup, n)};
    resident.push_back(index.ResidentPrefixBlocks(0, chain) == 1);
  }
  return resident;
}

// Membership of every routing-group hash in the allocator's prefix-cache index.
std::vector<bool> Indexed(const JengaAllocator& alloc) {
  std::vector<bool> indexed;
  for (BlockHash n = 0; n < kHashesPerGroup; ++n) {
    const BlockHash hash = HashOf(kRoutingGroup, n);
    indexed.push_back(alloc.group(kRoutingGroup).LookupCached(hash).has_value());
  }
  return indexed;
}

TEST(AuditSubscribers, AuditorHostTierAndRoutingFeedShareOneAllocator) {
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 6);
  SwapManager swap(HostTierConfig(), Cost());
  ClusterPrefixIndex index(/*num_replicas=*/1, kRoutingGroup);
  AllocatorAuditor auditor;
  TransitionCounter counter;
  // Attach order is delivery order: the host tier parks each eviction before the others see
  // it, the same order KvManager::AttachOffload and the fleet drivers produce.
  alloc.SetAuditSink(swap.RegisterManager(0));
  auditor.AttachAllocator(&alloc);
  auditor.AttachSwapManager(&swap);
  alloc.SetAuditSink(index.feed(0));
  alloc.SetAuditSink(&counter);

  Workload workload(&alloc);
  for (int round = 0; round < 40; ++round) {
    workload.Run(50);
    SCOPED_TRACE(round);
    EXPECT_EQ(Summary(index), Indexed(alloc));
    // Every evicted page held its hash's index entry, so each one carried a payload, and
    // the host tier parked each payload.
    EXPECT_EQ(counter.evictions, counter.pages_evicted);
    EXPECT_EQ(counter.evictions, swap.stats().host_pages_stored);
    ExpectConsistent(auditor);
  }
  EXPECT_GT(counter.evictor_pops, 0);
  EXPECT_GT(counter.reclaims, 0);
  EXPECT_GT(counter.unindexed_obsolete, 0);
  EXPECT_GT(workload.rehashes(), 0);
  EXPECT_EQ(swap.host().rejected_inserts(), 0);
  ExpectConsistent(alloc);

  // Detaching the feed freezes its summary; the host tier and the auditor keep going.
  alloc.RemoveAuditSink(index.feed(0));
  const std::vector<bool> frozen = Summary(index);
  const int64_t frozen_count = index.ResidentHashes(0);
  const int64_t stored_before = swap.stats().host_pages_stored;
  workload.Run(1000);
  EXPECT_EQ(Summary(index), frozen);
  EXPECT_EQ(index.ResidentHashes(0), frozen_count);
  EXPECT_NE(Indexed(alloc), frozen);  // The index itself moved on.
  EXPECT_GT(swap.stats().host_pages_stored, stored_before);
  EXPECT_EQ(counter.evictions, swap.stats().host_pages_stored);
  ExpectConsistent(auditor);
  ExpectConsistent(alloc);

  auditor.DetachAll();
  alloc.RemoveAuditSink(&counter);
}

}  // namespace
}  // namespace jenga

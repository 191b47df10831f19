#include "src/audit/allocator_auditor.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/cluster/prefix_index.h"
#include "src/common/random.h"
#include "src/core/audit_events.h"
#include "src/core/jenga_allocator.h"
#include "src/model/kv_spec.h"
#include "src/offload/swap_manager.h"

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

void ExpectGreen(const AllocatorAuditor& auditor) {
  const auto violations = auditor.Audit();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(AllocatorAuditor, GreenAcrossAllocateCacheEvictCycle) {
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  ExpectGreen(auditor);

  std::vector<SmallPageId> pages;
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(1, /*now=*/i);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
    ExpectGreen(auditor);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, /*keep_cached=*/true);
    ExpectGreen(auditor);
  }
  // Cross-group reclaim: group 1 steals a large page, evicting cached image pages.
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/10).has_value());
  ExpectGreen(auditor);
  // Cache revival through the prefix index.
  const auto revived = alloc.group(0).LookupCached(0x103);
  if (revived.has_value()) {
    alloc.group(0).AddRef(*revived);
    ExpectGreen(auditor);
    alloc.group(0).Release(*revived, true);
    ExpectGreen(auditor);
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
  ExpectGreen(auditor);
  // And it keeps tracking transitions from that seeded state.
  alloc.group(1).Release(pages[1], false);
  ExpectGreen(auditor);
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
  ExpectGreen(auditor);  // Nothing attached: trivially green.
}

TEST(AllocatorAuditor, InjectedShadowFaultIsDetected) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  (void)*alloc.group(0).Allocate(1, 0);
  ExpectGreen(auditor);
  auditor.InjectShadowFaultForTest();
  EXPECT_FALSE(auditor.Audit().empty());
  EXPECT_TRUE(auditor.FirstViolation().has_value());
}

TEST(AllocatorAuditor, TracksTwoAllocatorsIndependently) {
  JengaAllocator a(TwoGroupSpec(), 768 * 2);
  JengaAllocator b(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&a);
  auditor.AttachAllocator(&b);
  EXPECT_EQ(auditor.num_attached_allocators(), 2);
  (void)*a.group(0).Allocate(1, 0);
  (void)*b.group(1).Allocate(2, 0);
  ExpectGreen(auditor);
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
    ExpectGreen(auditor);
  }
  EXPECT_GT(counter.evictor_pops, 0);
  EXPECT_GT(counter.reclaims, 0);
  EXPECT_GT(counter.unindexed_obsolete, 0);
  EXPECT_GT(workload.rehashes(), 0);
  EXPECT_EQ(swap.host().rejected_inserts(), 0);
  alloc.CheckConsistency();

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
  ExpectGreen(auditor);
  alloc.CheckConsistency();

  auditor.DetachAll();
  alloc.RemoveAuditSink(&counter);
}

}  // namespace
}  // namespace jenga

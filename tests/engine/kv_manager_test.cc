#include "src/engine/kv_manager.h"

#include <gtest/gtest.h>

#include "src/audit/allocator_auditor.h"
#include "src/common/math_util.h"
#include "src/model/model_zoo.h"
#include "src/offload/swap_manager.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

constexpr int kBs = 16;

KvManager::Options JengaOptions(bool caching = true, int tokens_per_image = 0) {
  KvManager::Options options;
  options.tokens_per_page = kBs;
  options.enable_prefix_caching = caching;
  options.jenga = true;
  options.tokens_per_image = tokens_per_image;
  return options;
}

KvManager::Options BaselineOptions(bool caching = true) {
  KvManager::Options options = JengaOptions(caching);
  options.jenga = false;
  return options;
}

std::unique_ptr<KvManager> MakeJengaManager(const ModelConfig& model, int64_t pool,
                                            bool caching = true) {
  const KvSpec spec = MakeJengaSpec(model, kBs, model.vision.present);
  return std::make_unique<KvManager>(spec, spec, pool,
                                     JengaOptions(caching, model.vision.tokens_per_image));
}

std::unique_ptr<KvManager> MakeBaselineManager(const ModelConfig& model, int64_t pool,
                                               bool caching = true) {
  return std::make_unique<KvManager>(MakeHomogeneousSpec(model, kBs),
                                     MakeJengaSpec(model, kBs, /*vision_cache=*/false), pool,
                                     BaselineOptions(caching));
}

// Drives a request through the manager as the engine would: allocate, advance, notify.
void ComputeTokens(KvManager& kv, Request& r, int64_t n, Tick now) {
  ASSERT_TRUE(kv.AllocateForTokens(r, n, now));
  r.num_computed_tokens += n;
  kv.OnStepComputed(r, now);
}

// Index of the first alloc-spec group of `kind`, or -1.
int GroupOf(const KvManager& kv, GroupKind kind) {
  const KvSpec& spec = kv.alloc_spec();
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    if (spec.groups[static_cast<size_t>(g)].kind == kind) {
      return g;
    }
  }
  return -1;
}

// Per group, which blocks of `r`'s block table are holes.
std::vector<std::vector<bool>> HoleLayout(const KvManager& kv, const Request& r) {
  std::vector<std::vector<bool>> layout;
  for (int g = 0; g < kv.allocator().num_groups(); ++g) {
    std::vector<bool>& holes = layout.emplace_back();
    for (const SmallPageId page : kv.block_table(r, g)) {
      holes.push_back(page == kNoSmallPage);
    }
  }
  return layout;
}

// The footprint Preempt would snapshot for `r` from this one manager.
SwapFootprint FootprintOf(const KvManager& kv, const Request& r) {
  SwapFootprint fp;
  fp.tokens = r.num_computed_tokens;
  kv.AddSwapFootprint(r, &fp);
  return fp;
}

TEST(KvManagerSpecBuilders, HomogeneousSumsLayers) {
  const KvSpec spec = MakeHomogeneousSpec(TinyFullModel(), kBs);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].BytesPerToken(), 4 * 256);
  EXPECT_EQ(spec.groups[0].page_bytes, kBs * 1024);
}

TEST(KvManagerSpecBuilders, HomogeneousOverride) {
  const KvSpec spec = MakeHomogeneousSpec(TinyFullModel(), kBs, /*bytes_per_token_override=*/4096);
  EXPECT_EQ(spec.groups[0].BytesPerToken(), 4096);
}

TEST(KvManagerSpecBuilders, MambaReservation) {
  EXPECT_EQ(StaticMambaReservationBytes(TinyMambaModel(), 10), 3 * 8192 * 10);
}

TEST(KvManager, AllocatesBlocksForPromptProgress) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request r = MakeRequest(1, TextPrompt(100), 10, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 100, 1);
  // 100 tokens → 7 blocks of 16 in the single full-attention group.
  EXPECT_EQ(kv->allocator().group(0).GetStats().used_pages, 7);
  kv->Release(r, 2);
  EXPECT_EQ(kv->allocator().group(0).GetStats().used_pages, 0);
  kv->CheckConsistency();
}

TEST(KvManager, PrefixHitOnIdenticalPrompt) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request a = MakeRequest(1, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(a, 1);
  EXPECT_EQ(a.cached_prefix_tokens, 0);
  ComputeTokens(*kv, a, 100, 1);
  kv->Release(a, 2);

  Request b = MakeRequest(2, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(b, 3);
  // 100 tokens → 6 full blocks cacheable (the 7th is partial); hit = 96 tokens.
  EXPECT_EQ(b.cached_prefix_tokens, 96);
  EXPECT_EQ(b.num_computed_tokens, 96);
  EXPECT_EQ(kv->total_cache_hit_tokens(), 96);
  kv->CheckConsistency();
}

TEST(KvManager, FullBlockAlignedPromptHitsAllButOneBlock) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request a = MakeRequest(1, TextPrompt(64), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 64, 1);
  kv->Release(a, 2);
  Request b = MakeRequest(2, TextPrompt(64), 4, 0.0);
  kv->OnAdmit(b, 3);
  // A full hit would leave nothing to compute; the manager caps at 48 of 64.
  EXPECT_EQ(b.cached_prefix_tokens, 48);
}

TEST(KvManager, NoHitWhenCachingDisabled) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  Request a = MakeRequest(1, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 100, 1);
  kv->Release(a, 2);
  // With caching off, releasing returns all memory to the pool.
  EXPECT_EQ(kv->allocator().lcm().num_allocated(), 0);
  Request b = MakeRequest(2, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, 0);
}

TEST(KvManager, SlidingWindowDropsOutOfWindowPages) {
  const ModelConfig model = TinySlidingModel(/*window=*/64);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  // Full group: 20 blocks; sliding group: only the last 4 blocks (64 tokens) remain used.
  const KvSpec& spec = kv->alloc_spec();
  int full = -1;
  int sliding = -1;
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    if (spec.groups[g].kind == GroupKind::kFullAttention) {
      full = g;
    }
    if (spec.groups[g].kind == GroupKind::kSlidingWindow) {
      sliding = g;
    }
  }
  ASSERT_GE(full, 0);
  ASSERT_GE(sliding, 0);
  EXPECT_EQ(kv->allocator().group(full).GetStats().used_pages, 20);
  EXPECT_EQ(kv->allocator().group(sliding).GetStats().used_pages, 4);
  kv->CheckConsistency();
}

TEST(KvManager, BaselineKeepsEverything) {
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeBaselineManager(model, 1 << 22, /*caching=*/false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  EXPECT_EQ(kv->allocator().group(0).GetStats().used_pages, 20);
  // Fig. 16 accounting: the baseline wastes the out-of-window sliding KV.
  const auto stats = kv->GetMemoryStats();
  EXPECT_GT(stats.wasted_bytes, 0);
  // Needed = full layers × 320 + sliding layers × 64 tokens.
  EXPECT_EQ(stats.needed_bytes, 2LL * 256 * 320 + 2LL * 256 * 64);
  kv->CheckConsistency();
}

TEST(KvManager, JengaWasteIsNearZero) {
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  const auto stats = kv->GetMemoryStats();
  // Waste is bounded by partial blocks + unused smalls inside the requests' large pages.
  EXPECT_LT(static_cast<double>(stats.wasted_bytes),
            0.1 * static_cast<double>(stats.used_bytes));
  kv->CheckConsistency();
}

TEST(KvManager, SlidingWindowPrefixHitSurvivesPartialEviction) {
  // After the donor request, evict nothing: the successor must hit. The sliding group's
  // out-of-window pages were dropped (holes), yet the window blocks are cached, so the
  // sliding policy accepts the prefix and the full-attention group gates the hit.
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/true);
  Request a = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 320, 1);
  kv->Release(a, 2);
  Request b = MakeRequest(2, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, 304);  // 19 of 20 blocks (cap leaves one to compute).
  kv->CheckConsistency();
}

TEST(KvManager, MambaStateAndCheckpoints) {
  const ModelConfig model = TinyMambaModel();
  auto kv = MakeJengaManager(model, 1 << 24, /*caching=*/true);
  Request r = MakeRequest(1, TextPrompt(1200), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 1200, 1);
  const KvSpec& spec = kv->alloc_spec();
  int mamba = -1;
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    if (spec.groups[g].kind == GroupKind::kMamba) {
      mamba = g;
    }
  }
  ASSERT_GE(mamba, 0);
  // One live state page + two checkpoint snapshots (512, 1024) already evictable.
  EXPECT_EQ(kv->allocator().group(mamba).GetStats().used_pages, 1);
  EXPECT_EQ(kv->allocator().group(mamba).GetStats().evictable_pages, 2);
  kv->Release(r, 2);

  // A successor with the same prompt restores from the 1024-token checkpoint; the hit must be
  // a multiple of the checkpoint interval (gated by the Mamba group).
  Request b = MakeRequest(2, TextPrompt(1200), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, 1024);
  kv->CheckConsistency();
}

TEST(KvManager, VisionPagesFreedAsConsumed) {
  const ModelConfig model = TinyVisionModel();
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  // 16 text, 4 images × 8 tokens = 32 image tokens, then 16 text.
  Request r = MakeRequest(1, MixedPrompt(16, 4, 8, 16), 4, 0.0);
  kv->OnAdmit(r, 1);
  const KvSpec& spec = kv->alloc_spec();
  int vision = -1;
  int cross = -1;
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    if (spec.groups[g].kind == GroupKind::kVisionEmbed) {
      vision = g;
    }
    if (spec.groups[g].kind == GroupKind::kCrossAttention) {
      cross = g;
    }
  }
  ASSERT_GE(vision, 0);
  ASSERT_GE(cross, 0);
  // First chunk covers the leading text only; all vision pages (2 blocks of 16) allocated.
  ComputeTokens(*kv, r, 16, 1);
  EXPECT_EQ(kv->allocator().group(vision).GetStats().used_pages, 2);
  // Consume all image tokens: vision embeddings are freed (§6.2 allocate-on-demand mode).
  ComputeTokens(*kv, r, 32, 2);
  EXPECT_EQ(kv->allocator().group(vision).GetStats().used_pages, 0);
  // Cross-attention KV for the 32 image tokens stays: 2 blocks.
  EXPECT_EQ(kv->allocator().group(cross).GetStats().used_pages, 2);
  ComputeTokens(*kv, r, 16, 3);
  kv->CheckConsistency();
}

TEST(KvManager, RollbackOnOutOfMemory) {
  const ModelConfig model = TinyFullModel();
  // Pool of exactly 4 large pages (page = 16 KiB here): 64 blocks... make it tiny: 2 pages.
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 2, JengaOptions(false));
  Request r = MakeRequest(1, TextPrompt(16 * 3), 4, 0.0);
  kv->OnAdmit(r, 1);
  // Only 2 blocks fit; allocation of 3 must fail and roll back cleanly.
  EXPECT_FALSE(kv->AllocateForTokens(r, 48, 1));
  EXPECT_EQ(kv->allocator().lcm().num_allocated(), 0);
  EXPECT_TRUE(kv->AllocateForTokens(r, 32, 1));
  kv->CheckConsistency();
}

TEST(KvManager, CanAllocateReflectsCapacity) {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 64, JengaOptions(false));
  Request r = MakeRequest(1, TextPrompt(512), 4, 0.0);
  EXPECT_TRUE(kv->CanAllocate(r, 512));
  Request big = MakeRequest(2, TextPrompt(16 * 65), 4, 0.0);
  EXPECT_FALSE(kv->CanAllocate(big, 16 * 65));
}

TEST(KvManager, DecodeKvReadBytesFollowsDependencies) {
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22, false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  // 2 full layers read 320 tokens, 2 sliding layers read 64.
  EXPECT_EQ(kv->DecodeKvReadBytes(r), 2LL * 256 * 320 + 2LL * 256 * 64);
}

TEST(KvManager, SharedPrefixAcrossConcurrentRequests) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request a = MakeRequest(1, TextPrompt(160), 8, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 160, 1);
  // b admits while a still runs: shares a's used pages via ref counting.
  Request b = MakeRequest(2, TextPrompt(160), 8, 0.0);
  kv->OnAdmit(b, 2);
  EXPECT_EQ(b.cached_prefix_tokens, 144);
  const auto stats = kv->allocator().group(0).GetStats();
  EXPECT_EQ(stats.used_pages, 10);  // No duplicate pages for the shared blocks.
  kv->Release(a, 3);
  kv->Release(b, 3);
  kv->CheckConsistency();
}

TEST(KvManager, FinishedReleaseDropsRequestAffinityState) {
  // Finishing a request must not leak per-request free-ref map entries in any group; a
  // preempting release keeps them (the id re-admits and §4.3 placement wants its affinity).
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22);
  for (RequestId id = 1; id <= 20; ++id) {
    Request r = MakeRequest(id, TextPrompt(100), 4, 0.0);
    kv->OnAdmit(r, id);
    // Later iterations admit with a cached prefix; only the remainder gets computed.
    ComputeTokens(*kv, r, 100 - r.num_computed_tokens, id);
    kv->Release(r, id + 1, /*finished=*/true);
  }
  for (int g = 0; g < kv->allocator().num_groups(); ++g) {
    EXPECT_EQ(kv->allocator().group(g).GetFreeListStats().tracked_requests, 0)
        << "group " << g << " leaked affinity entries for finished requests";
  }
  kv->CheckConsistency();

  // Preemption-style release (finished=false) keeps the affinity entry alive. Both sliding-
  // model groups share one page size, so each large page is a single small page and leaves
  // no empty slots to remember; the Mamba model's attention group packs several per large.
  auto mixed = MakeJengaManager(TinyMambaModel(), 1 << 22);
  Request r = MakeRequest(99, TextPrompt(100), 4, 0.0);
  mixed->OnAdmit(r, 50);
  ComputeTokens(*mixed, r, 100 - r.num_computed_tokens, 50);
  mixed->Release(r, 51);
  int64_t tracked = 0;
  int max_pages_per_large = 0;
  for (int g = 0; g < mixed->allocator().num_groups(); ++g) {
    tracked += mixed->allocator().group(g).GetFreeListStats().tracked_requests;
    max_pages_per_large =
        std::max(max_pages_per_large, mixed->allocator().group(g).pages_per_large());
  }
  ASSERT_GT(max_pages_per_large, 1);
  EXPECT_GT(tracked, 0);
  mixed->CheckConsistency();
}

TEST(KvManager, PyramidKeepsSinkBlocksAndDropsTheMiddle) {
  // Budget 48 with 4 sinks: at 320 tokens the layer reads [0, 4) and [276, 320), so block 0
  // and blocks 17-19 stay; blocks 1-16 become holes as the window slides past them.
  const ModelConfig model = TinyPyramidModel(/*budget=*/48);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  for (Tick t = 1; r.num_computed_tokens < 320; ++t) {
    ComputeTokens(*kv, r, kBs, t);
  }
  const int pyramid = GroupOf(*kv, GroupKind::kSparsePyramid);
  const int full = GroupOf(*kv, GroupKind::kFullAttention);
  ASSERT_GE(pyramid, 0);
  ASSERT_GE(full, 0);
  const std::vector<SmallPageId>& table = kv->block_table(r, pyramid);
  ASSERT_EQ(table.size(), 20u);
  for (size_t j = 0; j < table.size(); ++j) {
    const bool kept = j == 0 || j >= 17;
    EXPECT_EQ(table[j] != kNoSmallPage, kept) << "block " << j;
  }
  EXPECT_EQ(kv->allocator().group(pyramid).GetStats().used_pages, 4);
  for (const SmallPageId page : kv->block_table(r, full)) {
    EXPECT_NE(page, kNoSmallPage);
  }
  kv->CheckConsistency();
}

TEST(KvManager, SwapRoundTripRestoresHoleLayoutAndFingerprint) {
  const ModelConfig model = TinyPyramidModel(/*budget=*/48);
  auto kv = MakeJengaManager(model, 1 << 22);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&kv->allocator_mutable());
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  for (Tick t = 1; r.num_computed_tokens < 320; ++t) {
    ComputeTokens(*kv, r, kBs, t);
  }
  const std::vector<std::vector<bool>> layout = HoleLayout(*kv, r);
  const SwapFootprint before = FootprintOf(*kv, r);
  ASSERT_EQ(before.fingerprints.size(), 1u);
  // 20 full-attention blocks resident and swappable; the pyramid group's 4 are recomputed.
  const int64_t page_bytes = kv->alloc_spec().groups[0].page_bytes;
  EXPECT_EQ(before.resident_bytes, 24 * page_bytes);
  EXPECT_EQ(before.swappable_bytes, 20 * page_bytes);
  EXPECT_GT(before.drop_recompute_bytes, 0);

  kv->Release(r, 30);
  // RestoreFromSwap check-fails on a fingerprint mismatch, so success is the round trip.
  ASSERT_TRUE(kv->RestoreFromSwap(r, before.tokens, before.fingerprints[0], 31));
  EXPECT_EQ(r.num_computed_tokens, 320);
  EXPECT_EQ(HoleLayout(*kv, r), layout);
  const SwapFootprint after = FootprintOf(*kv, r);
  EXPECT_EQ(after.fingerprints, before.fingerprints);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  EXPECT_TRUE(auditor.Audit().empty()) << auditor.FirstViolation().value_or("");
  kv->CheckConsistency();
}

TEST(KvManager, FailedRestoreLeavesAllocatorUntouched) {
  // One small page per large page in both groups, so the pool counts blocks. Restoring 320
  // tokens needs 20 full-attention blocks, then the pyramid group's runs {0} and {17, 18, 19}.
  // With 21 pages free the second pyramid run fails after 21 pages were claimed.
  const ModelConfig model = TinyPyramidModel(/*budget=*/48);
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  ASSERT_EQ(spec.groups[0].kind, GroupKind::kFullAttention);
  ASSERT_EQ(spec.groups[1].kind, GroupKind::kSparsePyramid);
  ASSERT_EQ(spec.LcmPageBytes(), spec.groups[0].page_bytes);
  ASSERT_EQ(spec.LcmPageBytes(), spec.groups[1].page_bytes);
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 27,
                                        JengaOptions(/*caching=*/false));
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&kv->allocator_mutable());
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  for (Tick t = 1; r.num_computed_tokens < 320; ++t) {
    ComputeTokens(*kv, r, kBs, t);
  }
  const SwapFootprint fp = FootprintOf(*kv, r);
  kv->Release(r, 30);
  Request other = MakeRequest(2, TextPrompt(48), 4, 0.0);
  kv->OnAdmit(other, 31);
  ASSERT_TRUE(kv->AllocateForTokens(other, 48, 31));  // 3 blocks in each group: 21 free.

  const JengaAllocator::MemoryBreakdown before = kv->allocator().GetBreakdown();
  EXPECT_FALSE(kv->RestoreFromSwap(r, fp.tokens, fp.fingerprints[0], 32));
  const JengaAllocator::MemoryBreakdown after = kv->allocator().GetBreakdown();
  EXPECT_EQ(after.allocated_bytes, before.allocated_bytes);
  EXPECT_EQ(after.used_bytes, before.used_bytes);
  EXPECT_EQ(after.evictable_bytes, before.evictable_bytes);
  EXPECT_EQ(after.empty_bytes, before.empty_bytes);
  EXPECT_EQ(after.unallocated_bytes, before.unallocated_bytes);
  EXPECT_EQ(r.num_computed_tokens, 0);
  EXPECT_TRUE(auditor.Audit().empty()) << auditor.FirstViolation().value_or("");
  kv->CheckConsistency();

  // The failed restore left `r` untracked (RestoreFromSwap check-fails on a tracked request):
  // once the pool has room, the same snapshot restores. 27 free pages hold the 24 blocks of
  // the needed windows, not the 40 of a restore that skipped no dropped block.
  kv->Release(other, 33, /*finished=*/true);
  ASSERT_TRUE(kv->RestoreFromSwap(r, fp.tokens, fp.fingerprints[0], 34));
  EXPECT_TRUE(auditor.Audit().empty()) << auditor.FirstViolation().value_or("");
}

}  // namespace
}  // namespace jenga

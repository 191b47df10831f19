#include "src/engine/kv_manager.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <ostream>

#include "src/audit/allocator_auditor.h"
#include "src/common/math_util.h"
#include "src/common/random.h"
#include "src/core/policy_factory.h"
#include "src/model/model_zoo.h"
#include "src/offload/swap_manager.h"
#include "tests/engine/test_models.h"

namespace jenga {

// Runs KvManager's grow in its two halves: the counter-only feasibility bound and the §5.4 claim
// walk. The differential test below uses it to run the walk without the bound on a twin. It
// also turns a manager into the full-walk reference of the event-driven step.
struct KvManagerTestPeer {
  // Whether the bound admits growing `r` to `tokens` computed tokens; an untracked `r` is
  // planned from empty block tables, as RestoreFromSwap starts from.
  static bool Fits(const KvManager& kv, const Request& r, int64_t tokens, bool leave_dropped) {
    RequestKv fresh;
    fresh.groups.resize(kv.spec_.groups.size());
    const RequestKv* state = kv.FindState(r);
    const KvManager::GrowPlan plan =
        kv.PlanGrow(r, state == nullptr ? fresh : *state, tokens, leave_dropped);
    return !plan.beyond_empties || kv.GrowFits(plan);
  }
  // AllocateForTokens without the bound.
  static bool AllocateUnchecked(KvManager& kv, const Request& r, int64_t n, Tick now) {
    RequestKv& state = kv.StateOf(r);
    return kv.ClaimGrow(r, state, kv.PlanGrow(r, state, r.num_computed_tokens + n, false), now);
  }
  // RestoreFromSwap's grow without the bound. Leaves `r` tracked with the claimed tables on
  // success (the bookkeeping replay is skipped) and untracked on failure.
  static bool RestoreGrowUnchecked(KvManager& kv, Request& r, int64_t tokens, Tick now) {
    RequestKv& state = kv.TrackRequest(r);
    if (!kv.ClaimGrow(r, state, kv.PlanGrow(r, state, tokens, true), now)) {
      kv.Untrack(r);
      return false;
    }
    return true;
  }
  // Forgets both event counts of `r`: its next grow is planned and its next commit walks.
  static void InvalidateCounts(KvManager& kv, const Request& r) {
    RequestKv& state = kv.StateOf(r);
    state.grow_limit = -1;
    state.next_event = -1;
  }
  // Every group refreshes last-access through its policy at every commit, nothing deferred.
  static void RefreshEveryStep(KvManager& kv) {
    kv.defer_refresh_.assign(kv.defer_refresh_.size(), false);
  }
  static uint64_t Fingerprint(const KvManager& kv, const Request& r) {
    return kv.StateFingerprint(kv.StateOf(r));
  }
  static int64_t NeededBytes(const KvManager& kv, const Request& r) {
    return kv.StateOf(r).needed_bytes;
  }
  static int64_t NextEvent(const KvManager& kv, const Request& r) {
    return kv.StateOf(r).next_event;
  }
};

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
  kv->Release(r);
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
  kv->Release(a);

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
  kv->Release(a);
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
  kv->Release(a);
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
  kv->Release(a);
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
  kv->Release(r);

  // A successor with the same prompt restores from the 1024-token checkpoint; the hit must be
  // a multiple of the checkpoint interval (gated by the Mamba group).
  Request b = MakeRequest(2, TextPrompt(1200), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, 1024);
  kv->CheckConsistency();
}

TEST(KvManager, MambaWholePromptReAdmissionHitsACheckpoint) {
  // A 1024-token prompt ends on a checkpoint, so every group is valid at the whole prompt. A hit
  // leaves at least one token to compute, so it must fall back to the 512-token checkpoint
  // rather than to the unaligned boundary one block below the prompt end.
  const ModelConfig model = TinyMambaModel();
  auto kv = MakeJengaManager(model, 1 << 24, /*caching=*/true);
  Request a = MakeRequest(1, TextPrompt(1024), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 1024, 1);
  kv->Release(a, /*finished=*/true);

  Request b = MakeRequest(2, TextPrompt(1024), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, kMambaCheckpointInterval);
  kv->CheckConsistency();
}

TEST(KvManager, SlidingWindowHitNeedsTheBlockBeforeItsWindow) {
  // At the whole 320-token prompt the window reads blocks 16..19 only, but a hit must stop below
  // the prompt end, and at 304 tokens the window also reads block 15. Pressure evicts sliding
  // blocks 0..15, so no boundary below the prompt end has its window resident: nothing is hit,
  // where a step back from the whole prompt would admit 304 tokens with block 15 missing.
  const ModelConfig model = TinySlidingModel(64);
  constexpr int64_t kLargePages = 44;
  const int64_t large_bytes = MakeJengaSpec(model, kBs, false).groups[0].page_bytes;
  auto kv = MakeJengaManager(model, kLargePages * large_bytes, /*caching=*/true);
  ASSERT_EQ(kv->allocator().lcm().num_pages(), kLargePages);
  const int sliding = GroupOf(*kv, GroupKind::kSlidingWindow);
  ASSERT_GE(sliding, 0);

  Request a = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 304, 1);  // Drops sliding blocks 0..14, last touched at tick 1.
  ComputeTokens(*kv, a, 16, 2);   // Drops block 15, last touched at tick 1.
  kv->Release(a, /*finished=*/true);  // Every other page was last touched at tick 2.

  // 20 pages over 4 free large pages reclaim the 16 oldest: exactly sliding blocks 0..15.
  Request c = MakeRequest(3, TextPrompt(160, /*base=*/5000), 4, 0.0);
  kv->OnAdmit(c, 4);
  ASSERT_TRUE(kv->AllocateForTokens(c, 160, 4));
  const std::vector<BlockHash> hashes =
      ChainBlockHashes(a.prompt.tokens, kBs, GroupChainSalt(sliding));
  const SmallPageAllocator& alloc = kv->allocator().group(sliding);
  for (size_t j = 0; j < hashes.size(); ++j) {
    ASSERT_EQ(alloc.LookupCached(hashes[j]).has_value(), j >= 16) << "sliding block " << j;
  }

  Request b = MakeRequest(2, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(b, 5);
  EXPECT_EQ(b.cached_prefix_tokens, 0);
  kv->CheckConsistency();
}

// The token stream of `r` that a `scope` group hashes, rebuilt from all_tokens and the prompt's
// token kinds.
std::vector<int32_t> GroupStream(const Request& r, GroupScope scope) {
  std::vector<int32_t> stream;
  for (int64_t i = 0; i < static_cast<int64_t>(r.all_tokens.size()); ++i) {
    const bool image = i < r.prompt_len() && r.prompt.kind(i) == TokenKind::kImage;
    const bool in_stream = scope == GroupScope::kImageTokens  ? image
                           : scope == GroupScope::kTextTokens ? !image
                                                              : true;
    if (in_stream) {
      stream.push_back(r.all_tokens[static_cast<size_t>(i)]);
    }
  }
  return stream;
}

TEST(KvManager, RegisteredHashesMatchAnIndependentChain) {
  // After decoding past the prompt, every whole hit unit of every group — the prompt's and the
  // ones past it — is resident under the hash a from-scratch chain over the group's stream
  // gives it. Covers the text-scoped block that straddles the prompt end (67 prompt text
  // tokens), Mamba checkpoints past the prompt (1024 of 1100), and an all-token group.
  struct Case {
    ModelConfig model;
    Prompt prompt;
    int64_t generated;
  };
  const std::vector<Case> cases = {{TinyVisionModel(), MixedPrompt(30, 3, 8, 37), 40},
                                   {TinyMambaModel(), TextPrompt(700), 400}};
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.model.name);
    auto kv = MakeJengaManager(tc.model, 1 << 24, /*caching=*/true);
    Request r = MakeRequest(1, tc.prompt, tc.generated + 1, 0.0);
    kv->OnAdmit(r, 1);
    ComputeTokens(*kv, r, r.prompt_len(), 1);
    for (int64_t i = 0; i < tc.generated; ++i) {
      r.AppendGenerated(static_cast<int32_t>(7000 + i));
      ComputeTokens(*kv, r, 1, 2 + i);
    }
    const KvSpec& spec = kv->alloc_spec();
    for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
      const KvGroupSpec& group = spec.groups[static_cast<size_t>(g)];
      const int unit = group.kind == GroupKind::kMamba ? kMambaCheckpointInterval : kBs;
      const std::vector<int32_t> stream = GroupStream(r, group.scope);
      const std::vector<BlockHash> hashes = ChainBlockHashes(stream, unit, GroupChainSalt(g));
      if (group.scope != GroupScope::kImageTokens) {
        // Some unit lies past the prompt.
        EXPECT_GT(static_cast<int64_t>(hashes.size()) * unit,
                  static_cast<int64_t>(stream.size()) - tc.generated);
      }
      for (size_t j = 0; j < hashes.size(); ++j) {
        EXPECT_TRUE(kv->allocator().group(g).LookupCached(hashes[j]).has_value())
            << GroupKindName(group.kind) << " unit " << j;
      }
    }
    kv->Release(r, /*finished=*/true);
    kv->CheckConsistency();
  }
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
  kv->Release(a);
  kv->Release(b);
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
    kv->Release(r, /*finished=*/true);
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
  mixed->Release(r);
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

  kv->Release(r);
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
  kv->Release(r);
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
  kv->Release(other, /*finished=*/true);
  ASSERT_TRUE(kv->RestoreFromSwap(r, fp.tokens, fp.fingerprints[0], 34));
  EXPECT_TRUE(auditor.Audit().empty()) << auditor.FirstViolation().value_or("");
}

// Number of `r`'s KV handles that point into `kv`.
int HandlesInto(const KvManager& kv, const Request& r) {
  int n = 0;
  for (const KvHandle& handle : r.kv_handles) {
    if (handle.manager == &kv) {
      EXPECT_NE(handle.state, nullptr);
      ++n;
    }
  }
  return n;
}

TEST(KvManager, KvHandlesNeverGoStale) {
  // The pool setup of FailedRestoreLeavesAllocatorUntouched: 27 pages, one per large page.
  const ModelConfig model = TinyPyramidModel(/*budget=*/48);
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 27,
                                        JengaOptions(/*caching=*/false));
  auto twin = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 27,
                                          JengaOptions(/*caching=*/false));
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  twin->OnAdmit(r, 1);
  EXPECT_EQ(HandlesInto(*kv, r), 1);
  EXPECT_EQ(HandlesInto(*twin, r), 1);
  for (Tick t = 1; r.num_computed_tokens < 320; ++t) {
    ASSERT_TRUE(kv->AllocateForTokens(r, kBs, t));
    ASSERT_TRUE(twin->AllocateForTokens(r, kBs, t));
    r.num_computed_tokens += kBs;
    kv->OnStepComputed(r, t);
    twin->OnStepComputed(r, t);
  }
  // A request tracked by two managers (the speculative engine's pair) releases them apart.
  twin->Release(r, /*finished=*/true);
  EXPECT_EQ(HandlesInto(*twin, r), 0);
  EXPECT_EQ(HandlesInto(*kv, r), 1);

  // Swap out, then restore: the restored state is reached through a live handle.
  const SwapFootprint fp = FootprintOf(*kv, r);
  kv->Release(r);
  EXPECT_EQ(HandlesInto(*kv, r), 0);
  ASSERT_TRUE(kv->RestoreFromSwap(r, fp.tokens, fp.fingerprints[0], 31));
  EXPECT_EQ(HandlesInto(*kv, r), 1);
  EXPECT_EQ(FootprintOf(*kv, r).fingerprints, fp.fingerprints);
  ASSERT_TRUE(kv->AllocateForTokens(r, 1, 32));

  // A failed restore leaves no handle behind.
  const SwapFootprint fp2 = FootprintOf(*kv, r);
  kv->Release(r);
  Request other = MakeRequest(2, TextPrompt(48), 4, 0.0);
  kv->OnAdmit(other, 34);
  ASSERT_TRUE(kv->AllocateForTokens(other, 48, 34));  // 3 blocks in each group: 21 free.
  EXPECT_FALSE(kv->RestoreFromSwap(r, fp2.tokens, fp2.fingerprints[0], 35));
  EXPECT_EQ(HandlesInto(*kv, r), 0);
  EXPECT_DEATH((void)kv->block_table(r, 0), "not admitted");

  // Released (preempted), then re-admitted under the same id: a fresh handle to a fresh state.
  kv->Release(other);
  EXPECT_EQ(HandlesInto(*kv, other), 0);
  other.num_computed_tokens = 0;
  kv->OnAdmit(other, 37);
  EXPECT_EQ(HandlesInto(*kv, other), 1);
  EXPECT_TRUE(kv->block_table(other, 0).empty());
  ComputeTokens(*kv, other, 48, 37);
  EXPECT_EQ(kv->block_table(other, 0).size(), 3u);
  kv->Release(other, /*finished=*/true);
  EXPECT_FALSE(kv->tracks_requests());
  kv->CheckConsistency();
}

// Counts every audit event; a grow the feasibility bound rejects must emit none.
class EventCounter final : public AuditSink {
 public:
  int64_t events = 0;
  int64_t claims = 0;
  int64_t acquisitions = 0;
  int64_t bulk = 0;
  int64_t evictions = 0;
  int64_t reclaims = 0;
  std::array<int64_t, KvManager::kMaxGroups> claims_in{};
  std::array<int64_t, KvManager::kMaxGroups> cached_in{};
  void OnLargeAcquired(int, LargePageId, RequestId) override { ++events, ++acquisitions; }
  void OnLargeReleased(int, LargePageId) override { ++events; }
  void OnPageClaimed(int g, SmallPageId, RequestId) override {
    ++events, ++claims, ++claims_in[static_cast<size_t>(g)];
  }
  void OnPageRevived(int, SmallPageId) override { ++events; }
  void OnPageCached(int g, SmallPageId, BlockHash) override {
    ++events, ++cached_in[static_cast<size_t>(g)];
  }
  void OnPageEmptied(int, SmallPageId) override { ++events; }
  void OnPageEvicted(int, SmallPageId) override { ++events, ++evictions; }
  void OnRequestForgotten(int, RequestId) override { ++events; }
  void OnBulkAllocate(int, RequestId, int64_t) override { ++events, ++bulk; }
  void OnEvictorInsert(int, SmallPageId, Tick, int64_t) override { ++events; }
  void OnEvictorRemove(int, SmallPageId) override { ++events; }
  void OnEvictorRekey(int, SmallPageId, Tick, int64_t) override { ++events; }
  void OnEvictorPop(int, SmallPageId) override { ++events; }
  void OnReclaimPushed(int, LargePageId, Tick) override { ++events; }
  void OnLargeReclaimed(int, LargePageId) override { ++events, ++reclaims; }
};

// Everything a grow could disturb, as counters and free-list sizes.
struct AllocatorFootprint {
  JengaAllocator::MemoryBreakdown breakdown;
  std::vector<SmallPageAllocator::Stats> stats;
  std::vector<SmallPageAllocator::FreeListStats> free_lists;
  int32_t lcm_free = 0;
  size_t reclaim_entries = 0;

  explicit AllocatorFootprint(const JengaAllocator& alloc)
      : breakdown(alloc.GetBreakdown()),
        lcm_free(alloc.lcm().num_free()),
        reclaim_entries(alloc.reclaim_heap_entries()) {
    for (int g = 0; g < alloc.num_groups(); ++g) {
      stats.push_back(alloc.group(g).GetStats());
      free_lists.push_back(alloc.group(g).GetFreeListStats());
    }
  }
};

void ExpectSameFootprint(const AllocatorFootprint& a, const AllocatorFootprint& b) {
  EXPECT_EQ(a.breakdown.allocated_bytes, b.breakdown.allocated_bytes);
  EXPECT_EQ(a.breakdown.used_bytes, b.breakdown.used_bytes);
  EXPECT_EQ(a.breakdown.evictable_bytes, b.breakdown.evictable_bytes);
  EXPECT_EQ(a.breakdown.empty_bytes, b.breakdown.empty_bytes);
  EXPECT_EQ(a.breakdown.unallocated_bytes, b.breakdown.unallocated_bytes);
  EXPECT_EQ(a.lcm_free, b.lcm_free);
  EXPECT_EQ(a.reclaim_entries, b.reclaim_entries);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t g = 0; g < a.stats.size(); ++g) {
    SCOPED_TRACE(testing::Message() << "group " << g);
    EXPECT_EQ(a.stats[g].large_pages_held, b.stats[g].large_pages_held);
    EXPECT_EQ(a.stats[g].used_pages, b.stats[g].used_pages);
    EXPECT_EQ(a.stats[g].evictable_pages, b.stats[g].evictable_pages);
    EXPECT_EQ(a.stats[g].empty_pages, b.stats[g].empty_pages);
    EXPECT_EQ(a.free_lists[g].any_refs, b.free_lists[g].any_refs);
    EXPECT_EQ(a.free_lists[g].by_request_refs, b.free_lists[g].by_request_refs);
    EXPECT_EQ(a.free_lists[g].tracked_requests, b.free_lists[g].tracked_requests);
  }
}

TEST(KvManager, RejectedGrowLeavesNoTrace) {
  // TinyMambaModel: the attention group packs several small pages per large page, the Mamba
  // group one. Request 1 holds one page of each, leaving its attention large page's other
  // slots empty and associated with it. Request 2 then asks for far more than the free large
  // pages can hold; without the bound the claim walk would take every free large page and
  // request 1's empties before failing and rolling back.
  const ModelConfig model = TinyMambaModel();
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  const int64_t pool_larges = 8;
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * pool_larges,
                                        JengaOptions(/*caching=*/false));
  const int attn = GroupOf(*kv, GroupKind::kFullAttention);
  ASSERT_GE(attn, 0);
  const int ppl = kv->allocator().group(attn).pages_per_large();
  ASSERT_GT(ppl, 1);
  Request holder = MakeRequest(1, TextPrompt(kBs), 4, 0.0);
  kv->OnAdmit(holder, 1);
  ComputeTokens(*kv, holder, kBs, 1);
  ASSERT_EQ(kv->allocator().group(attn).empty_pages(), ppl - 1);

  EventCounter counter;
  kv->allocator_mutable().SetAuditSink(&counter);
  const AllocatorFootprint before(kv->allocator());
  const int64_t tokens = kBs * ppl * pool_larges;
  Request big = MakeRequest(2, TextPrompt(tokens), 4, 0.0);
  kv->OnAdmit(big, 2);
  EXPECT_FALSE(kv->AllocateForTokens(big, tokens, 2));
  EXPECT_EQ(counter.events, 0);
  EXPECT_EQ(counter.claims, 0);
  EXPECT_EQ(counter.acquisitions, 0);
  EXPECT_EQ(counter.bulk, 0);
  ExpectSameFootprint(before, AllocatorFootprint(kv->allocator()));
  kv->allocator_mutable().RemoveAuditSink(&counter);

  // Both requests keep working: the holder grows into its own empties.
  ComputeTokens(*kv, holder, kBs, 3);
  kv->Release(big);
  kv->CheckConsistency();
}

TEST(KvManager, RejectedGrowEvictsAndReclaimsNothing) {
  // One small page per large page: request 1's four full blocks stay cached after release, so
  // four of the eight large pages are whole-evictable reclaim candidates. A 13-block grow fits
  // neither the four free pages plus the four reclaimable ones nor any eviction; the unchecked
  // walk would reclaim (and so evict) all four before failing.
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 8,
                                        JengaOptions(/*caching=*/true));
  Request a = MakeRequest(1, TextPrompt(4 * kBs + 1), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 4 * kBs + 1, 1);
  kv->Release(a, /*finished=*/true);
  ASSERT_EQ(kv->allocator().group(0).evictable_pages(), 4);
  ASSERT_EQ(kv->allocator().lcm().num_free(), 4);

  EventCounter counter;
  kv->allocator_mutable().SetAuditSink(&counter);
  const AllocatorFootprint before(kv->allocator());
  Request b = MakeRequest(2, TextPrompt(13 * kBs, /*base=*/5000), 4, 0.0);
  kv->OnAdmit(b, 3);
  ASSERT_EQ(b.num_computed_tokens, 0);
  EXPECT_FALSE(kv->AllocateForTokens(b, 13 * kBs, 3));
  EXPECT_EQ(counter.events, 0);
  EXPECT_EQ(counter.evictions, 0);
  EXPECT_EQ(counter.reclaims, 0);
  ExpectSameFootprint(before, AllocatorFootprint(kv->allocator()));
  kv->allocator_mutable().RemoveAuditSink(&counter);
  kv->Release(b, /*finished=*/true);

  // The cached prefix survived: a repeat of request 1's prompt hits it.
  Request c = MakeRequest(3, TextPrompt(4 * kBs + 1), 4, 0.0);
  kv->OnAdmit(c, 5);
  EXPECT_EQ(c.cached_prefix_tokens, 4 * kBs);
  kv->CheckConsistency();
}

// Differential soundness of the grow bound. Twin managers replay one randomized op sequence
// (admissions with shared-prefix prompts, prefill chunks, decode steps, finishes, swap-outs
// and restores) under tight pools with prefix caching on. Twin A runs the public API; twin B,
// in the same state, runs the claim walk without the bound. Every grow must succeed or fail
// alike on both — so every grow the bound rejects is one the walk could not complete. B is
// rebuilt by replay after any op that left it apart from A.
class GrowBoundDifferential {
 public:
  GrowBoundDifferential(KvSpec spec, int64_t pool_larges, uint64_t seed)
      : spec_(std::move(spec)), pool_bytes_(spec_.LcmPageBytes() * pool_larges), rng_(seed) {
    a_ = Fresh();
    b_ = Fresh();
  }

  void Run(int num_ops) {
    for (int i = 0; i < num_ops; ++i) {
      const Op op = NextOp();
      log_.push_back(op);
      const Outcome outcome_a = Apply(a_, op, /*checked=*/true);
      const Outcome outcome_b = Apply(b_, op, /*checked=*/false);
      ASSERT_EQ(outcome_a.grew, outcome_b.grew)
          << "op " << i << " kind " << static_cast<int>(op.kind) << " request " << op.id
          << (outcome_a.rejected ? " (rejected by the bound)" : "");
      rejected_ += outcome_a.rejected ? 1 : 0;
      failed_ += outcome_a.grew == 0 ? 1 : 0;
      grows_ += outcome_a.grew >= 0 ? 1 : 0;
      if (outcome_a.rejected || op.kind == OpKind::kRestore) {
        b_ = Fresh();
        for (const Op& past : log_) {
          Apply(b_, past, /*checked=*/true);
        }
      }
    }
    a_.kv->CheckConsistency();
    b_.kv->CheckConsistency();
  }

  int64_t grows() const { return grows_; }
  int64_t failed() const { return failed_; }
  int64_t rejected() const { return rejected_; }

 private:
  enum class OpKind { kAdmit, kGrow, kFinish, kSwapOut, kRestore };
  struct Op {
    OpKind kind = OpKind::kAdmit;
    RequestId id = 0;
    int64_t prompt_len = 0;  // kAdmit.
    int32_t prompt_base = 0;  // kAdmit: requests with one base share prompt prefixes.
    int64_t chunk = 0;        // kAdmit, kGrow: tokens to add (capped by what is there).
    Tick now = 0;
  };
  struct Swapped {
    Request request;
    int64_t tokens = 0;
    uint64_t fingerprint = 0;
  };
  struct Twin {
    std::unique_ptr<KvManager> kv;
    std::map<RequestId, Request> running;
    std::map<RequestId, Swapped> swapped;
  };
  struct Outcome {
    int grew = -1;  // -1: the op grows nothing; else whether the grow succeeded.
    bool rejected = false;
  };

  Twin Fresh() const {
    Twin twin;
    twin.kv = std::make_unique<KvManager>(spec_, spec_, pool_bytes_, JengaOptions(true));
    return twin;
  }

  // Picks the next op from twin A's state (B is in the same state).
  Op NextOp() {
    Op op;
    op.now = ++now_;
    const int64_t roll = rng_.UniformInt(0, 99);
    if (a_.running.empty() || roll < 20) {
      op.kind = OpKind::kAdmit;
      op.id = next_id_++;
      // Lengths off the block grid: a whole-prompt hit would need the one-block step-back.
      op.prompt_len = rng_.UniformInt(1, 70) * kBs + rng_.UniformInt(1, kBs - 1);
      op.prompt_base = static_cast<int32_t>(100 + 1000 * rng_.UniformInt(0, 3));
      op.chunk = rng_.UniformInt(1, 400);
      return op;
    }
    const auto pick = [&](const auto& map) {
      auto it = map.begin();
      std::advance(it, rng_.UniformInt(0, static_cast<int64_t>(map.size()) - 1));
      return it->first;
    };
    if (roll < 30 && !a_.swapped.empty()) {
      op.kind = OpKind::kRestore;
      op.id = pick(a_.swapped);
      return op;
    }
    op.id = pick(a_.running);
    if (roll < 40) {
      op.kind = OpKind::kFinish;
    } else if (roll < 47) {
      op.kind = a_.running.at(op.id).num_computed_tokens > 0 ? OpKind::kSwapOut : OpKind::kFinish;
    } else {
      op.kind = OpKind::kGrow;
      op.chunk = rng_.UniformInt(0, 1) == 0 ? rng_.UniformInt(1, 3) : rng_.UniformInt(1, 400);
    }
    return op;
  }

  // Grows `r` by up to `chunk` tokens (prompt first, then freshly appended decode tokens) and
  // commits them; a failed grow preempts `r` for good.
  static Outcome Grow(Twin& twin, Request& r, int64_t chunk, Tick now, bool checked) {
    KvManager& kv = *twin.kv;
    int64_t n = std::min(chunk, r.total_len() - r.num_computed_tokens);
    if (n == 0) {
      n = std::min<int64_t>(chunk, 3);
      for (int64_t k = 0; k < n; ++k) {
        r.AppendGenerated(static_cast<int32_t>(7 + (r.total_len() * 31 + r.id) % 500));
      }
    }
    Outcome outcome;
    outcome.rejected = !KvManagerTestPeer::Fits(kv, r, r.num_computed_tokens + n, false);
    const bool ok = checked ? kv.AllocateForTokens(r, n, now)
                            : KvManagerTestPeer::AllocateUnchecked(kv, r, n, now);
    outcome.grew = ok ? 1 : 0;
    if (ok) {
      r.num_computed_tokens += n;
      kv.OnStepComputed(r, now);
    } else {
      kv.Release(r, /*finished=*/true);
      twin.running.erase(r.id);
    }
    return outcome;
  }

  static Outcome Apply(Twin& twin, const Op& op, bool checked) {
    KvManager& kv = *twin.kv;
    switch (op.kind) {
      case OpKind::kAdmit: {
        Request& r = twin.running
                         .emplace(op.id, MakeRequest(op.id, TextPrompt(op.prompt_len,
                                                                       op.prompt_base),
                                                     4, 0.0))
                         .first->second;
        kv.OnAdmit(r, op.now);
        return Grow(twin, r, op.chunk, op.now, checked);
      }
      case OpKind::kGrow:
        return Grow(twin, twin.running.at(op.id), op.chunk, op.now, checked);
      case OpKind::kFinish:
        kv.Release(twin.running.at(op.id), /*finished=*/true);
        twin.running.erase(op.id);
        return {};
      case OpKind::kSwapOut: {
        Request& r = twin.running.at(op.id);
        const SwapFootprint fp = FootprintOf(kv, r);
        kv.Release(r);
        twin.swapped.emplace(op.id, Swapped{r, fp.tokens, fp.fingerprints.at(0)});
        twin.running.erase(op.id);
        return {};
      }
      case OpKind::kRestore: {
        Swapped& s = twin.swapped.at(op.id);
        Outcome outcome;
        outcome.rejected = !KvManagerTestPeer::Fits(kv, s.request, s.tokens, true);
        const bool ok =
            checked ? kv.RestoreFromSwap(s.request, s.tokens, s.fingerprint, op.now)
                    : KvManagerTestPeer::RestoreGrowUnchecked(kv, s.request, s.tokens, op.now);
        outcome.grew = ok ? 1 : 0;
        if (ok) {
          twin.running.emplace(op.id, s.request);
          twin.swapped.erase(op.id);
        }
        return outcome;
      }
    }
    return {};
  }

  KvSpec spec_;
  int64_t pool_bytes_;
  Rng rng_;
  Twin a_;
  Twin b_;
  std::vector<Op> log_;
  Tick now_ = 0;
  RequestId next_id_ = 1;
  int64_t grows_ = 0;
  int64_t failed_ = 0;
  int64_t rejected_ = 0;
};

TEST(KvManager, GrowBoundNeverRejectsAFeasibleGrow) {
  const std::vector<std::pair<std::string, KvSpec>> specs = {
      {"sliding", MakeJengaSpec(TinySlidingModel(64), kBs, false)},
      {"mamba", MakeJengaSpec(TinyMambaModel(), kBs, false)},
      {"merged", MergeKvSpecs({{"target", MakeJengaSpec(TinySlidingModel(64), kBs, false)},
                               {"draft", MakeJengaSpec(TinyDraftModel(), kBs, false)}})},
  };
  for (const auto& [name, spec] : specs) {
    int64_t grows = 0;
    int64_t failed = 0;
    int64_t rejected = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(testing::Message() << name << " seed " << seed);
      GrowBoundDifferential run(spec, /*pool_larges=*/static_cast<int64_t>(16 + 8 * (seed % 4)),
                                seed);
      run.Run(/*num_ops=*/200);
      if (HasFatalFailure()) {
        return;
      }
      grows += run.grows();
      failed += run.failed();
      rejected += run.rejected();
    }
    // The sequences must exercise both outcomes of the bound, not just easy grows.
    EXPECT_GT(rejected, 0) << name;
    EXPECT_GT(grows, failed) << name;
  }
}

TEST(KvManager, DecodeStepBetweenKvEventsEmitsNothing) {
  // Jamba-shaped (attention + Mamba): the attention group claims a page every 16 tokens and
  // the Mamba group caches a checkpoint every 512. A decode step that crosses neither does no
  // allocator work at all.
  const ModelConfig model = TinyMambaModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  const int attn = GroupOf(*kv, GroupKind::kFullAttention);
  const int mamba = GroupOf(*kv, GroupKind::kMamba);
  ASSERT_GE(attn, 0);
  ASSERT_GE(mamba, 0);
  Request r = MakeRequest(1, TextPrompt(500), 64, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 500, 1);
  EventCounter counter;
  kv->allocator_mutable().SetAuditSink(&counter);
  for (Tick t = 2; r.num_computed_tokens < 540; ++t) {
    SCOPED_TRACE(testing::Message() << "decode from " << r.num_computed_tokens);
    const int64_t before = r.num_computed_tokens;
    const int64_t events = counter.events;
    const int64_t all_claims = counter.claims;
    const auto claims = counter.claims_in;
    const auto cached = counter.cached_in;
    r.AppendGenerated(static_cast<int32_t>(7 + t));
    ComputeTokens(*kv, r, 1, t);
    const int64_t after = r.num_computed_tokens;
    const auto delta = [](const auto& now, const auto& then, int g) {
      return now[static_cast<size_t>(g)] - then[static_cast<size_t>(g)];
    };
    if (after == 512) {
      // The first checkpoint unit completes: one snapshot enters the Mamba group's cache.
      EXPECT_EQ(delta(counter.cached_in, cached, mamba), 1);
      EXPECT_EQ(delta(counter.claims_in, claims, attn), 0);
    } else if (before % kBs == 0) {
      // The new token starts a page.
      EXPECT_EQ(delta(counter.claims_in, claims, attn), 1);
      EXPECT_EQ(delta(counter.claims_in, claims, mamba), 0);
      EXPECT_EQ(counter.claims - all_claims, 1);
    } else if (after % kBs != 0) {
      EXPECT_EQ(counter.events, events);
      EXPECT_GT(KvManagerTestPeer::NextEvent(*kv, r), after);
    }
  }
  kv->allocator_mutable().RemoveAuditSink(&counter);
  kv->Release(r, /*finished=*/true);
  kv->CheckConsistency();
}

// One page's allocator metadata, for comparing two pools page by page.
struct PageRecord {
  int group = -1;
  SmallPageId page = kNoSmallPage;
  PageState state = PageState::kEmpty;
  int ref_count = 0;
  Tick last_access = 0;
  int64_t prefix_length = 0;
  bool operator==(const PageRecord&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PageRecord& p) {
  return os << "group " << p.group << " page " << p.page << " state "
            << static_cast<int>(p.state) << " refs " << p.ref_count << " last_access "
            << p.last_access << " prefix_length " << p.prefix_length;
}

// Every small page of every held large page, in large-page order. A used page's last access
// is left out: deferred refreshes write it only when the page can next become evictable.
std::vector<PageRecord> PoolSnapshot(const KvManager& kv) {
  const JengaAllocator& alloc = kv.allocator();
  std::vector<PageRecord> pages;
  for (LargePageId large = 0; large < alloc.lcm().num_pages(); ++large) {
    const int g = alloc.lcm().owner(large);
    if (g < 0) {
      continue;
    }
    const SmallPageAllocator& group = alloc.group(g);
    for (int slot = 0; slot < group.pages_per_large(); ++slot) {
      const SmallPageId page = SmallPageId{large} * group.pages_per_large() + slot;
      const PageState state = group.state(page);
      pages.push_back({g, page, state, group.ref_count(page),
                       state == PageState::kUsed ? 0 : group.last_access(page),
                       group.prefix_length(page)});
    }
  }
  return pages;
}

void ExpectSamePool(const KvManager& a, const KvManager& b) {
  const std::vector<PageRecord> pa = PoolSnapshot(a);
  const std::vector<PageRecord> pb = PoolSnapshot(b);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]);
  }
  const JengaAllocator::MemoryBreakdown ba = a.allocator().GetBreakdown();
  const JengaAllocator::MemoryBreakdown bb = b.allocator().GetBreakdown();
  EXPECT_EQ(ba.allocated_bytes, bb.allocated_bytes);
  EXPECT_EQ(ba.used_bytes, bb.used_bytes);
  EXPECT_EQ(ba.evictable_bytes, bb.evictable_bytes);
  EXPECT_EQ(ba.empty_bytes, bb.empty_bytes);
  EXPECT_EQ(ba.unallocated_bytes, bb.unallocated_bytes);
}

// The event-driven step against the full walk. `fast_` runs as the engines drive it. `full_`
// is the step before it became event-driven: both event counts are invalidated before every
// grow and commit, and every group refreshes last-access through its policy at every commit.
// One seeded trace drives both: admissions with shared prompt prefixes (so hits happen),
// prefill chunks, decode emits of 1..max_emit tokens, failed steps that leave their pages
// allocated, preemptions (trimmed, then swapped out or dropped), swap restores, re-admissions
// and finishes.
class EventStepDifferential {
 public:
  struct Config {
    KvSpec alloc_spec;
    KvSpec accounting_spec;
    int64_t pool_larges = 0;
    KvManager::Options options;
    bool images = false;  // Prompts carry images (vision specs).
  };

  EventStepDifferential(const Config& config, uint64_t seed)
      : config_(config),
        fast_(config.alloc_spec, config.accounting_spec,
              config.alloc_spec.LcmPageBytes() * config.pool_larges, config.options),
        full_(config.alloc_spec, config.accounting_spec,
              config.alloc_spec.LcmPageBytes() * config.pool_larges, config.options),
        rng_(seed) {
    KvManagerTestPeer::RefreshEveryStep(full_);
  }

  void Run(int steps, int max_emit) {
    for (int i = 0; i < steps && !testing::Test::HasFatalFailure(); ++i) {
      ++now_;
      const int64_t roll = rng_.UniformInt(0, 99);
      if (!waiting_.empty() && roll < 10) {
        Admit(waiting_.front());
        waiting_.erase(waiting_.begin());
      } else if (live_.size() < 5 && roll < 30) {
        Admit(next_id_++);
      } else if (!live_.empty() && roll < 34) {
        Evict(std::next(live_.begin(), rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1))
                  ->first,
              /*finished=*/roll < 32);
      } else {
        std::vector<RequestId> ids;
        for (const auto& [id, pair] : live_) {
          ids.push_back(id);
        }
        for (const RequestId id : ids) {
          Advance(id, max_emit);
        }
      }
    }
    while (!live_.empty() && !testing::Test::HasFatalFailure()) {
      Evict(live_.begin()->first, /*finished=*/true);
    }
    fast_.CheckConsistency();
    full_.CheckConsistency();
  }

  int64_t skipped() const { return skipped_; }
  int64_t walked() const { return walked_; }

 private:
  struct Pair {
    Request fast;
    Request full;
  };
  // A preempted request's swap snapshot: computed tokens and the two managers' fingerprints.
  struct Swapped {
    int64_t tokens = 0;
    uint64_t fast = 0;
    uint64_t full = 0;
  };

  Request NewRequest(RequestId id) const {
    // A few prompt families, so later prompts share prefixes with earlier ones.
    const int64_t family = id % 3;
    const int64_t len = 40 + (id * 97) % 700;
    Prompt prompt = config_.images
                        ? MixedPrompt(16 + 24 * family, static_cast<int>(1 + id % 4), 8, len % 90)
                        : TextPrompt(len, static_cast<int32_t>(100 + 1000 * family));
    return MakeRequest(id, std::move(prompt), 8 + (id * 37) % 300, 0.0);
  }

  void Admit(RequestId id) {
    auto [it, inserted] = live_.emplace(id, Pair{NewRequest(id), NewRequest(id)});
    ASSERT_TRUE(inserted);
    Pair& pair = it->second;
    const auto found = generated_.find(id);
    if (found != generated_.end()) {
      // A preempted request keeps the tokens it generated; they are recomputed as prefill.
      for (const int32_t token : found->second) {
        pair.fast.AppendGenerated(token);
        pair.full.AppendGenerated(token);
      }
    }
    const auto swapped = swapped_.find(id);
    if (swapped != swapped_.end()) {
      const Swapped snapshot = swapped->second;
      swapped_.erase(swapped);
      const bool restored =
          fast_.RestoreFromSwap(pair.fast, snapshot.tokens, snapshot.fast, now_);
      ASSERT_EQ(full_.RestoreFromSwap(pair.full, snapshot.tokens, snapshot.full, now_), restored);
      if (restored) {
        ExpectSameState(pair);
        return;
      }
    }
    fast_.OnAdmit(pair.fast, now_);
    full_.OnAdmit(pair.full, now_);
    ASSERT_EQ(pair.fast.num_computed_tokens, pair.full.num_computed_tokens);
    ExpectSameState(pair);
    // As in the engines, an admission allocates its first chunk at once.
    Advance(id, /*max_emit=*/1);
  }

  void Advance(RequestId id, int max_emit) {
    Pair& pair = live_.at(id);
    Request& r = pair.fast;
    int64_t n = r.total_len() - r.num_computed_tokens;
    if (n > 0) {
      n = std::min<int64_t>(n, rng_.UniformInt(1, 96));
    } else if (r.num_generated >= r.output_len) {
      Evict(id, /*finished=*/true);
      return;
    } else {
      n = std::min<int64_t>(rng_.UniformInt(1, max_emit), r.output_len - r.num_generated);
      for (int64_t k = 0; k < n; ++k) {
        const int32_t token = static_cast<int32_t>(7 + (r.total_len() * 31 + id) % 500);
        pair.fast.AppendGenerated(token);
        pair.full.AppendGenerated(token);
        generated_[id].push_back(token);
      }
    }
    KvManagerTestPeer::InvalidateCounts(full_, pair.full);
    const bool ok = fast_.AllocateForTokens(pair.fast, n, now_);
    ASSERT_EQ(full_.AllocateForTokens(pair.full, n, now_), ok);
    if (!ok) {
      Evict(id, /*finished=*/false);
      return;
    }
    if (rng_.UniformInt(0, 19) == 0) {
      // A failed step: the pages stay allocated, the tokens uncomputed. The next advance
      // retries them as a chunk, or a preemption trims them off.
      return;
    }
    pair.fast.num_computed_tokens += n;
    pair.full.num_computed_tokens += n;
    if (KvManagerTestPeer::NextEvent(fast_, pair.fast) > pair.fast.num_computed_tokens) {
      ++skipped_;
    } else {
      ++walked_;
    }
    KvManagerTestPeer::InvalidateCounts(full_, pair.full);
    fast_.OnStepComputed(pair.fast, now_);
    full_.OnStepComputed(pair.full, now_);
    ExpectSameState(pair);
  }

  // Finishes request `id` in both managers, or preempts it to re-admit later: its pages past
  // the computed tokens are trimmed, and a request with computed tokens may swap out.
  void Evict(RequestId id, bool finished) {
    Pair& pair = live_.at(id);
    if (!finished) {
      fast_.TrimToComputed(pair.fast);
      full_.TrimToComputed(pair.full);
      ExpectSameState(pair);
      if (pair.fast.num_computed_tokens > 0 && rng_.UniformInt(0, 1) == 0) {
        const SwapFootprint fast = FootprintOf(fast_, pair.fast);
        const SwapFootprint full = FootprintOf(full_, pair.full);
        swapped_[id] = Swapped{fast.tokens, fast.fingerprints.at(0), full.fingerprints.at(0)};
      }
    }
    fast_.Release(pair.fast, finished);
    full_.Release(pair.full, finished);
    live_.erase(id);
    if (finished) {
      generated_.erase(id);
    } else {
      waiting_.push_back(id);
    }
    ExpectSamePool(fast_, full_);
  }

  void ExpectSameState(const Pair& pair) {
    ASSERT_EQ(pair.fast.num_computed_tokens, pair.full.num_computed_tokens);
    EXPECT_EQ(KvManagerTestPeer::Fingerprint(fast_, pair.fast),
              KvManagerTestPeer::Fingerprint(full_, pair.full));
    EXPECT_EQ(KvManagerTestPeer::NeededBytes(fast_, pair.fast),
              KvManagerTestPeer::NeededBytes(full_, pair.full));
    for (int g = 0; g < fast_.allocator().num_groups(); ++g) {
      ASSERT_EQ(fast_.block_table(pair.fast, g), full_.block_table(pair.full, g))
          << "request " << pair.fast.id << " group " << g << " at "
          << pair.fast.num_computed_tokens << " tokens";
    }
  }

  Config config_;
  KvManager fast_;
  KvManager full_;
  Rng rng_;
  std::map<RequestId, Pair> live_;
  std::vector<RequestId> waiting_;
  std::map<RequestId, std::vector<int32_t>> generated_;
  std::map<RequestId, Swapped> swapped_;
  Tick now_ = 0;
  RequestId next_id_ = 1;
  int64_t skipped_ = 0;
  int64_t walked_ = 0;
};

TEST(KvManager, EventDrivenStepMatchesFullWalk) {
  const ModelConfig vision = TinyVisionModel();
  KvManager::Options vision_options = JengaOptions(true, vision.vision.tokens_per_image);
  const std::vector<std::pair<std::string, EventStepDifferential::Config>> configs = {
      {"jamba",
       {MakeJengaSpec(TinyMambaModel(), kBs, false), MakeJengaSpec(TinyMambaModel(), kBs, false),
        48, JengaOptions(), false}},
      {"gemma2",
       {MakeJengaSpec(TinySlidingModel(64), kBs, false),
        MakeJengaSpec(TinySlidingModel(64), kBs, false), 96, JengaOptions(), false}},
      {"pyramid",
       {MakeJengaSpec(TinyPyramidModel(48), kBs, false),
        MakeJengaSpec(TinyPyramidModel(48), kBs, false), 96, JengaOptions(), false}},
      {"vision",
       {MakeJengaSpec(vision, kBs, true), MakeJengaSpec(vision, kBs, true), 96, vision_options,
        true}},
      {"paged",
       {MakeHomogeneousSpec(TinySlidingModel(64), kBs),
        MakeJengaSpec(TinySlidingModel(64), kBs, false), 192, BaselineOptions(), false}},
  };
  for (const auto& [name, config] : configs) {
    for (const int max_emit : {1, 5}) {
      int64_t skipped = 0;
      int64_t walked = 0;
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << name << " max_emit " << max_emit << " seed " << seed);
        EventStepDifferential run(config, seed);
        run.Run(/*steps=*/400, max_emit);
        if (HasFatalFailure()) {
          return;
        }
        skipped += run.skipped();
        walked += run.walked();
      }
      // Both paths must be exercised: commits between events skip, the event steps walk.
      EXPECT_GT(skipped, 0) << name << " max_emit " << max_emit;
      EXPECT_GT(walked, 0) << name << " max_emit " << max_emit;
    }
  }
}

}  // namespace
}  // namespace jenga

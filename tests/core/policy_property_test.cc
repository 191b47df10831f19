// Property-based tests over the layer policies: for random hit bitmaps and lengths, the hit
// rule, the needed-token rule, and the eviction-metadata hooks must stay mutually consistent.
// Parameterized over seeds (each instantiation explores different random inputs).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/random.h"
#include "src/core/layer_policy.h"
#include "src/core/policy_factory.h"

namespace jenga {
namespace {

struct RecordingOps : GroupCacheOps {
  void UpdateLastAccess(SmallPageId page, Tick now) override { last_access[page] = now; }
  void SetPrefixLength(SmallPageId page, int64_t value) override { prefix_length[page] = value; }
  std::map<SmallPageId, Tick> last_access;
  std::map<SmallPageId, int64_t> prefix_length;
};

std::vector<std::unique_ptr<LayerPolicy>> AllPolicies() {
  std::vector<std::unique_ptr<LayerPolicy>> policies;
  policies.push_back(std::make_unique<FullPrefixPolicy>());
  policies.push_back(std::make_unique<SlidingWindowPolicy>(48));
  policies.push_back(std::make_unique<SlidingWindowPolicy>(7));  // Window < block size.
  policies.push_back(std::make_unique<PyramidPolicy>(64, 4));
  policies.push_back(std::make_unique<ImageCachePolicy>(32));
  return policies;
}

class PolicyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicyPropertyTest, NeededRangesAreSortedDisjointAndBounded) {
  // Ranges are held inline: attention sinks plus a recent window is the widest rule.
  static_assert(TokenRanges::kCapacity == 2);
  Rng rng(GetParam());
  for (const auto& policy : AllPolicies()) {
    for (int trial = 0; trial < 50; ++trial) {
      const int64_t tokens = rng.UniformInt(0, 500);
      const TokenRanges ranges = policy->NeededTokenRanges(tokens);
      EXPECT_LE(ranges.size(), 2u) << policy->name();
      int64_t previous_end = -1;
      for (const TokenRange& range : ranges) {
        EXPECT_LE(0, range.begin) << policy->name();
        EXPECT_LT(range.begin, range.end) << policy->name();
        EXPECT_LE(range.end, tokens) << policy->name();
        EXPECT_GT(range.begin, previous_end) << policy->name() << ": overlapping/unsorted";
        previous_end = range.end;
      }
      // The final token is always needed (it conditions the next-token computation).
      if (tokens > 0) {
        ASSERT_FALSE(ranges.empty()) << policy->name();
        EXPECT_EQ(ranges.back().end, tokens) << policy->name();
      }
    }
  }
}

TEST_P(PolicyPropertyTest, HitRuleConsistentWithNeededRanges) {
  // valid[p] must equal "every block intersecting a needed range of a p-block prefix is hit".
  Rng rng(GetParam() ^ 0x9999);
  const int kBlock = 16;
  for (const auto& policy : AllPolicies()) {
    for (int trial = 0; trial < 30; ++trial) {
      const int num_blocks = static_cast<int>(rng.UniformInt(0, 24));
      std::vector<bool> is_hit(static_cast<size_t>(num_blocks));
      for (int b = 0; b < num_blocks; ++b) {
        is_hit[static_cast<size_t>(b)] = rng.Bernoulli(0.7);
      }
      const std::vector<bool> valid = policy->GetPossiblePrefix(is_hit, kBlock);
      ASSERT_EQ(valid.size(), is_hit.size() + 1);
      EXPECT_TRUE(valid[0]);
      for (int p = 1; p <= num_blocks; ++p) {
        bool expected = true;
        for (const TokenRange& range : policy->NeededTokenRanges(p * kBlock)) {
          const int64_t lo = range.begin / kBlock;
          const int64_t hi = std::min<int64_t>(p, CeilDiv(range.end, kBlock));
          for (int64_t b = lo; b < hi; ++b) {
            expected = expected && is_hit[static_cast<size_t>(b)];
          }
        }
        EXPECT_EQ(valid[static_cast<size_t>(p)], expected)
            << policy->name() << " p=" << p << " blocks=" << num_blocks;
      }
    }
  }
}

TEST_P(PolicyPropertyTest, AllHitsMakeEveryPrefixValid) {
  Rng rng(GetParam() ^ 0x1111);
  for (const auto& policy : AllPolicies()) {
    const int num_blocks = static_cast<int>(rng.UniformInt(1, 32));
    const std::vector<bool> all_hit(static_cast<size_t>(num_blocks), true);
    for (const bool v : policy->GetPossiblePrefix(all_hit, 16)) {
      EXPECT_TRUE(v) << policy->name();
    }
  }
}

TEST_P(PolicyPropertyTest, UpdateLastAccessTouchesExactlyNeededBlocks) {
  Rng rng(GetParam() ^ 0x2222);
  const int kBlock = 16;
  for (const auto& policy : AllPolicies()) {
    const int64_t tokens = rng.UniformInt(1, 400);
    const int64_t num_blocks = CeilDiv(tokens, kBlock);
    std::vector<SmallPageId> pages;
    for (int64_t b = 0; b < num_blocks; ++b) {
      pages.push_back(1000 + b);
    }
    RequestPages view;
    view.request = 1;
    view.pages = pages;
    view.num_tokens = tokens;
    view.tokens_per_page = kBlock;
    RecordingOps ops;
    policy->UpdateLastAccess(view, /*now=*/42, ops);
    for (int64_t b = 0; b < num_blocks; ++b) {
      bool needed = false;
      for (const TokenRange& range : policy->NeededTokenRanges(tokens)) {
        if (range.begin < (b + 1) * kBlock && range.end > b * kBlock) {
          needed = true;
        }
      }
      EXPECT_EQ(ops.last_access.contains(1000 + b), needed)
          << policy->name() << " block " << b << " of " << num_blocks;
    }
  }
}

TEST_P(PolicyPropertyTest, MambaCheckpointsIndependent) {
  Rng rng(GetParam() ^ 0x3333);
  MambaPolicy policy(512);
  const int checkpoints = static_cast<int>(rng.UniformInt(0, 16));
  std::vector<bool> is_hit(static_cast<size_t>(checkpoints));
  for (int i = 0; i < checkpoints; ++i) {
    is_hit[static_cast<size_t>(i)] = rng.Bernoulli(0.5);
  }
  const std::vector<bool> valid = policy.GetPossiblePrefix(is_hit, 512);
  EXPECT_TRUE(valid[0]);
  for (int p = 1; p <= checkpoints; ++p) {
    EXPECT_EQ(valid[static_cast<size_t>(p)], is_hit[static_cast<size_t>(p) - 1]);
  }
}

TEST_P(PolicyPropertyTest, ImagePrioritiesAlignAcrossGroups) {
  // Cross-attention KV and vision-embedding caches of the same model must assign the SAME
  // randomized priority to the same image so whole images evict together across groups.
  Rng rng(GetParam() ^ 0x4444);
  const int tokens_per_image = 32;
  ImageCachePolicy cross(tokens_per_image);
  ImageCachePolicy vision(tokens_per_image);
  const RequestId request = rng.UniformInt(1, 1000);
  std::vector<SmallPageId> pages = {0, 1, 2, 3};  // 2 images × 2 blocks.
  RequestPages view;
  view.request = request;
  view.pages = pages;
  view.num_tokens = 64;
  view.tokens_per_page = 16;
  RecordingOps a;
  RecordingOps b;
  cross.SetPrefixLength(view, a);
  vision.SetPrefixLength(view, b);
  EXPECT_EQ(a.prefix_length, b.prefix_length);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

}  // namespace
}  // namespace jenga

#include "src/core/block_hash.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

namespace jenga {
namespace {

std::vector<int32_t> Tokens(std::initializer_list<int32_t> list) { return list; }

TEST(ChainBlockHashes, OnlyFullBlocksHashed) {
  const auto tokens = Tokens({1, 2, 3, 4, 5, 6, 7});
  const auto hashes = ChainBlockHashes(tokens, /*block_size=*/3, /*salt=*/0);
  EXPECT_EQ(hashes.size(), 2u);  // 7 tokens → 2 full blocks of 3.
}

TEST(ChainBlockHashes, DeterministicAndPrefixStable) {
  const auto a = ChainBlockHashes(Tokens({1, 2, 3, 4, 5, 6}), 3, 0);
  const auto b = ChainBlockHashes(Tokens({1, 2, 3, 4, 5, 6, 99}), 3, 0);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0], b[0]);  // Shared prefix → identical hashes.
  EXPECT_EQ(a[1], b[1]);
}

TEST(ChainBlockHashes, ChainCommitsToEarlierBlocks) {
  // Same second block, different first block → different second-block hash. This is what
  // makes a block hash identify a whole prefix.
  const auto a = ChainBlockHashes(Tokens({1, 2, 3, 7, 8, 9}), 3, 0);
  const auto b = ChainBlockHashes(Tokens({4, 5, 6, 7, 8, 9}), 3, 0);
  EXPECT_NE(a[0], b[0]);
  EXPECT_NE(a[1], b[1]);
}

TEST(ChainBlockHashes, SaltNamespaces) {
  const auto a = ChainBlockHashes(Tokens({1, 2, 3}), 3, /*salt=*/1);
  const auto b = ChainBlockHashes(Tokens({1, 2, 3}), 3, /*salt=*/2);
  EXPECT_NE(a[0], b[0]);
}

TEST(ChainBlockHashes, BlockBoundariesMatter) {
  const auto a = ChainBlockHashes(Tokens({1, 2, 3, 4}), 2, 0);
  const auto b = ChainBlockHashes(Tokens({1, 2, 3, 4}), 4, 0);
  EXPECT_NE(a.back(), b.back());
}

TEST(ChainBlockHashes, NoCollisionsOnSmallUniverse) {
  // All 2-token blocks over a small alphabet must hash distinctly (sanity, not a proof).
  std::set<BlockHash> seen;
  int count = 0;
  for (int32_t x = 0; x < 50; ++x) {
    for (int32_t y = 0; y < 50; ++y) {
      const auto h = ChainBlockHashes(Tokens({x, y}), 2, 0);
      seen.insert(h[0]);
      ++count;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(ChainBlockHashes, MultiSaltEqualsPerSaltChains) {
  // Each lane of the interleaved pass must equal that salt's chain hashed alone, and the
  // incremental InitBlockChain + ExtendBlockHash chain: every block size, full and partial
  // tails, the empty stream, and one to four salts.
  const std::vector<uint64_t> all_salts = {GroupChainSalt(0), GroupChainSalt(1), 0, 7};
  uint32_t state = 12345;
  for (const int bs : {1, 3, 16, 512}) {
    for (const size_t len : {size_t{0}, size_t{1}, static_cast<size_t>(bs) - 1,
                             static_cast<size_t>(bs), 3 * static_cast<size_t>(bs) + 2,
                             5 * static_cast<size_t>(bs)}) {
      std::vector<int32_t> tokens(len);
      for (int32_t& token : tokens) {
        state = state * 1664525u + 1013904223u;
        token = static_cast<int32_t>(state);
      }
      for (size_t lanes = 1; lanes <= all_salts.size(); ++lanes) {
        SCOPED_TRACE(testing::Message() << "bs=" << bs << " len=" << len << " lanes=" << lanes);
        const std::span<const uint64_t> salts(all_salts.data(), lanes);
        const std::vector<std::vector<BlockHash>> chains = ChainBlockHashes(tokens, bs, salts);
        ASSERT_EQ(chains.size(), lanes);
        for (size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(chains[l], ChainBlockHashes(tokens, bs, salts[l]));
          ASSERT_EQ(chains[l].size(), len / static_cast<size_t>(bs));
          BlockHash chain = InitBlockChain(salts[l]);
          for (size_t b = 0; b < chains[l].size(); ++b) {
            chain = ExtendBlockHash(chain, std::span<const int32_t>(tokens).subspan(
                                               b * static_cast<size_t>(bs),
                                               static_cast<size_t>(bs)));
            EXPECT_EQ(chains[l][b], chain) << "lane " << l << " block " << b;
          }
        }
      }
    }
  }
}

TEST(LongestCommonValidPrefix, IntersectsAcrossGroups) {
  // Group A valid up to 4, group B valid at {0, 2, 3}: the longest common boundary is 3.
  const std::vector<std::vector<bool>> valids = {
      {true, true, true, true, true},
      {true, false, true, true, false},
  };
  EXPECT_EQ(LongestCommonValidPrefix(valids), 3);
}

TEST(LongestCommonValidPrefix, ZeroWhenNothingShared) {
  const std::vector<std::vector<bool>> valids = {
      {true, true, false},
      {true, false, true},
  };
  EXPECT_EQ(LongestCommonValidPrefix(valids), 0);
}

TEST(LongestCommonValidPrefix, EmptyGroupListIsZero) {
  EXPECT_EQ(LongestCommonValidPrefix({}), 0);
}

TEST(LongestCommonValidPrefix, SingleGroupTakesItsMax) {
  const std::vector<std::vector<bool>> valids = {{true, true, true, false}};
  EXPECT_EQ(LongestCommonValidPrefix(valids), 2);
}

TEST(LongestCommonValidPrefixDeath, MismatchedSizes) {
  const std::vector<std::vector<bool>> valids = {{true, true}, {true}};
  EXPECT_DEATH((void)LongestCommonValidPrefix(valids), "same boundary count");
}

}  // namespace
}  // namespace jenga

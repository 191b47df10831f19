#include "src/cluster/prefix_index.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/cluster/fleet_router.h"
#include "src/core/block_hash.h"
#include "src/engine/engine.h"
#include "src/engine/request.h"
#include "tests/cluster/fleet_test_util.h"

namespace jenga {
namespace {

TEST(ClusterPrefixIndexTest, FeedTracksMembership) {
  ClusterPrefixIndex index(2, /*routing_group=*/0);
  AuditSink* feed0 = index.feed(0);
  AuditSink* feed1 = index.feed(1);

  feed0->OnHashIndexed(0, 101);
  feed0->OnHashIndexed(0, 102);
  feed1->OnHashIndexed(0, 101);
  EXPECT_EQ(index.ResidentHashes(0), 2);
  EXPECT_EQ(index.ResidentHashes(1), 1);

  feed0->OnHashUnindexed(0, 101, nullptr);
  EXPECT_EQ(index.ResidentHashes(0), 1);
  EXPECT_EQ(index.ResidentHashes(1), 1);
}

TEST(ClusterPrefixIndexTest, IgnoresOtherGroups) {
  ClusterPrefixIndex index(1, /*routing_group=*/0);
  index.feed(0)->OnHashIndexed(1, 7);
  index.feed(0)->OnHashIndexed(2, 8);
  EXPECT_EQ(index.ResidentHashes(0), 0);

  // Non-resident events for other groups must not erase routing-group entries either.
  index.feed(0)->OnHashIndexed(0, 7);
  index.feed(0)->OnHashUnindexed(1, 7, nullptr);
  EXPECT_EQ(index.ResidentHashes(0), 1);
}

TEST(ClusterPrefixIndexTest, NegativeGroupDisablesTracking) {
  ClusterPrefixIndex index(1, /*routing_group=*/-1);
  index.feed(0)->OnHashIndexed(0, 7);
  EXPECT_EQ(index.ResidentHashes(0), 0);
  const std::vector<BlockHash> chain = {7, 8};
  EXPECT_EQ(index.ResidentPrefixBlocks(0, chain), 0);
}

TEST(ClusterPrefixIndexTest, PrefixScanStopsAtFirstMiss) {
  ClusterPrefixIndex index(1, /*routing_group=*/0);
  AuditSink* feed = index.feed(0);
  // Chain {10, 11, 12, 13}: make 10, 11, 13 resident — 13 must not count past the hole.
  feed->OnHashIndexed(0, 10);
  feed->OnHashIndexed(0, 11);
  feed->OnHashIndexed(0, 13);

  const std::vector<BlockHash> chain = {10, 11, 12, 13};
  EXPECT_EQ(index.ResidentPrefixBlocks(0, chain), 2);

  feed->OnHashIndexed(0, 12);
  EXPECT_EQ(index.ResidentPrefixBlocks(0, chain), 4);

  // A capacity eviction unindexes too; its payload does not matter to the summary.
  const CacheEviction evicted{/*page_bytes=*/4096, /*prefix_length=*/1, /*last_access=*/1};
  feed->OnHashUnindexed(0, 10, &evicted);
  EXPECT_EQ(index.ResidentPrefixBlocks(0, chain), 0);

  EXPECT_EQ(index.ResidentPrefixBlocks(0, std::vector<BlockHash>{}), 0);
}

// End to end through a real engine: after a prefix-caching run, the index summary must score
// the served prompt's routing chain as fully resident, and a fresh prompt as absent.
TEST(ClusterPrefixIndexTest, MirrorsEngineCacheResidency) {
  const EngineConfig config = FleetEngineConfig();
  Engine engine(config);
  ClusterPrefixIndex index(1, /*routing_group=*/0);
  engine.kv().allocator_mutable().SetAuditSink(index.feed(0));

  const Prompt prompt = ArticlePrompt(/*article=*/0, /*len=*/64);
  engine.Submit(MakeRequest(1, prompt, /*output_len=*/4, /*arrival_time=*/0.0));
  engine.RunToCompletion();

  const KvSpec& spec = engine.kv().alloc_spec();
  const int group = PickRoutingGroup(spec);
  ASSERT_EQ(group, 0);
  const int block = spec.groups[0].tokens_per_page;
  const std::vector<BlockHash> chain =
      ChainBlockHashes(prompt.tokens, block, GroupChainSalt(group));
  ASSERT_EQ(static_cast<int64_t>(chain.size()), 64 / block);
  EXPECT_EQ(index.ResidentPrefixBlocks(0, chain), static_cast<int64_t>(chain.size()));
  EXPECT_GT(index.ResidentHashes(0), 0);

  const Prompt other = ArticlePrompt(/*article=*/5, /*len=*/64);
  const std::vector<BlockHash> other_chain =
      ChainBlockHashes(other.tokens, block, GroupChainSalt(group));
  EXPECT_EQ(index.ResidentPrefixBlocks(0, other_chain), 0);
}

}  // namespace
}  // namespace jenga

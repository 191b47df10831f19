// CacheIndex (the flat prefix-cache index) against std::unordered_map: random insert/erase
// differentials, forced home-slot collisions, growth across rehashes, and erases from the
// middle of a probe run (the backward-shift path).

#include "src/core/cache_index.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/common/random.h"

namespace jenga {
namespace {

// Checks every key the model holds, a band of keys it does not, and the size.
void ExpectSameContents(const CacheIndex& index,
                        const std::unordered_map<BlockHash, SmallPageId>& model,
                        BlockHash key_space) {
  ASSERT_EQ(index.size(), model.size());
  for (BlockHash hash = 0; hash < key_space; ++hash) {
    const auto it = model.find(hash);
    ASSERT_EQ(index.Find(hash), it == model.end() ? kNoSmallPage : it->second)
        << "hash " << hash;
  }
  size_t visited = 0;
  index.ForEach([&](BlockHash hash, SmallPageId page) {
    const auto it = model.find(hash);
    ASSERT_NE(it, model.end()) << "stray hash " << hash;
    EXPECT_EQ(it->second, page);
    visited += 1;
  });
  EXPECT_EQ(visited, model.size());
}

// Emplace/Erase with the allocator's semantics, applied to the reference map.
std::pair<SmallPageId, bool> ModelEmplace(std::unordered_map<BlockHash, SmallPageId>& model,
                                          BlockHash hash, SmallPageId page) {
  const auto [it, inserted] = model.emplace(hash, page);
  return {it->second, inserted};
}

bool ModelErase(std::unordered_map<BlockHash, SmallPageId>& model, BlockHash hash,
                SmallPageId page) {
  const auto it = model.find(hash);
  if (it == model.end() || it->second != page) {
    return false;
  }
  model.erase(it);
  return true;
}

TEST(CacheIndex, EmptyIndexFindsNothing) {
  CacheIndex index;
  EXPECT_EQ(index.Find(42), kNoSmallPage);
  EXPECT_FALSE(index.Erase(42, 0));
  EXPECT_EQ(index.size(), 0u);
}

TEST(CacheIndex, EmplaceKeepsTheFirstMapping) {
  CacheIndex index;
  EXPECT_EQ(index.Emplace(7, 100), std::make_pair(SmallPageId{100}, true));
  EXPECT_EQ(index.Emplace(7, 200), std::make_pair(SmallPageId{100}, false));
  EXPECT_EQ(index.Find(7), 100);
  // Erase only removes the mapping to the named page.
  EXPECT_FALSE(index.Erase(7, 200));
  EXPECT_EQ(index.Find(7), 100);
  EXPECT_TRUE(index.Erase(7, 100));
  EXPECT_EQ(index.Find(7), kNoSmallPage);
  EXPECT_EQ(index.size(), 0u);
}

class CacheIndexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheIndexDifferentialTest, MatchesUnorderedMap) {
  Rng rng(GetParam());
  CacheIndex index;
  std::unordered_map<BlockHash, SmallPageId> model;
  // A small key space keeps hits, misses and re-inserts of erased keys all frequent; the
  // size drifts up and down so the table grows through several rehashes under churn.
  constexpr BlockHash kKeys = 1500;
  for (int step = 0; step < 40000; ++step) {
    const BlockHash hash = static_cast<BlockHash>(rng.UniformInt(0, kKeys - 1));
    const SmallPageId page = rng.UniformInt(0, 7);
    const int insert_pct = (step / 5000) % 2 == 0 ? 70 : 35;
    if (rng.UniformInt(0, 99) < insert_pct) {
      ASSERT_EQ(index.Emplace(hash, page), ModelEmplace(model, hash, page)) << "step " << step;
    } else {
      ASSERT_EQ(index.Erase(hash, page), ModelErase(model, hash, page)) << "step " << step;
    }
    ASSERT_EQ(index.size(), model.size());
    ASSERT_LE(2 * index.size(), index.capacity());
    if (step % 4000 == 0) {
      ExpectSameContents(index, model, kKeys);
    }
  }
  ExpectSameContents(index, model, kKeys);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheIndexDifferentialTest,
                         ::testing::Values(0x1u, 0x2u, 0x7u, 0x2Au, 0xC0FFEEu));

// Keys whose probes all start at `home` in the index's current geometry.
std::vector<BlockHash> KeysWithHome(const CacheIndex& index, size_t home, size_t count,
                                    BlockHash start) {
  std::vector<BlockHash> keys;
  for (BlockHash hash = start; keys.size() < count; ++hash) {
    if (index.HomeSlot(hash) == home) {
      keys.push_back(hash);
    }
  }
  return keys;
}

TEST(CacheIndex, EraseInsideACollisionRunKeepsEveryOtherKeyReachable) {
  CacheIndex index;
  std::unordered_map<BlockHash, SmallPageId> model;
  ASSERT_TRUE(index.Emplace(1, 1).second);  // Allocates the first table (16 slots).
  model.emplace(1, 1);
  const size_t capacity = index.capacity();
  // Five keys sharing one home slot and two sharing the next one interleave into a single
  // run; the table stays under half full so no rehash reshuffles the layout mid-test.
  const size_t home = index.HomeSlot(1000);
  std::vector<BlockHash> run = KeysWithHome(index, home, 5, 1000);
  const std::vector<BlockHash> neighbours = KeysWithHome(index, (home + 1) % capacity, 2, 1000);
  run.insert(run.begin() + 2, neighbours.begin(), neighbours.end());
  for (size_t i = 0; i < run.size(); ++i) {
    ASSERT_TRUE(index.Emplace(run[i], static_cast<SmallPageId>(100 + i)).second);
    model.emplace(run[i], static_cast<SmallPageId>(100 + i));
  }
  ASSERT_EQ(index.capacity(), capacity);
  // Erase from the middle, the front and the back of the run, checking after each.
  for (const size_t victim : {size_t{3}, size_t{0}, run.size() - 1, size_t{2}}) {
    const SmallPageId page = model.at(run[victim]);
    ASSERT_TRUE(index.Erase(run[victim], page));
    model.erase(run[victim]);
    for (const auto& [hash, mapped] : model) {
      ASSERT_EQ(index.Find(hash), mapped) << "hash " << hash << " lost after erasing "
                                          << run[victim];
    }
    ASSERT_EQ(index.Find(run[victim]), kNoSmallPage);
  }
  // Erased keys can come back, landing anywhere in the (shorter) run.
  ASSERT_TRUE(index.Emplace(run[3], 7).second);
  EXPECT_EQ(index.Find(run[3]), 7);
  EXPECT_EQ(index.size(), model.size() + 1);
}

TEST(CacheIndex, RunsWrappingPastTheLastSlotSurviveErase) {
  CacheIndex index;
  ASSERT_TRUE(index.Emplace(1, 1).second);
  const size_t last = index.capacity() - 1;
  const std::vector<BlockHash> keys = KeysWithHome(index, last, 4, 5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index.Emplace(keys[i], static_cast<SmallPageId>(i)).second);
  }
  // keys[1..3] wrapped to slots 0, 1, 2 (after whatever key 1 occupies); erase the one in
  // the last slot and every wrapped key must still be found.
  ASSERT_TRUE(index.Erase(keys[0], 0));
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_EQ(index.Find(keys[i]), static_cast<SmallPageId>(i));
  }
  EXPECT_EQ(index.Find(1), 1);
}

TEST(CacheIndex, GrowthPreservesEveryMapping) {
  CacheIndex index;
  std::unordered_map<BlockHash, SmallPageId> model;
  size_t rehashes = 0;
  size_t capacity = index.capacity();
  // Sequential and strided keys both, so collisions exist in every table generation.
  for (BlockHash i = 0; i < 5000; ++i) {
    const BlockHash hash = (i % 2 == 0) ? i : (i << 20);
    ASSERT_TRUE(index.Emplace(hash, static_cast<SmallPageId>(i)).second);
    model.emplace(hash, static_cast<SmallPageId>(i));
    if (index.capacity() != capacity) {
      capacity = index.capacity();
      rehashes += 1;
      for (const auto& [key, page] : model) {
        ASSERT_EQ(index.Find(key), page);
      }
    }
  }
  EXPECT_GE(rehashes, 9u);  // 16 → 16384 slots.
  EXPECT_EQ(index.size(), model.size());
}

}  // namespace
}  // namespace jenga

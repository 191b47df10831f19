// Equivalence property test for the lazy-deletion-heap Evictor: drives it in lockstep with a
// reference ordered-set model under random operation sequences and asserts the victim order
// is identical. The heap implementation is only allowed to differ in *cost*, never in which
// page PopVictim returns — eviction decisions feed every figure's determinism.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/core/evictor.h"

namespace jenga {
namespace {

// The original std::set formulation: ascending (last_access, -prefix_length, page).
class ReferenceEvictor {
 public:
  using Key = std::tuple<Tick, int64_t, SmallPageId>;

  void Insert(SmallPageId page, Tick last_access, int64_t prefix_length) {
    const Key key{last_access, -prefix_length, page};
    ASSERT_TRUE(keys_.emplace(page, key).second);
    order_.insert(key);
  }

  void Remove(SmallPageId page) {
    const auto it = keys_.find(page);
    if (it == keys_.end()) {
      return;
    }
    order_.erase(it->second);
    keys_.erase(it);
  }

  void UpdateLastAccess(SmallPageId page, Tick last_access) {
    const auto it = keys_.find(page);
    if (it == keys_.end()) {
      return;
    }
    order_.erase(it->second);
    std::get<0>(it->second) = last_access;
    order_.insert(it->second);
  }

  void SetPrefixLength(SmallPageId page, int64_t prefix_length) {
    const auto it = keys_.find(page);
    if (it == keys_.end()) {
      return;
    }
    order_.erase(it->second);
    std::get<1>(it->second) = -prefix_length;
    order_.insert(it->second);
  }

  std::optional<SmallPageId> PopVictim() {
    if (order_.empty()) {
      return std::nullopt;
    }
    const Key key = *order_.begin();
    order_.erase(order_.begin());
    keys_.erase(std::get<2>(key));
    return std::get<2>(key);
  }

  std::optional<Tick> PeekOldestAccess() const {
    if (order_.empty()) {
      return std::nullopt;
    }
    return std::get<0>(*order_.begin());
  }

  bool Contains(SmallPageId page) const { return keys_.contains(page); }
  size_t size() const { return keys_.size(); }

 private:
  std::map<SmallPageId, Key> keys_;
  std::set<Key> order_;
};

// Runs 20000 random operations on both implementations; `pick_page(step, rng)` chooses the
// page each operation targets.
template <typename PickPage>
void RunEquivalence(uint64_t seed, PickPage pick_page) {
  Rng rng(seed);
  Evictor heap;
  ReferenceEvictor model;
  std::set<SmallPageId> members;
  Tick now = 0;

  for (int step = 0; step < 20000; ++step) {
    // Ticks advance irregularly so distinct pages frequently share a last_access (the
    // tie-break paths) while others do not.
    now += rng.UniformInt(0, 2);
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    const SmallPageId page = pick_page(step, rng);
    if (op < 30) {
      if (!members.contains(page)) {
        const Tick access = now - rng.UniformInt(0, 3);
        const int64_t prefix = rng.UniformInt(0, 8);
        heap.Insert(page, access, prefix);
        model.Insert(page, access, prefix);
        members.insert(page);
      }
    } else if (op < 45) {
      heap.Remove(page);
      model.Remove(page);
      members.erase(page);
    } else if (op < 70) {
      const Tick access = now - rng.UniformInt(0, 3);
      heap.UpdateLastAccess(page, access);
      model.UpdateLastAccess(page, access);
    } else if (op < 85) {
      const int64_t prefix = rng.UniformInt(0, 8);
      heap.SetPrefixLength(page, prefix);
      model.SetPrefixLength(page, prefix);
    } else {
      const auto expected = model.PopVictim();
      const auto actual = heap.PopVictim();
      ASSERT_EQ(actual, expected) << "victim mismatch at step " << step;
      if (expected.has_value()) {
        members.erase(*expected);
      }
    }

    ASSERT_EQ(heap.PeekOldestAccess(), model.PeekOldestAccess());
    ASSERT_EQ(heap.size(), model.size());
    ASSERT_EQ(heap.Contains(page), model.Contains(page));
    // Tombstone compaction keeps the heap O(live keys): never more than the compaction
    // threshold (2x live, floored) plus the entries pushed since the last trigger point.
    ASSERT_LE(heap.heap_entries(), 2 * heap.size() + 65);
  }

  // Drain completely: the full victim sequence must match.
  while (true) {
    const auto expected = model.PopVictim();
    const auto actual = heap.PopVictim();
    ASSERT_EQ(actual, expected);
    if (!expected.has_value()) {
      break;
    }
  }
  ASSERT_EQ(heap.size(), 0u);
}

class EvictorEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvictorEquivalenceTest, MatchesOrderedSetModel) {
  constexpr int kPages = 96;
  RunEquivalence(GetParam(), [](int /*step*/, Rng& rng) { return rng.UniformInt(0, kPages - 1); });
}

// The evictor keeps its keys in a vector indexed by page id that grows with the largest id
// inserted. Here the id range widens as the run goes on, and half of all operations target
// ids up to twice past the widest range so far: absent pages beyond the vector's end must
// stay no-ops, and inserts there must grow it without disturbing the keys already held.
TEST_P(EvictorEquivalenceTest, PageIdsPastTheKeyTableMatchOrderedSetModel) {
  RunEquivalence(GetParam(), [](int step, Rng& rng) {
    const int64_t span = 64 + step / 4;
    return rng.UniformInt(0, 1) == 0 ? rng.UniformInt(0, span - 1)
                                     : rng.UniformInt(span, 2 * span + 4096);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictorEquivalenceTest,
                         ::testing::Values(0x1u, 0x2u, 0x3u, 0x5u, 0x8u, 0xDu, 0x15u, 0x22u));

}  // namespace
}  // namespace jenga

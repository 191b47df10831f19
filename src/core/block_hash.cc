#include "src/core/block_hash.h"

#include <algorithm>
#include <array>

#include "src/common/check.h"

namespace jenga {

namespace {

// FNV-1a style absorption with a 64-bit avalanche finish; cheap and collision-resistant
// enough for cache keys over token ids.
uint64_t Absorb(uint64_t h, uint64_t value) {
  h ^= value;
  h *= 0x100000001B3ull;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return h;
}

// Lanes one ExtendChains call can run: one per KV group at most.
constexpr size_t kMaxLanes = 16;

// One chain of an interleaved pass over blocks of the pass's smallest unit: its running
// value, its unit in such blocks, and the blocks of its current unit already absorbed.
struct Lane {
  uint64_t h = 0;
  size_t ratio = 1;
  size_t phase = 0;
  std::vector<BlockHash>* out = nullptr;
};

// Absorbs blocks [begin, end) of `block` tokens into kLanes lanes at once: each token is
// absorbed by every lane before the next one, so the lanes' multiply chains overlap. A lane
// absorbs the block-boundary constant when a block starts one of its units and appends its
// value when a block ends one. A compile-time lane count keeps the chain values in registers.
template <size_t kLanes>
void ChainLanes(std::span<const int32_t> tokens, size_t block, size_t begin, size_t end,
                Lane* const* lanes) {
  std::array<uint64_t, kLanes> h;
  std::array<size_t, kLanes> phase;
  for (size_t l = 0; l < kLanes; ++l) {
    h[l] = lanes[l]->h;
    phase[l] = lanes[l]->phase;
  }
  for (size_t b = begin; b < end; ++b) {
    for (size_t l = 0; l < kLanes; ++l) {
      if (phase[l] == 0) {
        h[l] = Absorb(h[l], 0x9E3779B97F4A7C15ull);
      }
    }
    for (const int32_t token : tokens.subspan(b * block, block)) {
      const uint64_t value = static_cast<uint64_t>(static_cast<uint32_t>(token)) + 1;
      for (size_t l = 0; l < kLanes; ++l) {
        h[l] = Absorb(h[l], value);
      }
    }
    for (size_t l = 0; l < kLanes; ++l) {
      if (++phase[l] == lanes[l]->ratio) {
        phase[l] = 0;
        lanes[l]->out->push_back(h[l]);
      }
    }
  }
  for (size_t l = 0; l < kLanes; ++l) {
    lanes[l]->h = h[l];
    lanes[l]->phase = phase[l];
  }
}

}  // namespace

BlockHash InitBlockChain(uint64_t salt) { return Absorb(0x51A3C0DE5EEDull, salt); }

BlockHash ExtendBlockHash(BlockHash previous, std::span<const int32_t> block_tokens) {
  uint64_t h = Absorb(previous, 0x9E3779B97F4A7C15ull);
  for (int32_t token : block_tokens) {
    h = Absorb(h, static_cast<uint64_t>(static_cast<uint32_t>(token)) + 1);
  }
  return h;
}

std::vector<BlockHash> ChainBlockHashes(std::span<const int32_t> tokens, int block_size,
                                        uint64_t salt) {
  std::vector<BlockHash> hashes;
  ExtendChains(tokens, std::span(&block_size, 1), std::span(&salt, 1), std::span(&hashes, 1));
  return hashes;
}

void ExtendChains(std::span<const int32_t> tokens, std::span<const int> units,
                  std::span<const uint64_t> salts, std::span<std::vector<BlockHash>> chains) {
  JENGA_CHECK_EQ(chains.size(), salts.size());
  JENGA_CHECK_EQ(units.size(), salts.size());
  if (units.empty()) {
    return;
  }
  JENGA_CHECK_LE(units.size(), kMaxLanes);
  const int smallest = *std::min_element(units.begin(), units.end());
  JENGA_CHECK_GT(smallest, 0);
  const size_t block = static_cast<size_t>(smallest);
  // Lane l hashes the smallest-unit blocks [first[l], last[l]): from its resume point to the
  // end of its last full unit.
  std::array<Lane, kMaxLanes> lanes;
  std::array<size_t, kMaxLanes> first;
  std::array<size_t, kMaxLanes> last;
  std::array<size_t, 2 * kMaxLanes> edges;
  const size_t num_lanes = units.size();
  for (size_t l = 0; l < num_lanes; ++l) {
    const size_t unit = static_cast<size_t>(units[l]);
    JENGA_CHECK_EQ(unit % block, 0u) << "every unit must be a multiple of the smallest";
    const size_t num_units = tokens.size() / unit;
    std::vector<BlockHash>& chain = chains[l];
    JENGA_CHECK_LE(chain.size(), num_units);
    lanes[l] = Lane{chain.empty() ? InitBlockChain(salts[l]) : chain.back(), unit / block, 0,
                    &chain};
    chain.reserve(num_units);
    first[l] = chain.size() * (unit / block);
    last[l] = num_units * (unit / block);
    edges[2 * l] = first[l];
    edges[2 * l + 1] = last[l];
  }
  const auto edges_end = edges.begin() + static_cast<std::ptrdiff_t>(2 * num_lanes);
  std::sort(edges.begin(), edges_end);
  const size_t num_edges = static_cast<size_t>(std::unique(edges.begin(), edges_end) -
                                               edges.begin());
  // Between consecutive edges the set of lanes still hashing is fixed; run it two at a time.
  std::array<Lane*, kMaxLanes> active;
  for (size_t e = 0; e + 1 < num_edges; ++e) {
    const size_t begin = edges[e];
    const size_t end = edges[e + 1];
    size_t num_active = 0;
    for (size_t l = 0; l < num_lanes; ++l) {
      if (first[l] <= begin && end <= last[l]) {
        active[num_active++] = &lanes[l];
      }
    }
    size_t lane = 0;
    for (; lane + 2 <= num_active; lane += 2) {
      ChainLanes<2>(tokens, block, begin, end, &active[lane]);
    }
    if (lane < num_active) {
      ChainLanes<1>(tokens, block, begin, end, &active[lane]);
    }
  }
}

int64_t LongestCommonValidPrefix(std::span<const std::vector<bool>> valids) {
  if (valids.empty()) {
    return 0;
  }
  const size_t size = valids.front().size();
  for (const std::vector<bool>& v : valids) {
    JENGA_CHECK_EQ(v.size(), size) << "all groups must report the same boundary count";
  }
  for (int64_t boundary = static_cast<int64_t>(size) - 1; boundary > 0; --boundary) {
    bool all = true;
    for (const std::vector<bool>& v : valids) {
      if (!v[static_cast<size_t>(boundary)]) {
        all = false;
        break;
      }
    }
    if (all) {
      return boundary;
    }
  }
  return 0;
}

}  // namespace jenga

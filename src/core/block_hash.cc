#include "src/core/block_hash.h"

#include <array>
#include <utility>

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

// ExtendBlockHash over every full block past the ones `out` already holds, for kLanes chains
// at once: each token is absorbed by every lane before the next one, so the lanes' multiply
// chains overlap. A compile-time lane count keeps the chain values in registers.
template <size_t kLanes>
void ChainLanes(std::span<const int32_t> tokens, size_t block_size, const uint64_t* salts,
                std::vector<BlockHash>* out) {
  const size_t num_blocks = tokens.size() / block_size;
  const size_t done = out[0].size();
  std::array<uint64_t, kLanes> h;
  for (size_t l = 0; l < kLanes; ++l) {
    h[l] = done == 0 ? InitBlockChain(salts[l]) : out[l].back();
    out[l].reserve(num_blocks);
  }
  for (size_t b = done; b < num_blocks; ++b) {
    for (size_t l = 0; l < kLanes; ++l) {
      h[l] = Absorb(h[l], 0x9E3779B97F4A7C15ull);
    }
    for (const int32_t token : tokens.subspan(b * block_size, block_size)) {
      const uint64_t value = static_cast<uint64_t>(static_cast<uint32_t>(token)) + 1;
      for (size_t l = 0; l < kLanes; ++l) {
        h[l] = Absorb(h[l], value);
      }
    }
    for (size_t l = 0; l < kLanes; ++l) {
      out[l].push_back(h[l]);
    }
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
  return std::move(ChainBlockHashes(tokens, block_size, std::span<const uint64_t>(&salt, 1))[0]);
}

std::vector<std::vector<BlockHash>> ChainBlockHashes(std::span<const int32_t> tokens,
                                                     int block_size,
                                                     std::span<const uint64_t> salts) {
  std::vector<std::vector<BlockHash>> hashes(salts.size());
  ExtendChains(tokens, block_size, salts, hashes);
  return hashes;
}

void ExtendChains(std::span<const int32_t> tokens, int block_size,
                  std::span<const uint64_t> salts, std::span<std::vector<BlockHash>> chains) {
  JENGA_CHECK_GT(block_size, 0);
  JENGA_CHECK_EQ(chains.size(), salts.size());
  for (const std::vector<BlockHash>& chain : chains) {
    JENGA_CHECK_EQ(chain.size(), chains.front().size()) << "chains must cover the same blocks";
    JENGA_CHECK_LE(chain.size(), tokens.size() / static_cast<size_t>(block_size));
  }
  size_t lane = 0;
  for (; lane + 2 <= salts.size(); lane += 2) {
    ChainLanes<2>(tokens, static_cast<size_t>(block_size), &salts[lane], &chains[lane]);
  }
  if (lane < salts.size()) {
    ChainLanes<1>(tokens, static_cast<size_t>(block_size), &salts[lane], &chains[lane]);
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

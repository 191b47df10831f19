// Content-addressed block hashing for prefix caching. Hashes are chained: the hash of block i
// commits to every token in blocks 0..i, so equal hashes identify equal *prefixes* — the
// property prefix caching relies on.

#ifndef JENGA_SRC_CORE_BLOCK_HASH_H_
#define JENGA_SRC_CORE_BLOCK_HASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/types.h"

namespace jenga {

// Initial chain value for a given salt; ChainBlockHashes starts from this, so incremental
// hashers (InitBlockChain + repeated ExtendBlockHash) produce identical hashes.
[[nodiscard]] BlockHash InitBlockChain(uint64_t salt);

// The per-group chain salt the KV manager hashes with (group index → salt). Exposed here so
// layers that compute chains *about* a manager's cache — the cluster router scoring a prompt
// against per-replica residency summaries — produce hashes identical to the ones the manager
// registered. Changing this constant invalidates every golden that pins hash-dependent
// placement.
[[nodiscard]] inline uint64_t GroupChainSalt(int group_index) {
  return (static_cast<uint64_t>(group_index) + 1) * 0x9E3779B97F4A7C15ull;
}

// Chained hash of one more block given the previous chain value.
[[nodiscard]] BlockHash ExtendBlockHash(BlockHash previous, std::span<const int32_t> block_tokens);

// Hashes all *full* blocks of `tokens` (floor(len / block_size) of them). `salt` namespaces
// the chain, e.g. per group kind, so identical token streams in different coordinate spaces
// (text blocks vs Mamba checkpoints) never alias.
[[nodiscard]] std::vector<BlockHash> ChainBlockHashes(std::span<const int32_t> tokens,
                                                      int block_size, uint64_t salt);

// One chain per salt over the same stream and block size, in salt order; chain i equals
// ChainBlockHashes(tokens, block_size, salts[i]). A thin wrapper of ExtendChains from empty
// chains.
[[nodiscard]] std::vector<std::vector<BlockHash>> ChainBlockHashes(
    std::span<const int32_t> tokens, int block_size, std::span<const uint64_t> salts);

// Completes one chain per lane over the same stream, in lane order: lane i hashes blocks of
// units[i] tokens under salts[i]. On entry chains[i] holds the hashes of the first k_i full
// blocks of its unit (k_i may be 0 and may differ per lane); on return it holds
// ChainBlockHashes(tokens, units[i], salts[i]). So a caller that already has a prefix's hashes
// (another prompt's, over the same leading tokens) pays only for the blocks past it. Every
// unit must be a multiple of the smallest, and there are at most 16 lanes. The lanes advance
// together token by token, so their independent multiply latencies overlap instead of running
// back to back; each lane absorbs only its own span of tokens, decided per smallest-unit
// block.
void ExtendChains(std::span<const int32_t> tokens, std::span<const int> units,
                  std::span<const uint64_t> salts, std::span<std::vector<BlockHash>> chains);

// Longest prefix boundary valid in *every* group (§5.2): each element of `valids` is one
// group's bitmap over the same boundary indices (all must share a size); returns the largest
// index at which all bitmaps are true. Index 0 (the empty prefix) is always valid.
[[nodiscard]] int64_t LongestCommonValidPrefix(std::span<const std::vector<bool>> valids);

}  // namespace jenga

#endif  // JENGA_SRC_CORE_BLOCK_HASH_H_

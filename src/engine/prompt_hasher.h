// Prompt hashing for the §5.2 hit scan (DESIGN.md §8): per layer group, one block hash per whole
// hit unit of the group's token stream, chained under the group's salt. KvManager hashes each
// prompt it admits through one, with the shared-prefix table; FleetCore routes through its own,
// held const, so routing never reaches the table (DESIGN.md §10).

#ifndef JENGA_SRC_ENGINE_PROMPT_HASHER_H_
#define JENGA_SRC_ENGINE_PROMPT_HASHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/block_hash.h"
#include "src/engine/request.h"
#include "src/model/kv_spec.h"

namespace jenga {

// True when JENGA_CHECK_ADMISSION is set (read once): admission then cross-checks the fused hit
// scan against the bitmap reference and every chain taken from the shared-prefix table against a
// from-scratch hash. Off by default, since both re-do every lookup and hash; fuzz and chaos set it.
[[nodiscard]] bool AdmissionAuditEnabled();

class PromptHasher {
 public:
  static constexpr size_t kSharedPrefixSlots = 256;
  static constexpr size_t kSharedPrefixWays = 4;  // A key may sit in any slot of its set.

  // Groups whose chains one pass hashes together, one ExtendChains lane each: they share a
  // token stream (the prompt, or its text or image subsequence for text- and image-scoped
  // groups), and their hit units divide one another (Jamba's 16-token blocks and 512-token
  // Mamba checkpoints).
  struct HashPass {
    GroupScope stream = GroupScope::kAllTokens;  // kAllTokens: the whole prompt.
    std::vector<size_t> groups;
    std::vector<uint64_t> salts;  // GroupChainSalt of each of `groups`.
    std::vector<int> units;       // unit() of each of `groups`.
  };

  struct SharedPrefixStats {
    int64_t entries = 0;        // Slots holding a key; at most kSharedPrefixSlots.
    int64_t stored_tokens = 0;  // Prompt tokens held across the slots.
    int64_t stored_hashes = 0;  // Chain hashes held across the slots.
    int64_t reused_tokens = 0;  // Cumulative common-prefix tokens PromptChains found.
  };

  // Every group of `spec` but Mamba's holds `tokens_per_page` tokens per page.
  PromptHasher(const KvSpec& spec, int tokens_per_page);

  // Group g's hit unit: the checkpoint interval for Mamba, a block (of the group's stream)
  // otherwise.
  [[nodiscard]] int unit(size_t g) const { return units_[g]; }
  // The spec's passes, in order of each pass's first group.
  [[nodiscard]] const std::vector<HashPass>& passes() const { return passes_; }

  // Every group's chain over `prompt`. With `use_table`, the all-token passes resume from the
  // chains that the slot of `prompt`'s key holds for their common prefix, and the slot then
  // holds `prompt`; without it every pass hashes from scratch and the table is untouched (the
  // reference the table must match bit for bit).
  [[nodiscard]] std::vector<std::vector<BlockHash>> PromptChains(const Prompt& prompt,
                                                                 bool use_table);
  // Group g's chain over `prompt`, hashed from scratch. Reads no table, so concurrent callers
  // need no lock.
  [[nodiscard]] std::vector<BlockHash> GroupChain(const Prompt& prompt, size_t g) const;

  [[nodiscard]] SharedPrefixStats shared_prefix_stats() const;
  // The set a prompt of at least one block maps to: its key (a hash of its first block)
  // modulo the number of sets.
  [[nodiscard]] size_t SharedPrefixSet(std::span<const int32_t> prompt) const;

 private:
  static constexpr size_t kSets = kSharedPrefixSlots / kSharedPrefixWays;

  // One slot of the table: the most recent prompt whose first block hashed to `key`, with the
  // chains of every all-token group over it. Prompts that share a first block mostly share far
  // more (questions over one document), so the next one copies the chains of the whole units
  // inside its common prefix with the slot and hashes only the rest. A key's first sighting
  // stores the key alone, so prompts that share nothing store nothing.
  struct SharedPrefix {
    BlockHash key = 0;
    uint64_t last_use = 0;  // clock_ at the slot's latest lookup; 0 while the slot is unused.
    std::vector<int32_t> tokens;
    std::vector<std::vector<BlockHash>> chains;
  };

  [[nodiscard]] BlockHash SharedPrefixKey(std::span<const int32_t> prompt) const;
  // The slot holding `prompt`'s key, made to hold `prompt`, with `common` set to the common
  // prefix of `prompt` and the tokens it held. nullptr for a prompt shorter than one block, or
  // when no slot of the key's set holds the key: the key then replaces the set's least
  // recently used slot.
  SharedPrefix* TakeSharedPrefix(std::span<const int32_t> prompt, size_t& common);

  int tokens_per_page_;
  std::vector<int> units_;
  std::vector<GroupScope> streams_;  // Per group: kAllTokens, kTextTokens or kImageTokens.
  std::vector<HashPass> passes_;
  // Four-way set-associative on the first-block key (set s is slots 4s to 4s + 3), so four
  // documents whose keys share a set do not evict each other; allocated on first use.
  std::vector<SharedPrefix> slots_;
  uint64_t clock_ = 0;
  int64_t reused_tokens_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_PROMPT_HASHER_H_

#include "src/engine/prompt_hasher.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/core/policy_factory.h"

namespace jenga {

namespace {

// `prompt`'s tokens of a `stream` (all of them, or its text or image subsequence), gathered
// into `buf` unless the stream is the whole prompt.
std::span<const int32_t> StreamOf(const Prompt& prompt, GroupScope stream,
                                  std::vector<int32_t>& buf) {
  if (stream == GroupScope::kAllTokens) {
    return prompt.tokens;
  }
  const TokenKind kind = stream == GroupScope::kImageTokens ? TokenKind::kImage : TokenKind::kText;
  buf.clear();
  for (int64_t i = 0; i < prompt.size(); ++i) {
    if (prompt.kind(i) == kind) {
      buf.push_back(prompt.tokens[static_cast<size_t>(i)]);
    }
  }
  return buf;
}

// Length of the common prefix of `a` and `b`: memcmp over 64-token strides up to the first
// stride that differs, then token by token inside it.
size_t CommonPrefixLength(std::span<const int32_t> a, std::span<const int32_t> b) {
  constexpr size_t kStride = 64;
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i + kStride <= n &&
         std::memcmp(a.data() + i, b.data() + i, kStride * sizeof(int32_t)) == 0) {
    i += kStride;
  }
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

}  // namespace

bool AdmissionAuditEnabled() {
  static const bool enabled = std::getenv("JENGA_CHECK_ADMISSION") != nullptr;
  return enabled;
}

PromptHasher::PromptHasher(const KvSpec& spec, int tokens_per_page)
    : tokens_per_page_(tokens_per_page) {
  JENGA_CHECK_GT(tokens_per_page, 0);
  for (size_t g = 0; g < spec.groups.size(); ++g) {
    const KvGroupSpec& group = spec.groups[g];
    const bool mamba = group.kind == GroupKind::kMamba;
    JENGA_CHECK(mamba || group.tokens_per_page == tokens_per_page) << "group " << group.name;
    const int unit = mamba ? kMambaCheckpointInterval : tokens_per_page;
    // A per-sequence group (Mamba) hashes the whole prompt.
    const GroupScope stream =
        group.scope == GroupScope::kPerSequence ? GroupScope::kAllTokens : group.scope;
    units_.push_back(unit);
    streams_.push_back(stream);
    auto pass = std::find_if(passes_.begin(), passes_.end(), [&](const HashPass& p) {
      return p.stream == stream && std::all_of(p.units.begin(), p.units.end(), [unit](int u) {
               return u % unit == 0 || unit % u == 0;
             });
    });
    if (pass == passes_.end()) {
      pass = passes_.insert(pass, HashPass{stream, {}, {}, {}});
    }
    pass->groups.push_back(g);
    pass->salts.push_back(GroupChainSalt(static_cast<int>(g)));
    pass->units.push_back(unit);
  }
}

std::vector<std::vector<BlockHash>> PromptHasher::PromptChains(const Prompt& prompt,
                                                               bool use_table) {
  size_t common = 0;
  // The table serves all-token passes only.
  SharedPrefix* const slot = use_table && std::ranges::count(streams_, GroupScope::kAllTokens) > 0
                                 ? TakeSharedPrefix(prompt.tokens, common)
                                 : nullptr;
  std::vector<std::vector<BlockHash>> group_chains(units_.size());
  std::vector<int32_t> sub;
  for (const HashPass& pass : passes_) {
    const bool seeded = slot != nullptr && pass.stream == GroupScope::kAllTokens;
    std::vector<std::vector<BlockHash>> chains(pass.groups.size());
    for (size_t i = 0; seeded && i < pass.groups.size(); ++i) {
      // Each lane resumes after its own whole units inside the common prefix.
      chains[i] = std::move(slot->chains[pass.groups[i]]);
      chains[i].resize(std::min(chains[i].size(), common / static_cast<size_t>(pass.units[i])));
    }
    const std::span<const int32_t> stream = StreamOf(prompt, pass.stream, sub);
    ExtendChains(stream, pass.units, pass.salts, chains);
    for (size_t i = 0; i < pass.groups.size(); ++i) {
      const size_t g = pass.groups[i];
      if (seeded) {
        JENGA_CHECK(!AdmissionAuditEnabled() ||
                    chains[i] == ChainBlockHashes(stream, pass.units[i], pass.salts[i]))
            << "shared-prefix chain of group " << g << " diverged from its from-scratch hash";
        slot->chains[g] = chains[i];
      }
      group_chains[g] = std::move(chains[i]);
    }
  }
  return group_chains;
}

std::vector<BlockHash> PromptHasher::GroupChain(const Prompt& prompt, size_t g) const {
  std::vector<int32_t> sub;
  return ChainBlockHashes(StreamOf(prompt, streams_[g], sub), units_[g],
                          GroupChainSalt(static_cast<int>(g)));
}

PromptHasher::SharedPrefix* PromptHasher::TakeSharedPrefix(std::span<const int32_t> prompt,
                                                           size_t& common) {
  if (prompt.size() < static_cast<size_t>(tokens_per_page_)) {
    return nullptr;  // No first block to key on, and no whole unit to share.
  }
  if (slots_.empty()) {
    slots_.resize(kSharedPrefixSlots);
  }
  const BlockHash key = SharedPrefixKey(prompt);
  const std::span<SharedPrefix> set =
      std::span(slots_).subspan(key % kSets * kSharedPrefixWays, kSharedPrefixWays);
  const auto held = std::find_if(set.begin(), set.end(), [key](const SharedPrefix& slot) {
    return slot.last_use != 0 && slot.key == key;
  });
  if (held == set.end()) {
    // An unused slot has last_use 0, so it goes first. Assigning a fresh slot frees the
    // previous prompt's buffers.
    *std::min_element(set.begin(), set.end(), [](const SharedPrefix& a, const SharedPrefix& b) {
      return a.last_use < b.last_use;
    }) = SharedPrefix{key, ++clock_, {}, {}};
    return nullptr;
  }
  SharedPrefix& slot = *held;
  slot.last_use = ++clock_;
  // The key only makes a shared prefix likely; the comparison decides how long it is.
  common = CommonPrefixLength(prompt, slot.tokens);
  reused_tokens_ += static_cast<int64_t>(common);
  slot.tokens.resize(common);
  slot.tokens.insert(slot.tokens.end(), prompt.begin() + static_cast<std::ptrdiff_t>(common),
                     prompt.end());
  slot.chains.resize(units_.size());
  return &slot;
}

BlockHash PromptHasher::SharedPrefixKey(std::span<const int32_t> prompt) const {
  return ExtendBlockHash(InitBlockChain(0), prompt.first(static_cast<size_t>(tokens_per_page_)));
}

size_t PromptHasher::SharedPrefixSet(std::span<const int32_t> prompt) const {
  return SharedPrefixKey(prompt) % kSets;
}

PromptHasher::SharedPrefixStats PromptHasher::shared_prefix_stats() const {
  SharedPrefixStats stats;
  stats.reused_tokens = reused_tokens_;
  for (const SharedPrefix& slot : slots_) {
    stats.entries += slot.last_use != 0 ? 1 : 0;
    stats.stored_tokens += static_cast<int64_t>(slot.tokens.size());
    for (const std::vector<BlockHash>& chain : slot.chains) {
      stats.stored_hashes += static_cast<int64_t>(chain.size());
    }
  }
  return stats;
}

}  // namespace jenga

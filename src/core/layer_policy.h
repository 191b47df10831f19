// Customizable per-layer-type prefix caching (§5, Figure 9). Each KV group owns a LayerPolicy
// that expresses its token-dependency pattern through three hooks:
//
//   UpdateLastAccess — which pages a computation step actually touches (balanced eviction),
//   SetPrefixLength  — aligned per-token eviction priorities within a timestamp,
//   GetPossiblePrefix — which cached prefixes constitute a valid hit.
//
// Most policies are fully determined by their *needed-token* rule ("which prefix tokens does
// generation depend on"), so the base class derives the three hooks from NeededTokenRanges();
// Mamba and the image caches override the hooks directly.

#ifndef JENGA_SRC_CORE_LAYER_POLICY_H_
#define JENGA_SRC_CORE_LAYER_POLICY_H_

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/core/types.h"

namespace jenga {

// Lazily-resolved per-block cache-hit flags backing the incremental §5.2 hit scan. Each block
// is probed at most once (a probe is an allocator/host-tier hash lookup); results are memoized
// so repeated boundary candidates cost array reads only. The contiguous all-hit prefix is
// tracked separately so full-prefix range checks are O(1) amortized instead of O(p) per
// candidate prefix.
class BlockHitResolver {
 public:
  BlockHitResolver(int64_t num_blocks, std::function<bool(int64_t)> probe)
      : probe_(std::move(probe)), state_(static_cast<size_t>(num_blocks), kUnknown) {}

  [[nodiscard]] int64_t num_blocks() const { return static_cast<int64_t>(state_.size()); }

  // Memoized single-block probe.
  [[nodiscard]] bool IsHit(int64_t block);

  // True when any block in [lo, hi) — clamped to [0, num_blocks()) — is a miss.
  [[nodiscard]] bool AnyMiss(int64_t lo, int64_t hi);

 private:
  static constexpr int8_t kUnknown = -1;
  std::function<bool(int64_t)> probe_;
  std::vector<int8_t> state_;  // -1 unknown, 0 miss, 1 hit.
  // Blocks [0, contig_hits_) are known hits; when first_miss_known_, block contig_hits_ is the
  // stream's first miss.
  int64_t contig_hits_ = 0;
  bool first_miss_known_ = false;
};

// Mutation interface the policies use to talk to their group's allocator (the `self.evictor`
// of Figure 9b). Implemented by SmallPageAllocator.
class GroupCacheOps {
 public:
  virtual ~GroupCacheOps() = default;
  virtual void UpdateLastAccess(SmallPageId page, Tick now) = 0;
  virtual void SetPrefixLength(SmallPageId page, int64_t prefix_length) = 0;
};

// A request's footprint in one group: the group-local block page table plus enough context to
// interpret it. `num_tokens` counts tokens in the group's own coordinate space (all tokens for
// self-attention, image tokens for image groups, checkpoint count × interval for Mamba).
struct RequestPages {
  RequestId request = kNoRequest;
  std::span<const SmallPageId> pages;
  int64_t num_tokens = 0;
  int tokens_per_page = 1;
};

// Half-open token range [begin, end).
struct TokenRange {
  int64_t begin = 0;
  int64_t end = 0;
  [[nodiscard]] bool empty() const { return begin >= end; }
  bool operator==(const TokenRange&) const = default;
};

// A needed-token rule's ranges, held inline: every dependency pattern is at most attention
// sinks plus a recent window, so the per-step hooks never touch the heap.
class TokenRanges {
 public:
  static constexpr size_t kCapacity = 2;

  TokenRanges() = default;
  TokenRanges(std::initializer_list<TokenRange> ranges) {
    JENGA_CHECK_LE(ranges.size(), kCapacity);
    // Element by element: std::copy of this trivially copyable type becomes a memmove call.
    for (const TokenRange& range : ranges) {
      ranges_[size_++] = range;
    }
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const TokenRange& operator[](size_t i) const { return ranges_[i]; }
  [[nodiscard]] const TokenRange& back() const { return ranges_[size_ - 1]; }
  [[nodiscard]] const TokenRange* begin() const { return ranges_.data(); }
  [[nodiscard]] const TokenRange* end() const { return ranges_.data() + size_; }

 private:
  std::array<TokenRange, kCapacity> ranges_{};
  size_t size_ = 0;
};

class LayerPolicy {
 public:
  virtual ~LayerPolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  // The prefix-subset dependency: which tokens of a `num_tokens`-long prefix are needed to
  // generate the next token. Ranges are disjoint and ascending, at most
  // TokenRanges::kCapacity of them. Full attention returns [0, num_tokens); sliding window
  // returns the trailing window; PyramidKV returns sinks + trailing budget.
  [[nodiscard]] virtual TokenRanges NeededTokenRanges(int64_t num_tokens) const = 0;

  // §5.1 (balanced eviction): refresh last-access time of the pages touched this step.
  // Default: every page intersecting a needed range.
  virtual void UpdateLastAccess(const RequestPages& request, Tick now, GroupCacheOps& ops) const;

  // §5.1 (aligned eviction): assign per-page prefix lengths. Default: page i covers tokens up
  // to (i+1)·tokens_per_page, so deeper tokens evict first on timestamp ties.
  virtual void SetPrefixLength(const RequestPages& request, GroupCacheOps& ops) const;

  // §5.2 (customized hit rule): given per-block cached flags, returns valid[p] for
  // p = 0..is_hit.size(), where valid[p] means "a prefix of p blocks is a usable cache hit".
  // Default: prefix of p blocks is valid iff every *needed* block of that prefix is cached.
  [[nodiscard]] virtual std::vector<bool> GetPossiblePrefix(const std::vector<bool>& is_hit,
                                                            int tokens_per_page) const;

  // Incremental form of GetPossiblePrefix: evaluates valid[p] for one candidate prefix
  // without materializing the whole bitmap, resolving block hits lazily through `hits`.
  // Contract: must agree with GetPossiblePrefix for every p in [0, hits.num_blocks()].
  // Default mirrors the needed-range rule; MambaPolicy overrides (checkpoint p alone).
  [[nodiscard]] virtual bool PrefixValid(BlockHitResolver& hits, int64_t p,
                                         int tokens_per_page) const;

  // True when pages that fall outside the needed ranges may be dropped (freed or deprioritized)
  // while the request is still running. Sliding-window and pyramid layers return true; full
  // attention must keep everything.
  [[nodiscard]] virtual bool CanDropUnneededPages() const { return false; }

  // True when UpdateLastAccess refreshes every page the request still holds resident —
  // either because the needed ranges always cover the full prefix (full attention, image
  // caches) or because pages outside the ranges are dropped as they fall out (sliding window
  // and pyramid, provided DropUnneededPages actually runs). KvManager uses this to defer the
  // per-step O(pages) refresh to a single per-request timestamp applied at release/drop time:
  // while a page is used its last-access is unobservable, so the deferred value — the tick of
  // the owner's last computed step — is exactly what the eager loop would have left behind.
  // Mamba qualifies too: its one resident page is the running state, which every step
  // touches and which never carries a content hash.
  [[nodiscard]] virtual bool RefreshCoversResidentPages() const { return false; }

  // Drop schedule of a droppable policy, for KvManager's event-driven step: the smallest token
  // count above `num_tokens` at which the last needed range begins past `token`, i.e. when a
  // drop walk can pass `token`. An earlier count is allowed, a later one is not. The default
  // is the next token, so a custom droppable policy is re-checked every step.
  [[nodiscard]] virtual int64_t NextDropPoint(int64_t num_tokens, int64_t /*token*/) const {
    return num_tokens + 1;
  }

  // Host-offload eligibility: whether this group's pages are worth moving over PCIe instead
  // of recomputing. Full-prefix KV, Mamba states, and vision embeddings are (the state is
  // expensive or impossible to recompute cheaply); sliding-window tails and pyramid middles
  // are cheap to recompute, so their pages never travel.
  [[nodiscard]] virtual bool SwapEligible() const { return true; }
};

// Standard full-prefix self-attention (and cross-attention over image tokens, which needs all
// image KV every step).
class FullPrefixPolicy : public LayerPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "full_prefix"; }
  [[nodiscard]] TokenRanges NeededTokenRanges(int64_t num_tokens) const override {
    if (num_tokens == 0) {
      return {};
    }
    return {{0, num_tokens}};
  }
  [[nodiscard]] bool RefreshCoversResidentPages() const override { return true; }
};

// Sliding-window attention: only the trailing `window` tokens are needed (§5.3, Figure 9b).
class SlidingWindowPolicy : public LayerPolicy {
 public:
  explicit SlidingWindowPolicy(int window);
  [[nodiscard]] const char* name() const override { return "sliding_window"; }
  [[nodiscard]] TokenRanges NeededTokenRanges(int64_t num_tokens) const override;
  [[nodiscard]] bool CanDropUnneededPages() const override { return true; }
  [[nodiscard]] bool SwapEligible() const override { return false; }
  [[nodiscard]] bool RefreshCoversResidentPages() const override { return true; }
  [[nodiscard]] int64_t NextDropPoint(int64_t num_tokens, int64_t token) const override;
  [[nodiscard]] int window() const { return window_; }

 private:
  int window_;
};

// PyramidKV-style sparse attention: keeps `num_sinks` attention-sink tokens plus the most
// recent tokens up to `token_budget` total.
class PyramidPolicy : public LayerPolicy {
 public:
  PyramidPolicy(int token_budget, int num_sinks);
  [[nodiscard]] const char* name() const override { return "pyramid"; }
  [[nodiscard]] TokenRanges NeededTokenRanges(int64_t num_tokens) const override;
  [[nodiscard]] bool CanDropUnneededPages() const override { return true; }
  [[nodiscard]] bool SwapEligible() const override { return false; }
  [[nodiscard]] bool RefreshCoversResidentPages() const override { return true; }
  [[nodiscard]] int64_t NextDropPoint(int64_t num_tokens, int64_t token) const override;

 private:
  int token_budget_;
  int num_sinks_;
};

// Mamba / state-space layers (§5.3): one running state per sequence plus a checkpoint of the
// state every `checkpoint_interval` tokens. Group-local "blocks" are checkpoints: block i
// caches the state after (i+1)·interval tokens. A hit restores from any single cached
// checkpoint, so valid prefixes are exactly the cached checkpoints. Only the most recent page
// has its access time refreshed, and prefix lengths reflect checkpoint depth.
class MambaPolicy : public LayerPolicy {
 public:
  explicit MambaPolicy(int checkpoint_interval);
  [[nodiscard]] const char* name() const override { return "mamba"; }
  [[nodiscard]] TokenRanges NeededTokenRanges(int64_t num_tokens) const override;
  void UpdateLastAccess(const RequestPages& request, Tick now, GroupCacheOps& ops) const override;
  void SetPrefixLength(const RequestPages& request, GroupCacheOps& ops) const override;
  [[nodiscard]] std::vector<bool> GetPossiblePrefix(const std::vector<bool>& is_hit,
                                                    int tokens_per_page) const override;
  [[nodiscard]] bool PrefixValid(BlockHitResolver& hits, int64_t p,
                                 int tokens_per_page) const override;
  [[nodiscard]] bool RefreshCoversResidentPages() const override { return true; }

 private:
  int checkpoint_interval_;
};

// Image caches — the vision-embedding cache and the cross-attention KV cache (§5.3): evicting
// one token of an image forces re-encoding the whole image, so all pages of the same image get
// one shared randomized prefix length; the image with the highest value evicts first, keeping
// whole images together. The randomization is a deterministic hash of (request, image ordinal)
// so the vision and cross-attention groups assign identical priorities to the same image.
class ImageCachePolicy : public LayerPolicy {
 public:
  explicit ImageCachePolicy(int tokens_per_image);
  [[nodiscard]] const char* name() const override { return "image_cache"; }
  [[nodiscard]] TokenRanges NeededTokenRanges(int64_t num_tokens) const override {
    if (num_tokens == 0) {
      return {};
    }
    return {{0, num_tokens}};
  }
  void SetPrefixLength(const RequestPages& request, GroupCacheOps& ops) const override;
  [[nodiscard]] bool RefreshCoversResidentPages() const override { return true; }

 private:
  int tokens_per_image_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_LAYER_POLICY_H_

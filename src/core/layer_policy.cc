#include "src/core/layer_policy.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/math_util.h"

namespace jenga {

namespace {

// Stable 64-bit mix for the image-randomization hash.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

bool BlockHitResolver::IsHit(int64_t block) {
  JENGA_CHECK_GE(block, 0);
  JENGA_CHECK_LT(block, num_blocks());
  int8_t& s = state_[static_cast<size_t>(block)];
  if (s == kUnknown) {
    s = probe_(block) ? 1 : 0;
  }
  return s == 1;
}

bool BlockHitResolver::AnyMiss(int64_t lo, int64_t hi) {
  lo = std::max<int64_t>(lo, 0);
  hi = std::min<int64_t>(hi, num_blocks());
  if (lo >= hi) {
    return false;
  }
  if (hi <= contig_hits_) {
    return false;  // Entirely inside the known all-hit prefix.
  }
  if (lo <= contig_hits_) {
    // The query spans the frontier of the contiguous prefix: the answer is decided by whether
    // the first miss of the stream falls before hi. Extend the frontier toward hi.
    if (first_miss_known_) {
      return true;  // Block contig_hits_ is the first miss and contig_hits_ < hi.
    }
    while (contig_hits_ < hi) {
      if (!IsHit(contig_hits_)) {
        first_miss_known_ = true;
        return true;
      }
      ++contig_hits_;
    }
    return false;
  }
  for (int64_t j = lo; j < hi; ++j) {
    if (!IsHit(j)) {
      return true;
    }
  }
  return false;
}

void LayerPolicy::UpdateLastAccess(const RequestPages& request, Tick now,
                                   GroupCacheOps& ops) const {
  const TokenRanges ranges = NeededTokenRanges(request.num_tokens);
  const int tpp = request.tokens_per_page;
  for (size_t i = 0; i < request.pages.size(); ++i) {
    const auto b = static_cast<int64_t>(i);
    const bool touched = std::any_of(ranges.begin(), ranges.end(), [&](const TokenRange& range) {
      return !range.empty() && range.begin / tpp <= b && b < CeilDiv(range.end, tpp);
    });
    if (touched && request.pages[i] != kNoSmallPage) {
      ops.UpdateLastAccess(request.pages[i], now);
    }
  }
}

void LayerPolicy::SetPrefixLength(const RequestPages& request, GroupCacheOps& ops) const {
  for (size_t i = 0; i < request.pages.size(); ++i) {
    if (request.pages[i] != kNoSmallPage) {
      ops.SetPrefixLength(request.pages[i],
                          static_cast<int64_t>(i + 1) * request.tokens_per_page);
    }
  }
}

std::vector<bool> LayerPolicy::GetPossiblePrefix(const std::vector<bool>& is_hit,
                                                 int tokens_per_page) const {
  JENGA_CHECK_GT(tokens_per_page, 0);
  const int64_t num_blocks = static_cast<int64_t>(is_hit.size());
  // Prefix sums of misses let each candidate prefix be validated in O(#needed-ranges).
  std::vector<int64_t> miss_prefix(static_cast<size_t>(num_blocks) + 1, 0);
  for (int64_t b = 0; b < num_blocks; ++b) {
    miss_prefix[static_cast<size_t>(b) + 1] =
        miss_prefix[static_cast<size_t>(b)] + (is_hit[static_cast<size_t>(b)] ? 0 : 1);
  }
  std::vector<bool> valid(static_cast<size_t>(num_blocks) + 1, false);
  valid[0] = true;  // The empty prefix is always valid.
  for (int64_t p = 1; p <= num_blocks; ++p) {
    bool ok = true;
    for (const TokenRange& range : NeededTokenRanges(p * tokens_per_page)) {
      if (range.empty()) {
        continue;
      }
      const int64_t lo = range.begin / tokens_per_page;
      const int64_t hi = std::min<int64_t>(p, CeilDiv(range.end, tokens_per_page));
      if (miss_prefix[static_cast<size_t>(hi)] - miss_prefix[static_cast<size_t>(lo)] > 0) {
        ok = false;
        break;
      }
    }
    valid[static_cast<size_t>(p)] = ok;
  }
  return valid;
}

bool LayerPolicy::PrefixValid(BlockHitResolver& hits, int64_t p, int tokens_per_page) const {
  JENGA_CHECK_GT(tokens_per_page, 0);
  if (p == 0) {
    return true;  // The empty prefix is always valid.
  }
  for (const TokenRange& range : NeededTokenRanges(p * tokens_per_page)) {
    if (range.empty()) {
      continue;
    }
    const int64_t lo = range.begin / tokens_per_page;
    const int64_t hi = std::min<int64_t>(p, CeilDiv(range.end, tokens_per_page));
    if (hits.AnyMiss(lo, hi)) {
      return false;
    }
  }
  return true;
}

SlidingWindowPolicy::SlidingWindowPolicy(int window) : window_(window) {
  JENGA_CHECK_GT(window, 0);
}

TokenRanges SlidingWindowPolicy::NeededTokenRanges(int64_t num_tokens) const {
  if (num_tokens == 0) {
    return {};
  }
  const int64_t begin = std::max<int64_t>(0, num_tokens - window_);
  return {{begin, num_tokens}};
}

int64_t SlidingWindowPolicy::NextDropPoint(int64_t num_tokens, int64_t token) const {
  // The window [n - window, n) begins past `token` from n = token + window + 1 on.
  return std::max(num_tokens + 1, token + window_ + 1);
}

PyramidPolicy::PyramidPolicy(int token_budget, int num_sinks)
    : token_budget_(token_budget), num_sinks_(num_sinks) {
  JENGA_CHECK_GT(token_budget, 0);
  JENGA_CHECK_GE(num_sinks, 0);
  JENGA_CHECK_LT(num_sinks, token_budget);
}

TokenRanges PyramidPolicy::NeededTokenRanges(int64_t num_tokens) const {
  if (num_tokens == 0) {
    return {};
  }
  if (num_tokens <= token_budget_) {
    return {{0, num_tokens}};
  }
  const int64_t recent = token_budget_ - num_sinks_;
  return {{0, num_sinks_}, {num_tokens - recent, num_tokens}};
}

int64_t PyramidPolicy::NextDropPoint(int64_t num_tokens, int64_t token) const {
  // Up to the budget the one range begins at 0; past it, the recent range [n - recent, n)
  // begins past `token` from n = token + recent + 1 on.
  const int64_t recent = token_budget_ - num_sinks_;
  return std::max({num_tokens + 1, static_cast<int64_t>(token_budget_) + 1, token + recent + 1});
}

MambaPolicy::MambaPolicy(int checkpoint_interval) : checkpoint_interval_(checkpoint_interval) {
  JENGA_CHECK_GT(checkpoint_interval, 0);
}

TokenRanges MambaPolicy::NeededTokenRanges(int64_t num_tokens) const {
  // Only the current state (represented by the final page) is needed; expressed as the last
  // "token" so that default block marking touches only the final page.
  if (num_tokens == 0) {
    return {};
  }
  return {{num_tokens - 1, num_tokens}};
}

void MambaPolicy::UpdateLastAccess(const RequestPages& request, Tick now,
                                   GroupCacheOps& ops) const {
  // Only the most recent state page is accessed by decoding (§5.3): "only the last cached
  // token's access time is updated".
  if (!request.pages.empty() && request.pages.back() != kNoSmallPage) {
    ops.UpdateLastAccess(request.pages.back(), now);
  }
}

void MambaPolicy::SetPrefixLength(const RequestPages& request, GroupCacheOps& ops) const {
  for (size_t i = 0; i < request.pages.size(); ++i) {
    if (request.pages[i] != kNoSmallPage) {
      ops.SetPrefixLength(request.pages[i],
                          static_cast<int64_t>(i + 1) * checkpoint_interval_);
    }
  }
}

std::vector<bool> MambaPolicy::GetPossiblePrefix(const std::vector<bool>& is_hit,
                                                 int /*tokens_per_page*/) const {
  // Block i caches the state after (i+1)·interval tokens; restoring needs only that single
  // checkpoint, so a prefix of p checkpoints is valid iff checkpoint p itself is cached.
  std::vector<bool> valid(is_hit.size() + 1, false);
  valid[0] = true;
  for (size_t p = 1; p <= is_hit.size(); ++p) {
    valid[p] = is_hit[p - 1];
  }
  return valid;
}

bool MambaPolicy::PrefixValid(BlockHitResolver& hits, int64_t p, int /*tokens_per_page*/) const {
  if (p == 0) {
    return true;
  }
  return hits.IsHit(p - 1);
}

ImageCachePolicy::ImageCachePolicy(int tokens_per_image) : tokens_per_image_(tokens_per_image) {
  JENGA_CHECK_GT(tokens_per_image, 0);
}

void ImageCachePolicy::SetPrefixLength(const RequestPages& request, GroupCacheOps& ops) const {
  // All pages of one image share a randomized priority derived from (request, image ordinal);
  // the evictor's longest-prefix-first tie-break then evicts whole images together (§5.3).
  // Values are offset by the request length so image priorities stay comparable with the
  // token-indexed priorities that text groups assign.
  for (size_t i = 0; i < request.pages.size(); ++i) {
    if (request.pages[i] == kNoSmallPage) {
      continue;
    }
    const int64_t token = static_cast<int64_t>(i) * request.tokens_per_page;
    const int64_t image_ordinal = token / tokens_per_image_;
    const uint64_t h = Mix64(static_cast<uint64_t>(request.request) * 0x9E3779B97F4A7C15ull +
                             static_cast<uint64_t>(image_ordinal));
    ops.SetPrefixLength(request.pages[i], static_cast<int64_t>(h % 1000000));
  }
}

}  // namespace jenga

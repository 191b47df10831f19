// Extending Jenga with a custom attention variant: implement the LayerSupportsPrefixCache
// interface (Figure 9 of the paper) for a StreamingLLM-style layer that attends to a few
// attention-sink tokens plus a recent window, and drive it against the two-level allocator
// directly. This is the extension point the paper's §5 is about — new KV-dependency patterns
// plug in without touching the allocator.

#include <cstdio>
#include <vector>

#include "src/core/jenga_allocator.h"
#include "src/core/layer_policy.h"
#include "src/model/kv_spec.h"

using namespace jenga;

namespace {

// StreamingLLM-ish: the next token depends on the first `sinks` tokens plus the last `window`
// tokens. Everything the base class derives (balanced last-access updates, the hit rule, the
// aligned prefix lengths) follows from NeededTokenRanges.
class StreamingSinkPolicy : public LayerPolicy {
 public:
  StreamingSinkPolicy(int sinks, int window) : sinks_(sinks), window_(window) {}

  const char* name() const override { return "streaming_sink"; }

  TokenRanges NeededTokenRanges(int64_t num_tokens) const override {
    if (num_tokens <= sinks_ + window_) {
      return {{0, num_tokens}};
    }
    return {{0, sinks_}, {num_tokens - window_, num_tokens}};
  }

  bool CanDropUnneededPages() const override { return true; }

 private:
  int sinks_;
  int window_;
};

}  // namespace

int main() {
  // One KV group, 16 tokens per 4 KiB page, over a small pool (LCM page forced to 4 small
  // pages by a padding group so the two-level structure is visible).
  KvSpec spec;
  KvGroupSpec group;
  group.name = "streaming";
  group.kind = GroupKind::kSlidingWindow;  // Allocation-wise it behaves like a windowed group.
  group.num_layers = 2;
  group.bytes_per_token_per_layer = 128;
  group.tokens_per_page = 16;
  group.page_bytes = 4096;
  spec.groups.push_back(group);

  JengaAllocator allocator(spec, /*pool_bytes=*/64 * 4096);
  SmallPageAllocator& kv = allocator.group(0);
  StreamingSinkPolicy policy(/*sinks=*/16, /*window=*/64);

  // Simulate one request's prefill: 20 blocks of 16 tokens.
  const RequestId request = 1;
  std::vector<SmallPageId> pages;
  for (int block = 0; block < 20; ++block) {
    pages.push_back(*kv.Allocate(request, /*now=*/block));
  }

  // After 320 tokens, the policy needs sinks [0,16) and window [256,320): pages 1..15 can be
  // dropped. The policy's needed ranges tell us exactly which.
  const auto ranges = policy.NeededTokenRanges(320);
  std::printf("needed ranges at 320 tokens:");
  for (const TokenRange& range : ranges) {
    std::printf(" [%lld, %lld)", static_cast<long long>(range.begin),
                static_cast<long long>(range.end));
  }
  std::printf("\n");

  int dropped = 0;
  for (int block = 0; block < 20; ++block) {
    bool needed = false;
    for (const TokenRange& range : ranges) {
      if (range.begin < (block + 1) * 16 && range.end > block * 16) {
        needed = true;
      }
    }
    if (!needed) {
      kv.Release(pages[static_cast<size_t>(block)], /*keep_cached=*/false);
      pages[static_cast<size_t>(block)] = kNoSmallPage;
      ++dropped;
    }
  }
  std::printf("dropped %d of 20 pages mid-request; allocator now holds %lld used pages\n",
              dropped, static_cast<long long>(kv.GetStats().used_pages));

  // The hit rule comes for free: with the dropped pages missing, which prefixes still hit?
  std::vector<bool> is_hit(20, true);
  for (int block = 1; block < 16; ++block) {
    is_hit[static_cast<size_t>(block)] = false;  // The dropped middle.
  }
  const std::vector<bool> valid = policy.GetPossiblePrefix(is_hit, 16);
  std::printf("valid prefixes (blocks): ");
  for (size_t p = 0; p < valid.size(); ++p) {
    if (valid[p]) {
      std::printf("%zu ", p);
    }
  }
  std::printf("\n(sinks + the last window suffice — exactly the StreamingLLM dependency)\n");

  // Balanced eviction metadata flows through the same interface the built-in policies use.
  RequestPages view;
  view.request = request;
  view.pages = pages;
  view.num_tokens = 320;
  view.tokens_per_page = 16;
  policy.UpdateLastAccess(view, /*now=*/100, kv);
  policy.SetPrefixLength(view, kv);
  std::printf("eviction metadata updated via GroupCacheOps — no allocator changes needed\n");
  return 0;
}

#include "src/engine/kv_manager.h"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

#include "src/common/check.h"
#include "src/common/math_util.h"
#include "src/core/block_hash.h"
#include "src/core/policy_factory.h"
#include "src/offload/swap_manager.h"

namespace jenga {

KvSpec MakeJengaSpec(const ModelConfig& model, int tokens_per_page, bool vision_cache) {
  KvSpecOptions options;
  options.tokens_per_page = tokens_per_page;
  options.include_vision_group = vision_cache;
  return BuildKvSpec(model, options);
}

KvSpec MakeHomogeneousSpec(const ModelConfig& model, int tokens_per_page,
                           int64_t bytes_per_token_override) {
  int64_t bytes_per_token = model.KvBytesPerTokenAllLayers();
  if (bytes_per_token_override > 0) {
    bytes_per_token = bytes_per_token_override;
  }
  JENGA_CHECK_GT(bytes_per_token, 0) << "model has no attention layers";
  KvSpec spec;
  KvGroupSpec group;
  group.name = "paged_all_layers";
  group.kind = GroupKind::kFullAttention;
  group.scope = GroupScope::kAllTokens;
  group.num_layers = 1;  // Collapsed: bytes_per_token already sums every layer.
  group.bytes_per_token_per_layer = bytes_per_token;
  group.tokens_per_page = tokens_per_page;
  group.page_bytes = static_cast<int64_t>(tokens_per_page) * bytes_per_token;
  spec.groups.push_back(std::move(group));
  return spec;
}

int64_t StaticMambaReservationBytes(const ModelConfig& model, int max_num_seqs) {
  return model.MambaStateBytesTotal() * max_num_seqs;
}

namespace {

// A token count no request reaches: "no such event" for the event-driven step's counts.
constexpr int64_t kNoKvEvent = std::numeric_limits<int64_t>::max();

// Total tokens across a range list.
int64_t RangeTokens(const TokenRanges& ranges) {
  int64_t total = 0;
  for (const TokenRange& range : ranges) {
    total += range.end - range.begin;
  }
  return total;
}

int64_t GroupTokensFor(const Request& r, const KvGroupSpec& group, int64_t prefix_tokens) {
  switch (group.scope) {
    case GroupScope::kAllTokens:
    case GroupScope::kPerSequence:
      return prefix_tokens;
    case GroupScope::kTextTokens:
      return r.TextTokensBefore(prefix_tokens);
    case GroupScope::kImageTokens:
      return r.ImageTokensBefore(prefix_tokens);
  }
  JENGA_CHECK(false) << "unhandled scope";
}

// True when block j (tokens [j·bs, (j+1)·bs)) overlaps one of the needed token ranges.
inline bool BlockNeeded(const TokenRanges& ranges, int64_t j, int bs) {
  for (const TokenRange& range : ranges) {
    if (range.begin < (j + 1) * bs && range.end > j * bs) {
      return true;
    }
  }
  return false;
}

// The tokens of hit unit j of a `scope` stream, for a unit past the prompt's whole units (the
// admission memo hashes those). Generated tokens are text, so an image-scoped stream never
// reaches past them, and the stream there is `generated` after the prompt's part of the stream
// (its text tokens for a text scope, all of it otherwise) — except for the one unit straddling
// the prompt end, which is gathered into `buf`.
std::span<const int32_t> UnitPastPrompt(const Request& r, GroupScope scope, int64_t j, int unit,
                                        std::vector<int32_t>& buf) {
  JENGA_DCHECK(scope != GroupScope::kImageTokens);
  const bool text_only = scope == GroupScope::kTextTokens;
  const int64_t prompt_len = r.prompt_len();
  const int64_t prompt_part = text_only ? r.TextTokensBefore(prompt_len) : prompt_len;
  const std::span<const int32_t> generated(r.generated);
  const int64_t begin = j * unit;
  if (begin >= prompt_part) {
    return generated.subspan(static_cast<size_t>(begin - prompt_part), static_cast<size_t>(unit));
  }
  // The prompt part's last `k` tokens, then the first generated ones.
  int64_t k = prompt_part - begin;
  buf.resize(static_cast<size_t>(unit));
  std::copy(generated.begin(), generated.begin() + (unit - k), buf.begin() + k);
  for (int64_t i = prompt_len; k > 0;) {
    --i;
    if (!text_only || r.prompt.kind(i) == TokenKind::kText) {
      buf[static_cast<size_t>(--k)] = r.prompt.tokens[static_cast<size_t>(i)];
    }
  }
  return buf;
}

// Order-sensitive mix for the swap round-trip fingerprint (splitmix-style).
uint64_t MixFingerprint(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 12) + (h >> 4);
  return h * 0xFF51AFD7ED558CCDull;
}

}  // namespace

KvManager::KvManager(KvSpec alloc_spec, KvSpec accounting_spec, int64_t pool_bytes,
                     Options options, LayerPolicies policies)
    : spec_(std::move(alloc_spec)),
      accounting_spec_(std::move(accounting_spec)),
      options_(options),
      allocator_(spec_, pool_bytes),
      policies_(std::move(policies)),
      accounting_policies_(
          MakeLayerPolicies(accounting_spec_, std::max(options_.tokens_per_image, 1))),
      hasher_(spec_, options_.tokens_per_page) {
  JENGA_CHECK_LE(spec_.groups.size(), kMaxGroups);
  JENGA_CHECK_EQ(policies_.size(), spec_.groups.size()) << "one policy per group";
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    if (group.kind == GroupKind::kVisionEmbed) {
      vision_group_ = static_cast<int>(g);
    }
    defer_refresh_.push_back(policies_[g]->RefreshCoversResidentPages());
  }
}

const RequestKv* KvManager::FindState(const Request& r) const {
  for (const KvHandle& handle : r.kv_handles) {
    if (handle.manager == this) {
      JENGA_DCHECK(requests_.contains(r.id) && &requests_.find(r.id)->second == handle.state)
          << "stale KV handle for request " << r.id;
      return handle.state;
    }
  }
  return nullptr;
}

const RequestKv& KvManager::StateOf(const Request& r) const {
  const RequestKv* state = FindState(r);
  JENGA_CHECK(state != nullptr) << "request " << r.id << " not admitted";
  return *state;
}

int64_t KvManager::TargetPages(const Request& r, const KvGroupSpec& group,
                               int64_t prefix_tokens) const {
  switch (group.kind) {
    case GroupKind::kMamba:
      return 1;  // The running state; checkpoints are transient snapshots.
    case GroupKind::kVisionEmbed:
      // All of the request's vision embeddings exist from admission (encoder output).
      return CeilDiv(r.ImageTokens(), group.tokens_per_page);
    default:
      break;
  }
  const int64_t tokens = GroupTokensFor(r, group, prefix_tokens);
  return CeilDiv(tokens, group.tokens_per_page);
}

RequestKv& KvManager::TrackRequest(Request& r) {
  const auto [it, inserted] = requests_.try_emplace(r.id);
  JENGA_CHECK(inserted) << "request " << r.id << " already admitted";
  RequestKv& state = it->second;
  // A handle for this manager on an untracked request is stale (a copy taken while the
  // original was tracked), so its slot is as free as an empty one.
  const auto slot =
      std::find_if(r.kv_handles.begin(), r.kv_handles.end(),
                   [this](const KvHandle& h) { return h.manager == this || h.manager == nullptr; });
  JENGA_CHECK(slot != r.kv_handles.end()) << "request " << r.id << " tracked by too many managers";
  *slot = KvHandle{this, &state};
  state.groups.resize(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    state.groups[g].chain = InitBlockChain(GroupChainSalt(static_cast<int>(g)));
  }
  r.num_computed_tokens = 0;
  r.cached_prefix_tokens = 0;
  return state;
}

void KvManager::Untrack(Request& r) {
  for (KvHandle& handle : r.kv_handles) {
    if (handle.manager == this) {
      handle = KvHandle{};
    }
  }
  requests_.erase(r.id);
}

KvManager::GroupHit KvManager::HitBlocks(const Request& r, size_t g, int64_t tokens) const {
  const int unit = hasher_.unit(g);
  const int64_t group_tokens = GroupTokensFor(r, spec_.groups[g], tokens);
  return GroupHit{group_tokens / unit, group_tokens % unit == 0};
}

template <typename Fn>
void KvManager::ForEachHitBlock(const Request& r,
                                const std::vector<std::vector<BlockHash>>& group_hashes,
                                int64_t hit_tokens, Fn&& fn) const {
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    const std::vector<BlockHash>& hashes = group_hashes[g];
    const int unit = hasher_.unit(g);
    const int64_t blocks = HitBlocks(r, g, hit_tokens).blocks;
    JENGA_CHECK_LE(blocks, static_cast<int64_t>(hashes.size()));
    const int gi = static_cast<int>(g);
    if (group.kind == GroupKind::kMamba) {
      // Restoring from a checkpoint reads the deepest one alone.
      if (blocks > 0) {
        fn(gi, blocks - 1, hashes[static_cast<size_t>(blocks) - 1], blocks * unit);
      }
      continue;
    }
    // Only blocks the layer actually depends on (Figure 9b: update_last_access touches window
    // tokens only). Cached out-of-window blocks keep their old timestamps, so they age out
    // first under pressure.
    const TokenRanges needed =
        policies_[g]->NeededTokenRanges(GroupTokensFor(r, group, hit_tokens));
    for (int64_t j = 0; j < blocks; ++j) {
      if (BlockNeeded(needed, j, unit)) {
        fn(gi, j, hashes[static_cast<size_t>(j)], (j + 1) * unit);
      }
    }
  }
}

void KvManager::OnAdmit(Request& r, Tick now) {
  RequestKv& state = TrackRequest(r);
  if (!options_.enable_prefix_caching) {
    return;
  }
  const int bs = options_.tokens_per_page;
  if (r.prompt_len() <= bs) {
    return;  // No block boundary below the prompt end to hit.
  }
  const std::vector<std::vector<BlockHash>>& group_hashes = MemoFor(r);

  // Second-chance pass: re-materialize host-resident pages on the GPU *before* scanning for
  // hits, so the scan and the reference-taking below see one consistent allocator state
  // (a promotion's allocation may evict GPU pages of any group under pressure).
  if (offload_ != nullptr) {
    PromoteHostHits(r, group_hashes, now);
  }

  const int64_t hit_tokens = ResolveHitBoundary(r, group_hashes, /*include_host=*/false) * bs;
  if (hit_tokens == 0) {
    return;
  }

  // Every block table starts as the hit prefix of holes, with the hash chain positioned at its
  // end; the reference pass then fills in the cached pages of the blocks the layer reads. The
  // remaining holes are ones the policy tolerates (blocks it does not read at this length).
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    GroupState& gs = state.groups[g];
    const bool mamba = spec_.groups[g].kind == GroupKind::kMamba;
    const GroupHit hit = HitBlocks(r, g, hit_tokens);
    JENGA_CHECK(!mamba || hit.aligned) << "mamba hit off a checkpoint";
    if (hit.blocks == 0) {
      continue;
    }
    gs.chain = group_hashes[g][static_cast<size_t>(hit.blocks) - 1];
    gs.hashed_blocks = hit.blocks;
    if (!mamba) {
      gs.pages.assign(static_cast<size_t>(hit.blocks), kNoSmallPage);
    }
  }
  ForEachHitBlock(r, group_hashes, hit_tokens,
                  [&](int g, int64_t j, BlockHash hash, int64_t /*prefix_length*/) {
                    SmallPageAllocator& alloc = allocator_.group(g);
                    const auto page = alloc.LookupCached(hash);
                    if (spec_.groups[static_cast<size_t>(g)].kind == GroupKind::kMamba) {
                      JENGA_CHECK(page.has_value()) << "mamba hit vanished";
                      // Restore-from-checkpoint touches the state; the running state page is
                      // allocated fresh, so the checkpoint takes no reference.
                      alloc.UpdateLastAccess(*page, now);
                    } else if (page.has_value()) {
                      alloc.AddRef(*page);
                      alloc.UpdateLastAccess(*page, now);
                      state.groups[static_cast<size_t>(g)].pages[static_cast<size_t>(j)] = *page;
                    }
                  });

  r.num_computed_tokens = hit_tokens;
  r.cached_prefix_tokens = hit_tokens;
  state.computed_tokens = hit_tokens;
  state.needed_bytes = NeededBytesFor(r);
  total_cache_hit_tokens_ += hit_tokens;
}

const std::vector<std::vector<BlockHash>>& KvManager::MemoFor(const Request& r) {
  const auto [it, inserted] = admission_memos_.try_emplace(r.id);
  if (inserted) {
    it->second = hasher_.PromptChains(r.prompt, /*use_table=*/options_.memoize_admission);
  }
  return it->second;
}

int64_t KvManager::ResolveHitBoundary(const Request& r,
                                      const std::vector<std::vector<BlockHash>>& group_hashes,
                                      bool include_host) const {
  const int bs = options_.tokens_per_page;
  const int64_t num_boundaries = (r.prompt_len() - 1) / bs;
  // One lazy hit resolver per group; a block's cache lookup happens at most once no matter how
  // many boundary candidates probe it.
  std::vector<BlockHitResolver> resolvers;
  resolvers.reserve(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const SmallPageAllocator* alloc = &allocator_.group(static_cast<int>(g));
    const std::vector<BlockHash>* hashes = &group_hashes[g];
    const int gi = static_cast<int>(g);
    resolvers.emplace_back(static_cast<int64_t>(hashes->size()),
                           [this, alloc, hashes, gi, include_host](int64_t j) {
                             const BlockHash h = (*hashes)[static_cast<size_t>(j)];
                             return alloc->LookupCached(h).has_value() ||
                                    (include_host && offload_ != nullptr &&
                                     offload_->LookupHostPage(manager_index_, gi, h) != nullptr);
                           });
  }

  // Top-down scan, mirroring LongestCommonValidPrefix over BuildValidBitmaps: the first
  // boundary where every group's prefix is valid wins. Group evaluation short-circuits on the
  // first invalid group, and lookups are pure, so lazy evaluation cannot change the result.
  int64_t result = 0;
  for (int64_t b = num_boundaries; b > 0; --b) {
    bool all = true;
    for (size_t g = 0; g < spec_.groups.size() && all; ++g) {
      // Only boundaries on a group's own unit edge (Mamba checkpoint, subsequence block) can
      // be hits for it — conservative for modality-subsequence groups.
      const GroupHit hit = HitBlocks(r, g, b * bs);
      all = hit.aligned && hit.blocks <= static_cast<int64_t>(group_hashes[g].size()) &&
            policies_[g]->PrefixValid(resolvers[g], hit.blocks, hasher_.unit(g));
    }
    if (all) {
      result = b;
      break;
    }
  }

  if (AdmissionAuditEnabled()) {
    std::vector<std::vector<bool>> bitmaps = BuildValidBitmaps(r, group_hashes, include_host);
    for (std::vector<bool>& valid : bitmaps) {
      valid.resize(static_cast<size_t>(num_boundaries) + 1);
    }
    JENGA_CHECK_EQ(result, LongestCommonValidPrefix(bitmaps))
        << "fused hit scan diverged from the bitmap reference";
  }
  return result;
}

bool KvManager::AllocateForTokens(Request& r, int64_t n, Tick now) {
  RequestKv& state = StateOf(r);
  const int64_t tokens = r.num_computed_tokens + n;
  if (tokens <= state.grow_limit) {
    JENGA_DCHECK(!PlanGrow(r, state, tokens, /*leave_dropped=*/false).grows);
    return true;
  }
  return GrowBlockTables(r, state, tokens, /*leave_dropped=*/false, now);
}

bool KvManager::GrowBlockTables(const Request& r, RequestKv& state, int64_t tokens,
                                bool leave_dropped, Tick now) {
  const GrowPlan plan = PlanGrow(r, state, tokens, leave_dropped);
  if (plan.grows) {
    WalkForecast forecast = WalkForecast::kUnknown;
    if (plan.beyond_empties) {
      if (!GrowFits(plan)) {
        return false;  // Decided from counters: nothing claimed, reclaimed, evicted or reshuffled.
      }
      forecast = SettleDoomedGrow(r, state, plan, now);
      if (forecast == WalkForecast::kSettled) {
        return false;
      }
    }
    if (!ClaimGrow(r, state, plan, now)) {
      JENGA_CHECK(forecast != WalkForecast::kCompletes)
          << "claim walk for request " << r.id << " failed against its counter forecast";
      return false;
    }
  }
  state.grow_limit = GrowLimit(r, state);
  return true;
}

KvManager::GrowPlan KvManager::PlanGrow(const Request& r, const RequestKv& state, int64_t tokens,
                                        bool leave_dropped) const {
  GrowPlan plan;
  plan.tokens = tokens;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    const int64_t size = static_cast<int64_t>(state.groups[g].pages.size());
    const int64_t target = TargetPages(r, group, tokens);
    plan.target[g] = target;
    plan.need[g] = 0;
    if (size >= target) {
      continue;
    }
    plan.grows = true;
    int64_t need = target - size;
    // Droppable groups (sliding window, pyramid) restore only the blocks the policy still
    // needs at `tokens`; everything else stays a hole, exactly as DropUnneededPages left it.
    if (leave_dropped && policies_[g]->CanDropUnneededPages()) {
      plan.holes |= 1u << g;
      const TokenRanges needed =
          policies_[g]->NeededTokenRanges(GroupTokensFor(r, group, tokens));
      need = 0;
      for (int64_t j = size; j < target; ++j) {
        need += BlockNeeded(needed, j, group.tokens_per_page) ? 1 : 0;
      }
    }
    plan.need[g] = need;
    plan.beyond_empties =
        plan.beyond_empties || need > allocator_.group(static_cast<int>(g)).empty_pages();
  }
  return plan;
}

int64_t KvManager::LargesBeyondOwn(size_t g, int64_t pages, int64_t own) const {
  return CeilDiv(std::max<int64_t>(0, pages - own),
                 allocator_.group(static_cast<int>(g)).pages_per_large());
}

bool KvManager::GrowFits(const GrowPlan& plan) const {
  // Soundness: a grow that completes releases nothing, so during it every group's empty and
  // evictable pages only shrink (another group may reclaim its large pages) and no new reclaim
  // candidate appears. Group g thus gets at most its own empties and evictables plus
  // pages_per_large per large page it takes from the LCM free list or reclaims from another
  // group — reclaiming one of its own turns its own pages into its own pages. All groups
  // together take at most the free large pages plus today's reclaim candidates, and each
  // candidate is queued for reclaim and holds an evictable page.
  int64_t larges = 0;
  int64_t evictable = 0;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    larges += LargesBeyondOwn(g, plan.need[g], alloc.empty_pages() + alloc.evictable_pages());
    evictable += alloc.evictable_pages();
  }
  const int64_t reclaimable =
      std::min(static_cast<int64_t>(allocator_.reclaim_heap_entries()), evictable);
  return larges <= allocator_.lcm().num_free() + reclaimable;
}

KvManager::WalkForecast KvManager::SettleDoomedGrow(const Request& r, RequestKv& state,
                                                    const GrowPlan& plan, Tick now) {
  // Steps 3 and 5 cannot run: nothing is queued for reclaim and nothing is evictable. The walk
  // then reads no allocator state but the counts below.
  if (plan.holes != 0 || allocator_.reclaim_heap_entries() != 0) {
    return WalkForecast::kUnknown;
  }
  const size_t groups = spec_.groups.size();
  int64_t fresh_larges = 0;
  for (size_t g = 0; g < groups; ++g) {
    if (allocator_.group(static_cast<int>(g)).evictable_pages() != 0) {
      return WalkForecast::kUnknown;
    }
    fresh_larges += LargesBeyondOwn(g, plan.need[g], 0);
  }
  int64_t free_larges = allocator_.lcm().num_free();
  if (fresh_larges <= free_larges) {
    return WalkForecast::kCompletes;  // Every group could take all it needs fresh.
  }
  // Per group, the pages steps 1 and 4 pop. The walk fails at the first group whose step 4
  // runs out of empty pages.
  std::array<int64_t, kMaxGroups> own;
  std::array<int64_t, kMaxGroups> any;
  size_t failing = groups;
  for (size_t g = 0; g < groups && failing == groups; ++g) {
    const SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    const int64_t need = plan.need[g];
    own[g] = alloc.AffinityEmpties(r.id, need);
    const int64_t larges = std::min(free_larges, LargesBeyondOwn(g, need, own[g]));
    free_larges -= larges;
    any[g] = std::max<int64_t>(0, need - own[g] - larges * alloc.pages_per_large());
    const int64_t others = alloc.empty_pages() - own[g];
    if (any[g] > others) {
      any[g] = others;  // Step 4 drains the any-list before the walk gives up.
      failing = g;
    }
  }
  if (failing == groups) {
    return WalkForecast::kCompletes;
  }
  for (size_t g = 0; g <= failing; ++g) {
    if (own[g] + any[g] > 0) {
      allocator_.group(static_cast<int>(g)).SettleFailedClaim(r.id, own[g], any[g], now);
    }
  }
  state.grow_limit = -1;
  state.next_event = -1;
  settled_walks_ += 1;
  return WalkForecast::kSettled;
}

bool KvManager::ClaimGrow(const Request& r, RequestKv& state, const GrowPlan& plan, Tick now) {
  // Entry sizes of the groups visited so far, for cross-group rollback (within one group
  // AllocateN rolls back its own run). Groups are per layer *type*, so the count is tiny and
  // bounded (checked in the constructor); the inline array keeps this hot path free of heap
  // allocation.
  std::array<int64_t, kMaxGroups> entry_sizes;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    GroupState& gs = state.groups[g];
    const int64_t target = plan.target[g];
    int64_t j = static_cast<int64_t>(gs.pages.size());
    entry_sizes[g] = j;
    if (j >= target) {
      continue;
    }
    const bool holes = ((plan.holes >> g) & 1u) != 0;
    TokenRanges needed;
    if (holes) {
      needed = policies_[g]->NeededTokenRanges(GroupTokensFor(r, group, plan.tokens));
    }
    const int bs = group.tokens_per_page;
    const auto wanted = [&](int64_t b) { return !holes || BlockNeeded(needed, b, bs); };
    // Wanted blocks come in contiguous runs between the holes; each run is one AllocateN.
    while (j < target) {
      if (!wanted(j)) {
        gs.pages.push_back(kNoSmallPage);
        ++j;
        continue;
      }
      int64_t run_end = holes ? j + 1 : target;
      while (run_end < target && wanted(run_end)) {
        ++run_end;
      }
      if (!allocator_.group(static_cast<int>(g)).AllocateN(r.id, run_end - j, now, &gs.pages)) {
        // Roll back everything this call claimed, newest first (later groups are untouched).
        for (size_t k = g + 1; k-- > 0;) {
          TruncateBlockTable(state, static_cast<int>(k), entry_sizes[k]);
        }
        return false;
      }
      j = run_end;
    }
  }
  return true;
}

void KvManager::TruncateBlockTable(RequestKv& state, int g, int64_t size) {
  state.grow_limit = -1;
  state.next_event = -1;
  GroupState& gs = state.groups[static_cast<size_t>(g)];
  if (static_cast<int64_t>(gs.pages.size()) <= size) {
    return;
  }
  // Newest first. Pages past the committed state never had a content hash registered.
  const auto tail = gs.pages.begin() + static_cast<std::ptrdiff_t>(size);
  std::reverse(tail, gs.pages.end());
  allocator_.group(g).ReleaseN(std::span<const SmallPageId>(tail, gs.pages.end()),
                               /*keep_cached=*/false);
  gs.pages.resize(static_cast<size_t>(size));
}

void KvManager::RegisterHashes(Request& r, RequestKv& state, Tick now) {
  // Most decode steps complete no unit, so the memo is fetched only for the first one that does.
  const std::vector<std::vector<BlockHash>>* memo = nullptr;
  std::vector<int32_t> straddle;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    GroupState& gs = state.groups[g];
    const int unit = hasher_.unit(g);
    const int64_t units = GroupTokensFor(r, group, r.num_computed_tokens) / unit;
    for (int64_t j = gs.hashed_blocks; j < units; ++j) {
      if (memo == nullptr) {
        memo = &MemoFor(r);
      }
      const std::vector<BlockHash>& prompt_hashes = (*memo)[g];
      gs.chain = j < static_cast<int64_t>(prompt_hashes.size())
                     ? prompt_hashes[static_cast<size_t>(j)]
                     : ExtendBlockHash(gs.chain, UnitPastPrompt(r, group.scope, j, unit, straddle));
      if (group.kind == GroupKind::kMamba) {
        // §5.3: cache the Mamba state every kMambaCheckpointInterval tokens. The snapshot page
        // is allocated, hashed, prioritized by its depth, and immediately released to
        // evictable — the running request keeps only its live state page. Snapshots are
        // best-effort: under memory pressure, or when already cached (e.g. a shared prefix),
        // they are skipped rather than failing the step.
        if (alloc.LookupCached(gs.chain).has_value()) {
          continue;
        }
        if (const auto page = alloc.Allocate(r.id, now)) {
          alloc.SetContentHash(*page, gs.chain);
          alloc.SetPrefixLength(*page, (j + 1) * unit);
          alloc.UpdateLastAccess(*page, now);
          alloc.Release(*page, /*keep_cached=*/true);
        }
      } else if (j < static_cast<int64_t>(gs.pages.size()) &&
                 gs.pages[static_cast<size_t>(j)] != kNoSmallPage) {
        alloc.SetContentHash(gs.pages[static_cast<size_t>(j)], gs.chain);
      }
    }
    gs.hashed_blocks = units;
  }
}

void KvManager::DropUnneededPages(const Request& r, RequestKv& state, int g) {
  GroupState& gs = state.groups[static_cast<size_t>(g)];
  if (gs.pages.empty()) {
    return;
  }
  SmallPageAllocator& alloc = allocator_.group(g);
  const KvGroupSpec& group = spec_.groups[static_cast<size_t>(g)];
  const int bs = group.tokens_per_page;
  const int64_t tokens = GroupTokensFor(r, group, r.num_computed_tokens);
  const TokenRanges ranges = policies_[static_cast<size_t>(g)]->NeededTokenRanges(tokens);
  if (ranges.empty()) {
    return;
  }
  // The previous commit's length: blocks below it were inside the window at that commit.
  const int64_t touched = GroupTokensFor(r, group, state.computed_tokens);
  // Every block visited ends at or before the last range's start, so it stays exactly when an
  // earlier range (e.g. the attention sinks) overlaps it.
  const int64_t limit_block =
      std::min<int64_t>(ranges.back().begin / bs, static_cast<int64_t>(gs.pages.size()));
  const bool deferred = defer_refresh_[static_cast<size_t>(g)] && state.last_touch != 0;
  std::vector<SmallPageId>& dropped = dropped_pages_;
  dropped.clear();
  int64_t refreshed = 0;
  for (; gs.drop_cursor < limit_block; ++gs.drop_cursor) {
    const int64_t j = gs.drop_cursor;
    const SmallPageId page = gs.pages[static_cast<size_t>(j)];
    if (page == kNoSmallPage || BlockNeeded(ranges, j, bs)) {
      continue;
    }
    if (deferred && j * bs < touched) {
      // Deferred refresh: the page was inside the window through the previous step. A block
      // claimed ahead (a failed step's chunk) that no commit reached keeps its claim tick.
      // Blocks go in ascending order, so the refreshed ones are a prefix of `dropped`.
      refreshed += 1;
    }
    alloc.SetPrefixLength(page, (j + 1) * bs);
    dropped.push_back(page);
    gs.pages[static_cast<size_t>(j)] = kNoSmallPage;
  }
  alloc.ReleaseN(dropped, options_.enable_prefix_caching, state.last_touch, refreshed);
}

void KvManager::FreeConsumedVisionPages(const Request& r, RequestKv& state, Tick now) {
  if (vision_group_ < 0) {
    return;
  }
  GroupState& gs = state.groups[static_cast<size_t>(vision_group_)];
  SmallPageAllocator& alloc = allocator_.group(vision_group_);
  const int bs = spec_.groups[static_cast<size_t>(vision_group_)].tokens_per_page;
  const int64_t consumed = r.ImageTokensBefore(r.num_computed_tokens);
  const int64_t total = r.ImageTokens();
  while (gs.drop_cursor < static_cast<int64_t>(gs.pages.size())) {
    const int64_t j = gs.drop_cursor;
    const bool fully_consumed = (j + 1) * bs <= consumed || consumed == total;
    if (!fully_consumed) {
      break;
    }
    if (gs.pages[static_cast<size_t>(j)] != kNoSmallPage) {
      alloc.UpdateLastAccess(gs.pages[static_cast<size_t>(j)], now);
      alloc.Release(gs.pages[static_cast<size_t>(j)], options_.enable_prefix_caching);
      gs.pages[static_cast<size_t>(j)] = kNoSmallPage;
    }
    gs.drop_cursor += 1;
  }
}

RequestPages KvManager::ViewOf(const Request& r, const RequestKv& state, int g) const {
  const size_t gi = static_cast<size_t>(g);
  return RequestPages{r.id, state.groups[gi].pages,
                      GroupTokensFor(r, spec_.groups[gi], r.num_computed_tokens), hasher_.unit(gi)};
}

void KvManager::OnStepComputed(Request& r, Tick now) {
  RequestKv& state = StateOf(r);
  if (r.num_computed_tokens < state.next_event) {
    // No KV event yet: the walk in the other branch would change nothing.
    JENGA_DCHECK(StepWalkIsNoOp(r, state)) << "request " << r.id << " skipped a KV event";
  } else {
    if (options_.enable_prefix_caching) {
      RegisterHashes(r, state, now);
    }
    for (size_t g = 0; g < spec_.groups.size(); ++g) {
      if (static_cast<int>(g) == vision_group_) {
        continue;  // Vision pages are freed by consumption, not by windowing.
      }
      if (policies_[g]->CanDropUnneededPages()) {
        DropUnneededPages(r, state, static_cast<int>(g));
      }
    }
    FreeConsumedVisionPages(r, state, now);
    // Balanced eviction (§5.1): refresh last-access of the pages this step actually touched.
    // Deferred-refresh groups share the one tick recorded below instead of writing O(pages)
    // metadata — a used page's last-access is unobservable until it can become evictable, so
    // the tick is applied at release/drop/consume time (ReleaseN's touch), yielding the
    // same final values.
    for (size_t g = 0; g < spec_.groups.size(); ++g) {
      if (!defer_refresh_[g]) {
        policies_[g]->UpdateLastAccess(ViewOf(r, state, static_cast<int>(g)), now,
                                       allocator_.group(static_cast<int>(g)));
      }
    }
    state.next_event = NextKvEvent(r, state);
  }
  state.last_touch = now;
  state.computed_tokens = r.num_computed_tokens;
  state.needed_bytes = NeededBytesFor(r);
}

int64_t KvManager::TokensToReach(const Request& r, size_t g, int64_t group_tokens) const {
  const KvGroupSpec& group = spec_.groups[g];
  if (group.scope != GroupScope::kImageTokens && group.scope != GroupScope::kTextTokens) {
    return group_tokens;
  }
  if (group.scope == GroupScope::kImageTokens && group_tokens > r.ImageTokens()) {
    return kNoKvEvent;
  }
  const int64_t c = r.num_computed_tokens;
  return c + group_tokens - GroupTokensFor(r, group, c);
}

int64_t KvManager::GrowLimit(const Request& r, const RequestKv& state) const {
  int64_t limit = kNoKvEvent;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    const int64_t size = static_cast<int64_t>(state.groups[g].pages.size());
    if (group.kind == GroupKind::kMamba || group.kind == GroupKind::kVisionEmbed) {
      // Fixed-size tables (TargetPages ignores the length).
      if (size < TargetPages(r, group, 0)) {
        return -1;
      }
      continue;
    }
    // The table stays long enough until the group's count passes the tokens it covers.
    const int64_t reach = TokensToReach(r, g, size * group.tokens_per_page + 1);
    if (reach != kNoKvEvent) {
      limit = std::min(limit, reach - 1);
    }
  }
  return limit;
}

int64_t KvManager::NextKvEvent(const Request& r, const RequestKv& state) const {
  const int64_t c = r.num_computed_tokens;
  int64_t next = kNoKvEvent;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    if (!defer_refresh_[g]) {
      return c + 1;  // The policy refreshes last-access itself, every step.
    }
    const GroupState& gs = state.groups[g];
    if (options_.enable_prefix_caching) {
      // The next hit unit completes: a content hash, or a Mamba checkpoint.
      next = std::min(next, TokensToReach(r, g, (gs.hashed_blocks + 1) * hasher_.unit(g)));
    }
    const KvGroupSpec& group = spec_.groups[g];
    const int bs = group.tokens_per_page;
    if (static_cast<int>(g) == vision_group_) {
      // The cursor's block is consumed once its last image token is computed.
      if (gs.drop_cursor < CeilDiv(r.ImageTokens(), bs)) {
        next = std::min(next,
                        TokensToReach(r, g, std::min((gs.drop_cursor + 1) * bs, r.ImageTokens())));
      }
    } else if (policies_[g]->CanDropUnneededPages()) {
      // The drop walk can pass the cursor's block once the last needed range begins past it.
      const int64_t drop = policies_[g]->NextDropPoint(GroupTokensFor(r, group, c),
                                                       (gs.drop_cursor + 1) * bs - 1);
      next = std::min(next, TokensToReach(r, g, drop));
    }
  }
  return next;
}

bool KvManager::StepWalkIsNoOp(const Request& r, const RequestKv& state) const {
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    const GroupState& gs = state.groups[g];
    const int64_t tokens = GroupTokensFor(r, group, r.num_computed_tokens);
    const int64_t size = static_cast<int64_t>(gs.pages.size());
    const int bs = group.tokens_per_page;
    if (!defer_refresh_[g] ||
        (options_.enable_prefix_caching && tokens / hasher_.unit(g) != gs.hashed_blocks)) {
      return false;
    }
    if (gs.drop_cursor >= size) {
      continue;
    }
    if (static_cast<int>(g) == vision_group_) {
      if ((gs.drop_cursor + 1) * bs <= tokens || tokens == r.ImageTokens()) {
        return false;
      }
    } else if (policies_[g]->CanDropUnneededPages()) {
      const TokenRanges ranges = policies_[g]->NeededTokenRanges(tokens);
      if (!ranges.empty() && ranges.back().begin / bs > gs.drop_cursor) {
        return false;
      }
    }
  }
  return true;
}

void KvManager::Release(Request& r, bool finished) {
  RequestKv& state = StateOf(r);
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    const KvGroupSpec& group = spec_.groups[g];
    const std::vector<SmallPageId>& pages = state.groups[g].pages;
    if (options_.enable_prefix_caching) {
      // Aligned eviction (§5.1): assign consistent per-token priorities across groups before
      // the pages become evictable.
      policies_[g]->SetPrefixLength(ViewOf(r, state, static_cast<int>(g)), alloc);
    }
    // Deferred refresh: ReleaseN stamps state.last_touch on the blocks the eager refresh would
    // have marked, the blocks of computed tokens. The vision group allocates ahead for
    // unconsumed images — those pages keep their claim-time tick. Mamba's one page is the
    // running state, which every step touches.
    int64_t marked = 0;
    if (defer_refresh_[g] && state.last_touch != 0) {
      marked = static_cast<int64_t>(pages.size());
      if (group.kind != GroupKind::kMamba) {
        marked = std::min(marked, CeilDiv(GroupTokensFor(r, group, state.computed_tokens),
                                          group.tokens_per_page));
      }
    }
    alloc.ReleaseN(pages, options_.enable_prefix_caching, state.last_touch, marked);
  }
  Untrack(r);
  if (finished || !options_.memoize_admission) {
    admission_memos_.erase(r.id);
  }
  if (finished) {
    allocator_.ForgetRequest(r.id);
  }
}

bool KvManager::CanAllocate(const Request& r, int64_t tokens) const {
  // Large-page-granular admission check: a group can consume its own empty small pages, but
  // everything beyond that must come from free (or fully-evictable) large pages. Counting
  // other groups' stranded empties would over-admit and cause preemption storms.
  const RequestKv* state = FindState(r);
  const int64_t upto = r.num_computed_tokens + tokens;
  int64_t larges_needed = 0;
  int64_t evictable_bytes = 0;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    const int64_t have =
        state == nullptr ? 0 : static_cast<int64_t>(state->groups[g].pages.size());
    larges_needed +=
        LargesBeyondOwn(g, TargetPages(r, spec_.groups[g], upto) - have, alloc.empty_pages());
    evictable_bytes += alloc.evictable_pages() * alloc.page_bytes();
  }
  const int64_t evictable_larges = evictable_bytes / allocator_.lcm().large_page_bytes();
  const int64_t available = allocator_.lcm().num_free() + evictable_larges;
  // Watermark: keep ~2% of the pool free as decode-growth headroom (vLLM-style), so steady
  // decode progress does not degenerate into preemption storms.
  const int64_t watermark = std::max<int64_t>(1, allocator_.lcm().num_pages() / 50);
  return larges_needed + watermark <= available;
}

void KvManager::AttachOffload(SwapManager* offload, int manager_index) {
  JENGA_CHECK(offload != nullptr);
  JENGA_CHECK(offload_ == nullptr) << "offload tier already attached";
  offload_ = offload;
  manager_index_ = manager_index;
  allocator_.SetAuditSink(offload_->RegisterManager(manager_index));
}

uint64_t KvManager::StateFingerprint(const RequestKv& state) const {
  uint64_t h = 0x243F6A8885A308D3ull;
  for (size_t g = 0; g < state.groups.size(); ++g) {
    const GroupState& gs = state.groups[g];
    h = MixFingerprint(h, static_cast<uint64_t>(g));
    h = MixFingerprint(h, gs.chain);
    h = MixFingerprint(h, static_cast<uint64_t>(gs.hashed_blocks * hasher_.unit(g)));
    h = MixFingerprint(h, static_cast<uint64_t>(gs.pages.size()));
  }
  return h;
}

void KvManager::AddSwapFootprint(const Request& r, SwapFootprint* fp) const {
  const RequestKv& state = StateOf(r);
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    int64_t resident = 0;
    for (const SmallPageId page : state.groups[g].pages) {
      if (page != kNoSmallPage) {
        resident += group.page_bytes;
      }
    }
    fp->resident_bytes += resident;
    if (policies_[g]->SwapEligible()) {
      fp->swappable_bytes += resident;
    } else {
      // Recompute-cheap groups are dropped on swap-out; the swap alternative still pays for
      // rebuilding what the policy needs at this progress point.
      const int64_t tokens = GroupTokensFor(r, group, r.num_computed_tokens);
      fp->drop_recompute_bytes +=
          RangeTokens(policies_[g]->NeededTokenRanges(tokens)) * group.BytesPerToken();
    }
  }
  fp->fingerprints.push_back(StateFingerprint(state));
}

void KvManager::TrimToComputed(const Request& r) {
  RequestKv& state = StateOf(r);
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    TruncateBlockTable(state, static_cast<int>(g),
                       TargetPages(r, spec_.groups[g], r.num_computed_tokens));
  }
}

bool KvManager::RestoreFromSwap(Request& r, int64_t tokens, uint64_t expected_fingerprint,
                                Tick now) {
  JENGA_CHECK_GT(tokens, 0);
  JENGA_CHECK_GE(r.total_len(), tokens);
  RequestKv& state = TrackRequest(r);
  if (!GrowBlockTables(r, state, tokens, /*leave_dropped=*/true, now)) {
    Untrack(r);
    return false;
  }
  // Replay the bookkeeping a normal run reaching `tokens` computed tokens would have done:
  // hash registration, Mamba checkpoints, drop cursors, last-access.
  r.num_computed_tokens = tokens;
  OnStepComputed(r, now);
  JENGA_CHECK_EQ(StateFingerprint(state), expected_fingerprint)
      << "swap round trip diverged for request " << r.id;
  return true;
}

void KvManager::OnRequestRetired(RequestId id) {
  admission_memos_.erase(id);
  allocator_.ForgetRequest(id);
}

std::vector<std::vector<bool>> KvManager::BuildValidBitmaps(
    const Request& r, const std::vector<std::vector<BlockHash>>& group_hashes,
    bool include_host) const {
  const int bs = options_.tokens_per_page;
  const int64_t num_boundaries = r.prompt_len() / bs;
  std::vector<std::vector<bool>> valid_global(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    std::vector<bool>& valid = valid_global[g];
    valid.assign(static_cast<size_t>(num_boundaries) + 1, false);
    valid[0] = true;

    std::vector<bool> is_hit(group_hashes[g].size());
    for (size_t j = 0; j < is_hit.size(); ++j) {
      is_hit[j] =
          alloc.LookupCached(group_hashes[g][j]).has_value() ||
          (include_host && offload_ != nullptr &&
           offload_->LookupHostPage(manager_index_, static_cast<int>(g), group_hashes[g][j]) !=
               nullptr);
    }

    // Only boundaries on the group's own unit edge count: every one for all-token groups, the
    // checkpoint edges for Mamba, the block-aligned ones for subsequence groups (conservative).
    // Mapped here apart from HitBlocks, which the fused scan uses.
    const int unit = hasher_.unit(g);
    const std::vector<bool> gv = policies_[g]->GetPossiblePrefix(is_hit, unit);
    for (int64_t b = 1; b <= num_boundaries; ++b) {
      const int64_t group_tokens = GroupTokensFor(r, spec_.groups[g], b * bs);
      const size_t k = static_cast<size_t>(group_tokens / unit);
      if (group_tokens % unit == 0 && k < gv.size()) {
        valid[static_cast<size_t>(b)] = gv[k];
      }
    }
  }
  return valid_global;
}

void KvManager::PromoteHostHits(const Request& r,
                                const std::vector<std::vector<BlockHash>>& group_hashes,
                                Tick now) {
  // The promotion target is what the hit scan *could* find if every host-resident block were
  // on the GPU: the longest common valid prefix over GPU ∪ host residency. Promotion then
  // fills exactly the gap between that target and current GPU residency — blocks a policy
  // never reads at the target length (out-of-window tails, pyramid middles) are not worth
  // PCIe time, and each one would evict a genuinely useful page.
  const int64_t hit_tokens =
      ResolveHitBoundary(r, group_hashes, /*include_host=*/true) * options_.tokens_per_page;
  if (hit_tokens == 0) {
    return;
  }
  // The first walk refreshes the last-access of every GPU-resident needed block; the second
  // promotes the host-resident rest. Ordering matters: a promotion's allocation evicts under
  // pressure, and it must take other requests' stale pages, not the prefix this pass is
  // assembling (the reference pass in OnAdmit has not pinned it yet).
  ForEachHitBlock(r, group_hashes, hit_tokens,
                  [&](int g, int64_t /*j*/, BlockHash hash, int64_t /*prefix_length*/) {
                    SmallPageAllocator& alloc = allocator_.group(g);
                    if (const auto page = alloc.LookupCached(hash)) {
                      alloc.UpdateLastAccess(*page, now);
                    }
                  });
  ForEachHitBlock(r, group_hashes, hit_tokens,
                  [&](int g, int64_t /*j*/, BlockHash hash, int64_t prefix_length) {
                    if (!allocator_.group(g).LookupCached(hash).has_value()) {
                      (void)TryPromoteHostBlock(g, hash, prefix_length, r.id, now);
                    }
                  });
}

bool KvManager::TryPromoteHostBlock(int g, BlockHash hash, int64_t prefix_length, RequestId rid,
                                    Tick now) {
  if (offload_->LookupHostPage(manager_index_, g, hash) == nullptr) {
    return false;
  }
  SmallPageAllocator& alloc = allocator_.group(g);
  const auto page = alloc.Allocate(rid, now);
  if (!page.has_value()) {
    return false;
  }
  // The allocation's own eviction cascade may have pushed this very page out of the host
  // pool (new victims displacing LRU entries); re-check before claiming its content.
  const HostCachePage* host = offload_->LookupHostPage(manager_index_, g, hash);
  if (host == nullptr) {
    alloc.Release(*page, /*keep_cached=*/false);
    return false;
  }
  const int64_t host_bytes = host->bytes;
  alloc.SetContentHash(*page, hash);
  alloc.SetPrefixLength(*page, prefix_length);
  alloc.UpdateLastAccess(*page, now);
  alloc.Release(*page, /*keep_cached=*/true);
  offload_->OnHostPagePromoted(manager_index_, g, hash, host_bytes);
  return true;
}

int64_t KvManager::DecodeKvReadBytes(const Request& r) const {
  // The last commit (or prefix hit) cached NeededBytesFor at the computed length; a decode step
  // reads at that same length. A state that has computed nothing has cached nothing yet.
  const RequestKv& state = StateOf(r);
  if (state.computed_tokens > 0 && state.computed_tokens == r.num_computed_tokens) {
    JENGA_DCHECK(state.needed_bytes == NeededBytesFor(r));
    return state.needed_bytes;
  }
  return NeededBytesFor(r);
}

int64_t KvManager::NeededBytesFor(const Request& r) const {
  int64_t needed = 0;
  const int64_t c = r.num_computed_tokens;
  for (size_t g = 0; g < accounting_spec_.groups.size(); ++g) {
    const KvGroupSpec& group = accounting_spec_.groups[g];
    switch (group.kind) {
      case GroupKind::kMamba:
        needed += group.page_bytes;
        break;
      case GroupKind::kVisionEmbed: {
        if (vision_group_ >= 0) {
          const int64_t unconsumed = r.ImageTokens() - r.ImageTokensBefore(c);
          needed += unconsumed * group.bytes_per_token_per_layer;
        }
        break;
      }
      default: {
        const int64_t tokens = GroupTokensFor(r, group, c);
        needed +=
            RangeTokens(accounting_policies_[g]->NeededTokenRanges(tokens)) * group.BytesPerToken();
        break;
      }
    }
  }
  return needed;
}

KvManager::MemoryStats KvManager::GetMemoryStats() const {
  MemoryStats stats;
  const JengaAllocator::MemoryBreakdown b = allocator_.GetBreakdown();
  stats.pool_bytes = b.pool_bytes;
  stats.used_bytes = b.used_bytes;
  stats.cached_bytes = b.evictable_bytes;
  stats.internal_frag_bytes = b.empty_bytes;
  stats.unallocated_bytes = b.unallocated_bytes;
  int64_t needed = 0;
  for (const auto& [id, state] : requests_) {
    needed += state.needed_bytes;
  }
  stats.needed_bytes = needed;
  stats.wasted_bytes = std::max<int64_t>(0, stats.used_bytes - needed) + b.empty_bytes;
  return stats;
}

}  // namespace jenga

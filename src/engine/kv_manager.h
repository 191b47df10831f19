// KV-cache manager: maps requests onto the two-level allocator. One class serves both the
// Jenga configuration (per-group allocation, layer-specific policies, out-of-window drops,
// vision-embedding cache) and the PagedAttention-style baselines (a single degenerate group
// covering every layer, full-prefix rules only) — exactly the comparison the paper makes,
// with everything else held equal. The two differ only in the spec and the policy set the
// caller passes in.

#ifndef JENGA_SRC_ENGINE_KV_MANAGER_H_
#define JENGA_SRC_ENGINE_KV_MANAGER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/block_hash.h"
#include "src/core/jenga_allocator.h"
#include "src/core/layer_policy.h"
#include "src/core/policy_factory.h"
#include "src/engine/request.h"
#include "src/model/kv_spec.h"
#include "src/model/model_config.h"

namespace jenga {

class SwapManager;
struct SwapFootprint;

// Builds the per-group spec Jenga allocates with (vision-embedding group included when the
// model has a vision encoder and `vision_cache` is set).
[[nodiscard]] KvSpec MakeJengaSpec(const ModelConfig& model, int tokens_per_page,
                                   bool vision_cache);

// Builds the degenerate homogeneous spec of PagedAttention engines: one group whose per-token
// size is the sum over every attention-like layer, covering text and image tokens alike
// (the (T+I)·L·E accounting of §3.2). Mamba layers are excluded — baselines reserve their
// state statically (see StaticMambaReservationBytes). `bytes_per_token_override` lets
// speculative-decoding baselines charge a model's tokens at a larger page size (vLLM-max).
[[nodiscard]] KvSpec MakeHomogeneousSpec(const ModelConfig& model, int tokens_per_page,
                                         int64_t bytes_per_token_override = 0);

// Bytes a homogeneous engine reserves up front for Mamba states (max_num_seqs × state size).
[[nodiscard]] int64_t StaticMambaReservationBytes(const ModelConfig& model, int max_num_seqs);

// A request's state in one KvManager. Only the manager reads or writes it; the request carries
// a KvHandle to it, so the per-step path reaches it without an id lookup.
struct RequestKv {
  struct GroupState {
    std::vector<SmallPageId> pages;  // Block table (attention/image groups); [state] for Mamba.
    // Hash chain over the group's token stream, at the end of its first `hashed_blocks` hit
    // units (blocks, or checkpoint intervals for Mamba).
    BlockHash chain = 0;
    int64_t hashed_blocks = 0;
    // Blocks below this cursor were released (out-of-window / consumed vision embeddings).
    int64_t drop_cursor = 0;
  };
  std::vector<GroupState> groups;
  int64_t computed_tokens = 0;
  // NeededBytesFor at `computed_tokens`, for the Fig. 16 accounting and the decode KV-read
  // estimate. Zero until the first commit or prefix hit.
  int64_t needed_bytes = 0;
  // Deferred last-access refresh (deferred-refresh groups): tick of the most recent computed
  // step. While a page is used its last-access is unobservable, so OnStepComputed records one
  // tick instead of writing O(pages) metadata, and the value is applied where a page can next
  // become evictable — release, drop, or consume.
  Tick last_touch = 0;
  // The event-driven step's two token counts (-1: unknown, take the full path). Every block
  // table covers at least `grow_limit` tokens, so AllocateForTokens up to it claims nothing.
  // Below `next_event` no hit unit completes and no block can be dropped or consumed, so
  // OnStepComputed has nothing to walk.
  int64_t grow_limit = -1;
  int64_t next_event = -1;
};

class KvManager {
 public:
  // Upper bound on KV groups per spec (groups are per layer type: full-prefix attention,
  // sliding window, Mamba, vision embeddings, ...). Lets hot paths use inline arrays.
  static constexpr size_t kMaxGroups = 16;

  struct Options {
    int tokens_per_page = 16;
    bool enable_prefix_caching = true;
    // Needed by the image-cache policies of the accounting spec of multimodal models.
    int tokens_per_image = 0;
    // Keep each request's prompt hash chains from first use until the request retires, so
    // re-admissions and swap restores reuse them — prompts are immutable, so the chains are
    // too. Off = drop them at every Release, so each admission and restore rebuilds from
    // scratch without the shared-prefix table (the reference behavior the memoized path must
    // match bit for bit).
    bool memoize_admission = true;
  };

  // `alloc_spec` drives allocation; `accounting_spec` is the true per-group architecture,
  // used for the needed-vs-allocated waste accounting of Fig. 16 and for the decode KV-read
  // estimate, regardless of allocation mode. `policies` holds one policy per alloc-spec group:
  // MakeLayerPolicies for Jenga, MakeFullPrefixPolicies for the PagedAttention baselines.
  KvManager(KvSpec alloc_spec, KvSpec accounting_spec, int64_t pool_bytes, Options options,
            LayerPolicies policies);

  KvManager(const KvManager&) = delete;
  KvManager& operator=(const KvManager&) = delete;

  // Admission: resolves the longest prefix-cache hit valid across every group (§5.2), takes
  // references on the covering pages, and fast-forwards r.num_computed_tokens. Must be called
  // once per (re-)admission, before AllocateForTokens.
  void OnAdmit(Request& r, Tick now);

  // Ensures KV slots exist for the next `n` tokens of `r` (plus the request's remaining
  // vision embeddings, when a vision group exists). On failure all pages allocated by this
  // call are rolled back and false is returned; the caller preempts.
  [[nodiscard]] bool AllocateForTokens(Request& r, int64_t n, Tick now);

  // Bookkeeping after a step computed tokens of `r` up to r.num_computed_tokens (already
  // advanced by the caller): registers content hashes of completed blocks, snapshots Mamba
  // checkpoints, drops out-of-window pages (Jenga), frees consumed vision embeddings, and
  // refreshes eviction metadata via the layer policies. A step that reaches none of these
  // events only records its progress (DESIGN.md §12).
  void OnStepComputed(Request& r, Tick now);

  // Releases every page of `r` (finish or preemption). Cached content stays evictable when
  // prefix caching is on. Pass `finished` when the request id retires for good: the
  // allocator then drops its request-affinity free lists (which otherwise leak across
  // millions of requests). Preempted requests keep theirs — they re-admit under the same id
  // and the affinity drives §4.3 placement.
  void Release(Request& r, bool finished = false);

  // Conservative admission check: can `tokens` more tokens of `r` be allocated right now,
  // counting free plus evictable capacity?
  [[nodiscard]] bool CanAllocate(const Request& r, int64_t tokens) const;

  // --- Host offload tier (all no-ops / unused when no SwapManager is attached) ---

  // Connects this manager to the offload tier: attaches the tier's eviction subscriber to the
  // allocator (second-chance prefix cache) and enables host-hit promotion in OnAdmit.
  // `manager_index` disambiguates managers sharing one SwapManager (speculative decoding).
  void AttachOffload(SwapManager* offload, int manager_index);

  // Releases pages allocated beyond `r`'s committed-token target. An injected step fault
  // retains the aborted chunk's pages for the retry (allocation is idempotent), so a request
  // preempted inside that retry window still holds uncomputed lookahead pages; they carry no
  // committed KV and must not be part of the swapped/recomputed snapshot. No-op when the
  // block tables already match the committed state.
  void TrimToComputed(const Request& r);

  // Adds this manager's share of `r`'s resident pages to `fp` for the swap-vs-recompute
  // crossover, and appends its state fingerprint (per-group chains and block-table shapes, so
  // a swap-in can verify the round trip restored the exact same state). Must be called before
  // Release (it reads the live block tables); the caller sets `fp->tokens`.
  void AddSwapFootprint(const Request& r, SwapFootprint* fp) const;

  // Re-admission by swap-in: rebuilds `r`'s block tables for `tokens` computed tokens
  // (droppable groups restore only their needed windows) and replays the hash/checkpoint
  // bookkeeping, check-failing if the restored state's fingerprint differs from
  // `expected_fingerprint`. On allocation failure everything is rolled back and false is
  // returned. Replaces OnAdmit for swapped requests; no budget is consumed.
  [[nodiscard]] bool RestoreFromSwap(Request& r, int64_t tokens, uint64_t expected_fingerprint,
                                     Tick now);

  // Drops allocator affinity state for a request id that retires without a final
  // Release(finished=true) — e.g. admission-failure abort after an earlier preemption left
  // affinity free lists behind. Idempotent.
  void OnRequestRetired(RequestId id);

  // --- Accounting (Fig. 16) ---

  struct MemoryStats {
    int64_t pool_bytes = 0;
    int64_t used_bytes = 0;       // Pages referenced by running requests.
    int64_t needed_bytes = 0;     // What the true architecture needs for those requests.
    int64_t wasted_bytes = 0;     // used − needed + internal fragmentation.
    int64_t cached_bytes = 0;     // Evictable prefix-cache content.
    int64_t internal_frag_bytes = 0;
    int64_t unallocated_bytes = 0;
  };
  [[nodiscard]] MemoryStats GetMemoryStats() const;

  // Needed bytes for one request at its current progress, per the accounting spec.
  [[nodiscard]] int64_t NeededBytesFor(const Request& r) const;
  // KV bytes a decode step must read for `r` (the bandwidth term of the cost model; identical
  // across managers because attention kernels read only what the layer needs). Equals
  // NeededBytesFor(r); reuses the value the last commit cached when `r` has not moved since.
  [[nodiscard]] int64_t DecodeKvReadBytes(const Request& r) const;

  [[nodiscard]] const JengaAllocator& allocator() const { return allocator_; }
  // Mutable access for the audit layer (AllocatorAuditor::AttachAllocator); tests only.
  [[nodiscard]] JengaAllocator& allocator_mutable() { return allocator_; }
  [[nodiscard]] const KvSpec& alloc_spec() const { return spec_; }
  [[nodiscard]] int tokens_per_page() const { return options_.tokens_per_page; }
  [[nodiscard]] int64_t total_cache_hit_tokens() const { return total_cache_hit_tokens_; }
  // Group g's block table for admitted request `r`; kNoSmallPage marks a hole (a dropped,
  // consumed or unneeded block).
  [[nodiscard]] const std::vector<SmallPageId>& block_table(const Request& r, int g) const {
    return StateOf(r).groups[static_cast<size_t>(g)].pages;
  }
  // True while some request is admitted (its KvHandle points into this manager).
  [[nodiscard]] bool tracks_requests() const { return !requests_.empty(); }

  // The shared-prefix table's contents (BuildAdmissionMemo): what it holds now, and how many
  // prompt tokens admissions have found in it so far.
  struct SharedPrefixStats {
    int64_t entries = 0;        // Slots holding a key; at most kSharedPrefixSlots.
    int64_t stored_tokens = 0;  // Prompt tokens held across the slots.
    int64_t stored_hashes = 0;  // Chain hashes held across the slots.
    int64_t reused_tokens = 0;  // Cumulative common-prefix tokens of memo builds.
  };
  [[nodiscard]] SharedPrefixStats shared_prefix_stats() const;
  // Grows whose claim walk was settled from counters instead of run (GrowBlockTables).
  [[nodiscard]] int64_t settled_walks() const { return settled_walks_; }
  static constexpr size_t kSharedPrefixSlots = 256;
  // Slots per set: a key may sit in any slot of its set.
  static constexpr size_t kSharedPrefixWays = 4;

 private:
  // Drives the claim walk and the feasibility bound separately (differential soundness test).
  friend struct KvManagerTestPeer;

  using GroupState = RequestKv::GroupState;

  // A request's per-group prompt hash chains, one hash per whole hit unit of the group's
  // prompt stream (its modality subsequence for image/text-scoped groups): the input of
  // OnAdmit's §5.2 scan and the hashes RegisterHashes registers for prompt units. Built on
  // first use (MemoFor) and immutable, since prompts never change. Entries are dropped when
  // the request id retires (Release(finished) / OnRequestRetired), and at every Release when
  // memoize_admission is off; with it on, preempted requests keep theirs.
  struct AdmissionMemo {
    std::vector<std::vector<BlockHash>> group_hashes;
  };

  // One slot of the shared-prefix table: the most recent prompt whose first block hashed to
  // `key`, with the chains of every all-token group over it (empty for subsequence groups).
  // Prompts that share a first block mostly share far more (questions over one document), so
  // a new prompt copies the chains of the whole units inside its common prefix with the slot
  // and hashes only the rest. A key's first sighting stores the key alone, so prompts that
  // share nothing store nothing.
  struct SharedPrefix {
    bool used = false;
    BlockHash key = 0;
    uint64_t last_use = 0;  // shared_prefix_clock_ at the slot's latest lookup; 0 when unused.
    std::vector<int32_t> tokens;
    std::vector<std::vector<BlockHash>> chains;
  };

  // Groups whose prompt chains one BuildAdmissionMemo pass hashes together, one ExtendChains
  // lane each: they share a token stream (the prompt for all-token and per-sequence groups,
  // its text or image subsequence for text- and image-scoped ones), and their hit units divide
  // one another (Jamba's 16-token blocks and 512-token Mamba checkpoints).
  struct HashPass {
    GroupScope stream = GroupScope::kAllTokens;  // kAllTokens: the whole prompt.
    std::vector<size_t> groups;
    std::vector<uint64_t> salts;  // GroupChainSalt of each of `groups`.
    std::vector<int> units;       // HitUnit of each of `groups`.
  };

  // A group's share of a global prefix, in the group's hit unit (HitUnit): whole units
  // covered, and whether the prefix ends exactly on a unit edge.
  struct GroupHit {
    int64_t blocks = 0;
    bool aligned = false;
  };

  // `r`'s state, through its handle: nullptr unless `r` is admitted here (FindState), or a
  // check failure (StateOf).
  [[nodiscard]] const RequestKv* FindState(const Request& r) const;
  [[nodiscard]] const RequestKv& StateOf(const Request& r) const;
  [[nodiscard]] RequestKv& StateOf(const Request& r) {
    return const_cast<RequestKv&>(std::as_const(*this).StateOf(r));
  }
  // Starts tracking `r` with empty block tables and fresh hash chains, at zero computed tokens,
  // and points `r`'s handle for this manager at the new state (OnAdmit and RestoreFromSwap).
  RequestKv& TrackRequest(Request& r);
  // Stops tracking `r`: drops its state and clears its handle (Release, failed restore).
  void Untrack(Request& r);
  // Group g's hit unit: the checkpoint interval for Mamba, a block otherwise (of the group's
  // modality subsequence for image/text-scoped groups).
  [[nodiscard]] int HitUnit(size_t g) const;
  // The one boundary→block mapping of the §5.2 hit logic: group g's share of a `tokens`-long
  // prompt prefix. Only aligned shares can be hits; all-token groups are always aligned.
  [[nodiscard]] GroupHit HitBlocks(const Request& r, size_t g, int64_t tokens) const;
  // Calls fn(g, j, hash, prefix_length) for every block of a `hit_tokens` prefix hit that its
  // layer reads — blocks overlapping the policy's needed ranges, and for Mamba only the deepest
  // checkpoint — in group order, blocks ascending. Looks nothing up; the caller decides.
  template <typename Fn>
  void ForEachHitBlock(const Request& r, const std::vector<std::vector<BlockHash>>& group_hashes,
                       int64_t hit_tokens, Fn&& fn) const;
  // Hashes r's prompt chains: the all-token passes through the shared-prefix table (when
  // memoize_admission is on), the subsequence passes from scratch.
  [[nodiscard]] AdmissionMemo BuildAdmissionMemo(const Request& r);
  // Fills the all-token groups of `memo` for `prompt` from its slot of the shared-prefix table
  // and extends them past the common prefix, then makes the slot hold `prompt`. Returns false,
  // touching nothing in `memo`, when no slot of the key's set holds the key; the key then
  // replaces the set's least recently used slot.
  bool ChainsFromSharedPrefix(std::span<const int32_t> prompt, AdmissionMemo& memo);
  // The shared-prefix key of a prompt of at least one block: a hash of its first block. The
  // set is the key modulo kSharedPrefixSlots / kSharedPrefixWays.
  [[nodiscard]] BlockHash SharedPrefixKey(std::span<const int32_t> prompt) const;
  // `r`'s memo, built on first use.
  const AdmissionMemo& MemoFor(const Request& r);
  // Fused, early-exiting replacement for BuildValidBitmaps + LongestCommonValidPrefix: scans
  // boundaries top-down and resolves block hits lazily, finding the identical boundary while
  // touching O(blocks) allocator lookups instead of materializing every per-group bitmap.
  // With JENGA_CHECK_ADMISSION set in the environment, every call is cross-checked against the
  // bitmap reference. Only boundaries below the prompt length are candidates (an engine cannot
  // "hit" the whole prompt: at least one prompt token is left to compute).
  [[nodiscard]] int64_t ResolveHitBoundary(const Request& r,
                                           const std::vector<std::vector<BlockHash>>& group_hashes,
                                           bool include_host) const;
  // Target block-table size for group `g` once `prefix_tokens` tokens are computed.
  [[nodiscard]] int64_t TargetPages(const Request& r, const KvGroupSpec& group,
                                    int64_t prefix_tokens) const;
  // Per-group validity bitmaps over global block boundaries, as the hit scan sees them. With
  // `include_host` a block also counts as cached when it is host-resident in the offload tier
  // (the longest common valid prefix of that relaxation is the promotion target).
  [[nodiscard]] std::vector<std::vector<bool>> BuildValidBitmaps(
      const Request& r, const std::vector<std::vector<BlockHash>>& group_hashes,
      bool include_host) const;
  // Second-chance pass over the admission hash chains: pulls host-resident pages back onto
  // the GPU where they can extend the hit prefix (runs before the hit scan).
  void PromoteHostHits(const Request& r, const std::vector<std::vector<BlockHash>>& group_hashes,
                       Tick now);
  // Re-materializes one host-resident page of group `g` on the GPU so the regular hit logic
  // finds it. Returns true when the block is now a GPU cache hit.
  [[nodiscard]] bool TryPromoteHostBlock(int g, BlockHash hash, int64_t prefix_length,
                                         RequestId rid, Tick now);
  [[nodiscard]] uint64_t StateFingerprint(const RequestKv& state) const;
  // The one hash walk: per group, over the hit units computed since the last call, advances
  // the chain (memoized hashes for prompt units, ExtendBlockHash past them) and registers the
  // unit — a content hash on its block, or a §5.3 checkpoint snapshot for Mamba.
  void RegisterHashes(Request& r, RequestKv& state, Tick now);
  // Releases group g's blocks that fell out of what its policy needs at r's computed length
  // (droppable policies only). Runs before the commit updates `computed_tokens`.
  void DropUnneededPages(const Request& r, RequestKv& state, int g);
  // One block-table grow, sized before anything is claimed: per group, the target table size
  // and the pages the claim walk will request (only the wanted blocks when restoring with holes).
  struct GrowPlan {
    int64_t tokens = 0;
    // Bit g set: group g restores only the blocks its policy still needs (holes elsewhere).
    uint32_t holes = 0;
    // True when some block table is shorter than its target.
    bool grows = false;
    // True when some group needs more pages than it has empty; only then can the grow fail.
    bool beyond_empties = false;
    // Written for every group of the spec; not zeroed, since every decode step plans a grow.
    std::array<int64_t, kMaxGroups> target;
    std::array<int64_t, kMaxGroups> need;
  };
  // Grows every block table to its target at `tokens` computed tokens, one AllocateN per run of
  // wanted blocks. With `leave_dropped`, droppable groups leave the blocks their policy no
  // longer needs at `tokens` as holes (swap restore). A grow that GrowFits rules out returns
  // false before claiming anything. One that SettleDoomedGrow finds the claim walk cannot
  // complete returns false with only the walk's visible effects applied; one that fails in the
  // claim walk releases every page this call claimed, newest first, and returns false.
  [[nodiscard]] bool GrowBlockTables(const Request& r, RequestKv& state, int64_t tokens,
                                     bool leave_dropped, Tick now);
  [[nodiscard]] GrowPlan PlanGrow(const Request& r, const RequestKv& state, int64_t tokens,
                                  bool leave_dropped) const;
  // Counter-only necessary condition for the claim walk to complete (never false for a grow
  // the walk would finish); see the soundness argument at the definition.
  [[nodiscard]] bool GrowFits(const GrowPlan& plan) const;
  // What SettleDoomedGrow found out about the claim walk over a plan.
  enum class WalkForecast {
    kUnknown,    // The walk could reclaim or evict, or leave holes: only running it tells.
    kCompletes,  // The walk completes; run it.
    kSettled,    // The walk fails; its visible effects are applied and nothing else is left.
  };
  // Decides the claim walk over `plan` from counters when it cannot reclaim or evict (no
  // holes, no queued reclaim, nothing evictable). Group by group the walk then takes the
  // request's own empties, fresh large pages while the LCM has them, then any empty page. On
  // a predicted failure it leaves every group as the walk and its rollback would: the empty
  // pages the walk would have popped come back associated with `r` (SettleFailedClaim), and
  // both event counts of `state` are invalidated.
  [[nodiscard]] WalkForecast SettleDoomedGrow(const Request& r, RequestKv& state,
                                              const GrowPlan& plan, Tick now);
  // The §5.4 claim walk over `plan`, with the rollback described at GrowBlockTables.
  [[nodiscard]] bool ClaimGrow(const Request& r, RequestKv& state, const GrowPlan& plan,
                               Tick now);
  // Large pages group g must take from outside itself (the LCM free list, or another group's
  // reclaimed large page) to place `pages` more small pages when it can reuse `own` of its own.
  [[nodiscard]] int64_t LargesBeyondOwn(size_t g, int64_t pages, int64_t own) const;
  // Releases group g's block-table entries past `size`, newest first, skipping holes, and
  // invalidates both event counts.
  void TruncateBlockTable(RequestKv& state, int g, int64_t size);
  // The token count at which group g's own count (GroupTokensFor) can first reach
  // `group_tokens`: exact for all-token groups, a lower bound for text/image subsequences
  // (each token adds at most one), kNoKvEvent for an image count the request never reaches.
  [[nodiscard]] int64_t TokensToReach(const Request& r, size_t g, int64_t group_tokens) const;
  // RequestKv::grow_limit and RequestKv::next_event for `state` at r's current length.
  [[nodiscard]] int64_t GrowLimit(const Request& r, const RequestKv& state) const;
  [[nodiscard]] int64_t NextKvEvent(const Request& r, const RequestKv& state) const;
  // Debug check behind OnStepComputed's fast return: at r's current length the step walk
  // would hash no unit, drop or consume no block, and run no per-step policy refresh.
  [[nodiscard]] bool StepWalkIsNoOp(const Request& r, const RequestKv& state) const;
  void FreeConsumedVisionPages(const Request& r, RequestKv& state, Tick now);
  [[nodiscard]] RequestPages ViewOf(const Request& r, const RequestKv& state, int g) const;

  KvSpec spec_;
  KvSpec accounting_spec_;
  Options options_;
  JengaAllocator allocator_;
  LayerPolicies policies_;             // Per alloc-spec group.
  LayerPolicies accounting_policies_;  // Per accounting group.
  // Per alloc-spec group: true when the per-step eviction-metadata refresh is deferred to
  // RequestKv::last_touch. Requires the policy's refresh to cover every resident page —
  // unconditionally (full prefix, image cache, Mamba's running state) or because the policy
  // drops out-of-range pages as they fall out (sliding window, pyramid). Every built-in policy
  // qualifies; the eager per-step refresh stays for other policies and as the reference the
  // event-driven step is tested against.
  std::vector<bool> defer_refresh_;
  int vision_group_ = -1;
  // The spec's groups partitioned by stream, and within a stream into sets of units that
  // divide one another, in order of each pass's first group.
  std::vector<HashPass> hash_passes_;
  // Owns every admitted request's state; node-based, so a handle stays valid until Untrack.
  std::unordered_map<RequestId, RequestKv> requests_;
  // Populated lazily (MemoFor); survives preemption when memoize_admission is on.
  std::unordered_map<RequestId, AdmissionMemo> admission_memos_;
  // True when some hash pass runs over the whole prompt (the shared-prefix table's only use).
  bool has_all_token_pass_ = false;
  // Two-way set-associative on the first-block key (set s is slots 2s and 2s + 1), so two
  // documents whose keys share a set do not evict each other; allocated on first use.
  std::vector<SharedPrefix> shared_prefixes_;
  uint64_t shared_prefix_clock_ = 0;
  int64_t shared_prefix_reused_tokens_ = 0;
  int64_t total_cache_hit_tokens_ = 0;
  int64_t settled_walks_ = 0;
  // DropUnneededPages' run for one ReleaseN (empty between calls; capacity reused).
  std::vector<SmallPageId> dropped_pages_;
  SwapManager* offload_ = nullptr;
  int manager_index_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_KV_MANAGER_H_

// SwapManager: policy + accounting brain of the host-memory offload tier. It owns the
// HostPool and PcieSim and gives the engines two new mechanisms:
//
//   1. Preempt-by-swap (PreemptMode::kSwap): instead of discarding a preempted request's KV
//      and recomputing it later, the swap-eligible pages move to host memory and the request
//      re-admits by transferring them back. The mode is chosen per preemption by an analytic
//      cost crossover — recompute time (GpuSim-style compute + chunked KV re-read) vs swap
//      round-trip time (PcieSim D2H + H2D + recompute of swap-ineligible groups).
//   2. Second-chance prefix cache: capacity evictions flow into the host pool (through an
//      AuditSink subscribed to each KvManager's allocator, which parks every
//      OnHashUnindexed event that carries an eviction payload) instead of being destroyed,
//      and KvManager::OnAdmit promotes host-resident pages back on a hit, charging swap-in
//      time.
//
// The SwapManager never touches allocator or request state itself: the engines and KvManager
// drive the mechanics (footprints, restores, promotions) and report to it; it decides, keeps
// the host pool, and accumulates pending transfer time that the engine drains into stall
// time each step (transfers overlap with compute up to PcieSpec::overlap_fraction).
//
// Everything is deterministic: LRU order is insertion order, costs are pure functions, and
// with OffloadConfig::enabled = false nothing is constructed — engine behavior is
// byte-identical to the tier-less build.

#ifndef JENGA_SRC_OFFLOAD_SWAP_MANAGER_H_
#define JENGA_SRC_OFFLOAD_SWAP_MANAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/core/audit_events.h"
#include "src/core/types.h"
#include "src/fault/fault_injector.h"
#include "src/offload/host_pool.h"
#include "src/offload/pcie_sim.h"

namespace jenga {

// User-facing configuration (EngineConfig::offload / SpecDecodeConfig::offload).
struct OffloadConfig {
  bool enabled = false;
  // Host pool capacity shared by swap sets and second-chance cache pages.
  int64_t host_pool_bytes = 32ll << 30;
  PcieSpec pcie;
  // Mechanism switches (both on by default when the tier is enabled).
  bool swap_preemption = true;
  bool host_prefix_cache = true;
  // Recovery knobs, only exercised when a FaultInjector is attached:
  // retries after an injected PCIe link error, with exponential sim-time backoff capped at
  // max_total_backoff per operation.
  int max_transfer_retries = 3;
  double retry_backoff_base = 1e-3;
  double max_total_backoff = 0.1;
  // After this many injected host-pool allocation failures the tier degrades to GPU-only
  // mode (drains and detaches; see DegradeToGpuOnly).
  int degrade_after_host_failures = 3;
  // A forced-shrink fault below this capacity degrades instead of shrinking further.
  int64_t min_host_pool_bytes = 4096;
};

// GPU-side constants of the recompute cost model; the engine fills these from its GpuSpec and
// ModelConfig so the offload library does not depend on the engine layer.
struct SwapCostParams {
  double flops_per_token = 0.0;    // ≈ 2 × parameters (dense transformer forward).
  double gpu_flops = 1.0;          // Sustained FLOP/s.
  double gpu_mem_bandwidth = 1.0;  // Bytes/s.
  int64_t chunk_tokens = 1;        // Chunked-prefill budget (KV re-read granularity).
};

// A request's KV footprint at preemption time, summed across KvManagers.
struct SwapFootprint {
  int64_t tokens = 0;                // num_computed_tokens to restore.
  int64_t swappable_bytes = 0;       // Resident bytes in swap-eligible groups.
  int64_t resident_bytes = 0;        // Resident bytes in all groups.
  int64_t drop_recompute_bytes = 0;  // Needed bytes of swap-ineligible groups.
  std::vector<uint64_t> fingerprints;  // One per KvManager.
};

enum class PreemptMode { kRecompute, kSwap };

class SwapManager {
 public:
  SwapManager(OffloadConfig config, SwapCostParams cost);
  ~SwapManager();

  SwapManager(const SwapManager&) = delete;
  SwapManager& operator=(const SwapManager&) = delete;

  // --- Attachment (KvManager::AttachOffload calls this) ---

  // Registers a KvManager (index order = attach order) and returns the subscriber to attach
  // to its allocator with JengaAllocator::SetAuditSink. It parks every group's capacity
  // evictions. Re-registering an existing index replaces that subscriber in place — the
  // pool-repartition path rebuilds a KvManager and re-attaches under the same index (call
  // FlushHostState first: parked state keyed by the old layout is meaningless to the new
  // manager).
  [[nodiscard]] AuditSink* RegisterManager(int manager_index);

  // Drops every swap set and parked cache page through the audited removal paths WITHOUT
  // degrading the tier. Used at repartition commit: group structure and hash salts belong to
  // the old layout, so all parked content is invalidated wholesale.
  void FlushHostState() { host_.Clear(); }

  // --- Preemption crossover ---

  // Marginal cost of recomputing `tokens` tokens whose final KV footprint is
  // `resident_bytes`: compute term + per-chunk re-read of the already-built KV. Recompute
  // piggybacks on regular engine steps, so no weight-streaming floor applies.
  [[nodiscard]] double RecomputeTime(int64_t tokens, int64_t resident_bytes) const;

  // Full cost of the swap alternative: D2H now + H2D at re-admission + recomputing the
  // swap-ineligible groups (charged by their byte share of the resident footprint).
  [[nodiscard]] double SwapRoundTripTime(const SwapFootprint& fp) const;

  [[nodiscard]] PreemptMode ChoosePreemptMode(const SwapFootprint& fp) const;

  // --- Swap-set lifecycle (engine-driven) ---

  // Stores the footprint in the host pool (LRU-evicting as needed) and charges the D2H
  // transfer. Non-OK — injected transfer fault that exhausted its retries/backoff budget,
  // injected host-pool failure, set larger than the pool, or a degraded tier — means nothing
  // was stored and the engine falls back to recompute. Without a FaultInjector attached this
  // only fails for oversized sets (defensive: ChoosePreemptMode never picks kSwap then).
  [[nodiscard]] Status TryRecordSwapOut(RequestId id, const SwapFootprint& fp);

  // Consults the injector for the H2D leg of a swap-in, with the same retry/backoff policy
  // as TryRecordSwapOut. Call before KvManager::RestoreFromSwap; a non-OK status means the
  // engine should drop the set and recompute instead.
  [[nodiscard]] Status BeginSwapIn();

  // Swap set still resident in host memory, if any (nullptr after LRU eviction).
  [[nodiscard]] const HostSwapSet* PeekSwapSet(RequestId id) const;

  // The engine restored the request's pages; consume the set and charge H2D + the
  // ineligible-group recompute share. Takes a caller-held *copy* of the set: restoring can
  // itself park evicted cache pages in the host pool and LRU-evict the set mid-transfer, so
  // neither the PeekSwapSet pointer nor the pool entry is stable across the restore.
  void CommitSwapIn(RequestId id, const HostSwapSet& set);

  // Abandon a set (request finished, or fell back to recompute).
  void DropSwapSet(RequestId id);

  // --- Second-chance prefix cache (KvManager-driven) ---

  [[nodiscard]] const HostCachePage* LookupHostPage(int manager_index, int group,
                                                    BlockHash hash) const;
  // A host page was re-materialized on the GPU: remove it and charge the H2D stream.
  void OnHostPagePromoted(int manager_index, int group, BlockHash hash, int64_t bytes);

  // --- Time accounting ---

  [[nodiscard]] bool HasPendingTransfer() const {
    return pending_transfer_ > 0.0 || pending_backoff_ > 0.0;
  }
  // Drains pending transfer time against `compute_time` of overlappable step compute and
  // returns the engine stall (see PcieSim::StallTime).
  double ConsumeStall(double compute_time);

  struct Stats {
    int64_t swap_out_events = 0;
    int64_t swap_in_events = 0;
    int64_t swap_out_bytes = 0;
    int64_t swap_in_bytes = 0;
    int64_t host_pages_stored = 0;    // Evicted cache pages parked in host memory.
    int64_t host_pages_promoted = 0;  // Host pages that produced a GPU cache hit.
    int64_t host_bytes_promoted = 0;
    double transfer_time = 0.0;  // Total PCIe busy time.
    double stall_time = 0.0;     // Portion that stalled the engine (incl. retry backoff).
    // Fault recovery (all zero without an attached FaultInjector).
    int64_t fault_retries = 0;        // Transfer retries after injected link errors.
    double backoff_time = 0.0;        // Sim time spent in retry backoff / timeout waits.
    int64_t host_failures = 0;        // Injected host-pool allocation failures observed.
    int64_t host_shrinks = 0;         // Forced capacity halvings survived.
    int64_t degraded_transitions = 0; // Times the tier detached into GPU-only mode.
    int64_t reattach_transitions = 0; // Times a degraded tier re-armed (probe succeeded).
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const HostPool& host() const { return host_; }
  [[nodiscard]] const OffloadConfig& config() const { return config_; }
  [[nodiscard]] const PcieSim& pcie() const { return pcie_; }

  // Attaches / detaches one host-pool event subscriber (see AuditSinkList).
  void SetAuditSink(AuditSink* sink) { host_.audit_sinks().Add(sink); }
  void RemoveAuditSink(AuditSink* sink) { host_.audit_sinks().Remove(sink); }

  // --- Fault injection & graceful degradation ---

  // Wires the injector into the PCIe model, the host pool, and this manager's own
  // shrink/degrade sites (nullptr detaches everywhere).
  void SetFaultInjector(FaultInjector* injector);

  // Called once per engine step (only when an injector is attached): consults the
  // kHostPoolShrink site and halves the pool under pressure; shrinking below
  // OffloadConfig::min_host_pool_bytes degrades to GPU-only instead.
  void OnEngineStep();

  // Detaches the tier: drains every swap set and parked cache page through the audited
  // removal paths, then refuses all future swaps (ChoosePreemptMode → kRecompute, lookups
  // miss, the eviction subscribers no-op). Swapped-out requests recover through the existing
  // missing-set recompute fallback. Idempotent.
  void DegradeToGpuOnly();
  [[nodiscard]] bool degraded() const { return degraded_; }

  // Reverse of DegradeToGpuOnly, once host faults subside: restores the configured pool
  // capacity (the pool restarts empty — degrade drained it through the audited paths),
  // resets the host-failure counter, and resumes swap/park service. Gated by a capped probe
  // backoff: the call only succeeds after the tier has sat degraded for the current backoff
  // window (counted in OnEngineStep calls), and each successive degrade doubles the window
  // up to kMaxReattachBackoffSteps — so a flapping host cannot make the tier oscillate.
  // Returns true when service resumed; false (no state change) while the probe window is
  // still open or the tier is not degraded. Idempotent in both directions.
  bool TryReattachOffloadTier();
  // Probes remaining before TryReattachOffloadTier can succeed (0 when reattachable now or
  // not degraded).
  [[nodiscard]] int64_t reattach_probe_steps_remaining() const;

  static constexpr int64_t kInitialReattachBackoffSteps = 8;
  static constexpr int64_t kMaxReattachBackoffSteps = 1024;

 private:
  friend class AllocatorAuditor;

  struct ManagerSink;

  OffloadConfig config_;
  SwapCostParams cost_;
  PcieSim pcie_;
  HostPool host_;
  // Shared retry loop for one transfer leg; accumulates backoff into pending_backoff_.
  [[nodiscard]] Status BeginTransferWithRetry(PcieDirection dir);
  // Injected host-pool failure bookkeeping (degrades after the configured threshold).
  void OnInjectedHostFailure();

  std::vector<std::unique_ptr<ManagerSink>> sinks_;  // One per registered KvManager.
  FaultInjector* fault_ = nullptr;
  bool degraded_ = false;
  // Reattach probe backoff (see TryReattachOffloadTier).
  int64_t reattach_backoff_steps_ = kInitialReattachBackoffSteps;
  int64_t steps_degraded_ = 0;
  double pending_transfer_ = 0.0;
  // Retry/timeout waits accumulated since the last ConsumeStall. Unlike transfers, backoff
  // cannot hide behind compute: the engine is waiting, not copying.
  double pending_backoff_ = 0.0;
  Stats stats_;
};

}  // namespace jenga

#endif  // JENGA_SRC_OFFLOAD_SWAP_MANAGER_H_

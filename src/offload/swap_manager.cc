#include "src/offload/swap_manager.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/math_util.h"

namespace jenga {

// Per-manager subscriber: tags allocator eviction events with the manager index so host-pool
// keys stay unique when several KvManagers (speculative decoding) share one SwapManager.
struct SwapManager::ManagerSink final : AuditSink {
  SwapManager* owner = nullptr;
  int manager_index = 0;

  void OnHashUnindexed(int group_index, BlockHash hash, const CacheEviction* evicted) override {
    // Only capacity evictions park; content its owner declared obsolete has no second life.
    if (evicted == nullptr || !owner->config_.host_prefix_cache || owner->degraded_) {
      return;
    }
    // Unlike preemption swap sets (where SwapEligible() gates transfers and ineligible groups
    // are recomputed on restore), the second-chance cache parks every group's evictions: the
    // hit scan demands residency at a common boundary across ALL groups, so a hole in a
    // sliding-window group would cap the valid prefix no matter how much full-attention KV
    // the host holds. Out-of-window parked pages are never promoted and age out of the
    // host LRU naturally.
    HostCachePage page;
    page.bytes = evicted->page_bytes;
    page.prefix_length = evicted->prefix_length;
    page.evicted_at = evicted->last_access;
    const int64_t injected_before = owner->host_.injected_failures();
    if (owner->host_.PutPage({manager_index, group_index, hash}, page)) {
      owner->pending_transfer_ += owner->pcie_.D2HStreamTime(page.bytes);
      owner->stats_.host_pages_stored += 1;
      owner->stats_.swap_out_bytes += page.bytes;
    } else if (owner->host_.injected_failures() > injected_before) {
      // Injected allocation failure: the page is simply not parked (second-chance is an
      // optimization, losing one page is safe), but repeated failures degrade the tier.
      owner->OnInjectedHostFailure();
    }
  }
};

SwapManager::SwapManager(OffloadConfig config, SwapCostParams cost)
    : config_(config), cost_(cost), pcie_(config.pcie), host_(config.host_pool_bytes) {
  JENGA_CHECK_GT(cost_.gpu_flops, 0.0);
  JENGA_CHECK_GT(cost_.gpu_mem_bandwidth, 0.0);
  JENGA_CHECK_GT(cost_.chunk_tokens, 0);
}

SwapManager::~SwapManager() = default;

AuditSink* SwapManager::RegisterManager(int manager_index) {
  JENGA_CHECK_LE(manager_index, static_cast<int>(sinks_.size()))
      << "managers must register in index order";
  auto sink = std::make_unique<ManagerSink>();
  sink->owner = this;
  sink->manager_index = manager_index;
  if (manager_index < static_cast<int>(sinks_.size())) {
    // Repartition re-attach: the rebuilt KvManager takes over the slot.
    sinks_[manager_index] = std::move(sink);
    return sinks_[manager_index].get();
  }
  sinks_.push_back(std::move(sink));
  return sinks_.back().get();
}

double SwapManager::RecomputeTime(int64_t tokens, int64_t resident_bytes) const {
  if (tokens <= 0) {
    return 0.0;
  }
  const double compute =
      cost_.flops_per_token * static_cast<double>(tokens) / cost_.gpu_flops;
  // Chunked prefill re-reads the KV built so far on every chunk; on average half the final
  // footprint per chunk.
  const double chunks = static_cast<double>(CeilDiv(tokens, cost_.chunk_tokens));
  const double kv_reread =
      chunks * (static_cast<double>(resident_bytes) * 0.5) / cost_.gpu_mem_bandwidth;
  return compute + kv_reread;
}

double SwapManager::SwapRoundTripTime(const SwapFootprint& fp) const {
  double t = pcie_.D2HTime(fp.swappable_bytes) + pcie_.H2DTime(fp.swappable_bytes);
  if (fp.drop_recompute_bytes > 0 && fp.resident_bytes > 0) {
    // Swap-ineligible groups recompute their needed window; charge the compute-only
    // recompute cost by their byte share of the resident footprint (analytic approximation —
    // per-group compute shares are not modeled).
    t += RecomputeTime(fp.tokens, 0) * static_cast<double>(fp.drop_recompute_bytes) /
         static_cast<double>(fp.resident_bytes);
  }
  return t;
}

PreemptMode SwapManager::ChoosePreemptMode(const SwapFootprint& fp) const {
  if (degraded_ || !config_.swap_preemption || fp.swappable_bytes <= 0 ||
      fp.swappable_bytes > host_.capacity_bytes()) {
    return PreemptMode::kRecompute;
  }
  return SwapRoundTripTime(fp) < RecomputeTime(fp.tokens, fp.resident_bytes)
             ? PreemptMode::kSwap
             : PreemptMode::kRecompute;
}

void SwapManager::SetFaultInjector(FaultInjector* injector) {
  fault_ = injector;
  pcie_.set_fault_injector(injector);
  host_.set_fault_injector(injector);
}

Status SwapManager::BeginTransferWithRetry(PcieDirection dir) {
  double backoff = config_.retry_backoff_base;
  double total_backoff = 0.0;
  for (int attempt = 0;; ++attempt) {
    const Status transfer = pcie_.BeginTransfer(dir);
    if (transfer.ok()) {
      return transfer;
    }
    if (transfer.code() == StatusCode::kDeadlineExceeded) {
      // Hung transfer: the engine waits out the timeout budget and gives up on this leg —
      // retrying a hung link immediately is pointless.
      pending_backoff_ += pcie_.spec().timeout_seconds;
      stats_.backoff_time += pcie_.spec().timeout_seconds;
      return transfer;
    }
    // Transient link error: retry with exponential backoff until the attempt or the
    // per-operation backoff budget runs out.
    if (attempt >= config_.max_transfer_retries ||
        total_backoff + backoff > config_.max_total_backoff) {
      return transfer;
    }
    stats_.fault_retries += 1;
    pending_backoff_ += backoff;
    stats_.backoff_time += backoff;
    total_backoff += backoff;
    backoff *= 2.0;
  }
}

void SwapManager::OnInjectedHostFailure() {
  stats_.host_failures += 1;
  if (stats_.host_failures >= config_.degrade_after_host_failures) {
    DegradeToGpuOnly();
  }
}

Status SwapManager::TryRecordSwapOut(RequestId id, const SwapFootprint& fp) {
  if (degraded_) {
    return Status::FailedPrecondition("offload tier degraded to GPU-only mode");
  }
  const Status transfer = BeginTransferWithRetry(PcieDirection::kD2H);
  if (!transfer.ok()) {
    return transfer;
  }
  HostSwapSet set;
  set.bytes = fp.swappable_bytes;
  set.tokens = fp.tokens;
  set.resident_bytes = fp.resident_bytes;
  set.drop_recompute_bytes = fp.drop_recompute_bytes;
  set.fingerprints = fp.fingerprints;
  const int64_t injected_before = host_.injected_failures();
  if (!host_.PutSwapSet(id, std::move(set))) {
    if (host_.injected_failures() > injected_before) {
      OnInjectedHostFailure();
      return Status::ResourceExhausted("injected host-pool allocation failure");
    }
    return Status::ResourceExhausted("swap set exceeds host pool capacity");
  }
  pending_transfer_ += pcie_.D2HTime(fp.swappable_bytes);
  stats_.swap_out_events += 1;
  stats_.swap_out_bytes += fp.swappable_bytes;
  return Status::Ok();
}

Status SwapManager::BeginSwapIn() {
  if (degraded_) {
    return Status::FailedPrecondition("offload tier degraded to GPU-only mode");
  }
  return BeginTransferWithRetry(PcieDirection::kH2D);
}

void SwapManager::OnEngineStep() {
  if (fault_ == nullptr) {
    return;
  }
  if (degraded_) {
    // Each step spent degraded counts toward the reattach probe window.
    steps_degraded_ += 1;
    return;
  }
  if (!fault_->Fire(FaultSite::kHostPoolShrink)) {
    return;
  }
  const int64_t new_capacity = host_.capacity_bytes() / 2;
  if (new_capacity < config_.min_host_pool_bytes) {
    DegradeToGpuOnly();
    return;
  }
  host_.ForceShrink(new_capacity);
  stats_.host_shrinks += 1;
}

void SwapManager::DegradeToGpuOnly() {
  if (degraded_) {
    return;
  }
  degraded_ = true;
  stats_.degraded_transitions += 1;
  steps_degraded_ = 0;
  // Drain the tier through the audited removal paths so the auditor's shadow model stays
  // consistent; in-flight transfer/backoff time still gets drained by the next ConsumeStall.
  host_.Clear();
}

bool SwapManager::TryReattachOffloadTier() {
  if (!degraded_) {
    return false;
  }
  if (steps_degraded_ < reattach_backoff_steps_) {
    return false;  // Probe window still open; no state change.
  }
  degraded_ = false;
  stats_.reattach_transitions += 1;
  stats_.host_failures = 0;  // A re-armed tier gets a fresh degrade budget.
  steps_degraded_ = 0;
  // Each successive degrade/reattach cycle doubles the probe window, capped — a flapping
  // host converges to the slowest cadence instead of oscillating.
  reattach_backoff_steps_ = std::min(reattach_backoff_steps_ * 2, kMaxReattachBackoffSteps);
  // Degrade drained the pool and may have followed forced shrinks; service resumes at the
  // configured capacity (the pool is empty, so no eviction cascade).
  host_.ForceShrink(config_.host_pool_bytes);
  return true;
}

int64_t SwapManager::reattach_probe_steps_remaining() const {
  if (!degraded_) {
    return 0;
  }
  return std::max<int64_t>(0, reattach_backoff_steps_ - steps_degraded_);
}

const HostSwapSet* SwapManager::PeekSwapSet(RequestId id) const {
  return host_.FindSwapSet(id);
}

void SwapManager::CommitSwapIn(RequestId id, const HostSwapSet& set) {
  pending_transfer_ += pcie_.H2DTime(set.bytes);
  if (set.drop_recompute_bytes > 0 && set.resident_bytes > 0) {
    pending_transfer_ += RecomputeTime(set.tokens, 0) *
                         static_cast<double>(set.drop_recompute_bytes) /
                         static_cast<double>(set.resident_bytes);
  }
  stats_.swap_in_events += 1;
  stats_.swap_in_bytes += set.bytes;
  // The restore itself may have parked freshly evicted cache pages in the host pool and
  // LRU-evicted this very set mid-transfer; the caller's snapshot keeps the accounting
  // correct, and the erase is simply a no-op then.
  host_.EraseSwapSet(id);
}

void SwapManager::DropSwapSet(RequestId id) { host_.EraseSwapSet(id); }

const HostCachePage* SwapManager::LookupHostPage(int manager_index, int group,
                                                 BlockHash hash) const {
  if (!config_.host_prefix_cache || degraded_) {
    return nullptr;
  }
  return host_.FindPage({manager_index, group, hash});
}

void SwapManager::OnHostPagePromoted(int manager_index, int group, BlockHash hash,
                                     int64_t bytes) {
  JENGA_CHECK(host_.ErasePage({manager_index, group, hash})) << "promoted page not resident";
  pending_transfer_ += pcie_.H2DStreamTime(bytes);
  stats_.host_pages_promoted += 1;
  stats_.host_bytes_promoted += bytes;
  stats_.swap_in_bytes += bytes;
}

double SwapManager::ConsumeStall(double compute_time) {
  if (pending_transfer_ <= 0.0 && pending_backoff_ <= 0.0) {
    return 0.0;
  }
  // Transfers hide behind compute up to the overlap fraction; backoff is pure engine wait
  // (nothing is on the wire) and never overlaps.
  const double stall = pcie_.StallTime(pending_transfer_, compute_time) + pending_backoff_;
  stats_.transfer_time += pending_transfer_;
  stats_.stall_time += stall;
  pending_transfer_ = 0.0;
  pending_backoff_ = 0.0;
  return stall;
}

}  // namespace jenga

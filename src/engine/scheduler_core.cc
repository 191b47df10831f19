#include "src/engine/scheduler_core.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "src/common/check.h"

namespace jenga {

namespace {

// Differential audit of the deadline heap against the brute-force queue scan. Off by default
// (the reference pass is the O(requests) scan the heap exists to avoid); the fuzz stage
// enables it.
bool DeadlineHeapAuditEnabled() {
  static const bool enabled = std::getenv("JENGA_CHECK_DEADLINES") != nullptr;
  return enabled;
}

}  // namespace

SchedulerCore::SchedulerCore(const SchedulerConfig& config, int max_batched_tokens,
                             double flops_per_token)
    : max_batched_tokens_(max_batched_tokens),
      max_num_seqs_(config.max_num_seqs_override > 0 ? config.max_num_seqs_override
                                                     : config.gpu.max_num_seqs),
      shed_after_blocked_steps_(config.shed_after_blocked_steps),
      shed_occupancy_watermark_(config.shed_occupancy_watermark) {
  if (config.offload.enabled) {
    SwapCostParams cost;
    cost.flops_per_token = flops_per_token;
    cost.gpu_flops = config.gpu.flops;
    cost.gpu_mem_bandwidth = config.gpu.mem_bandwidth;
    cost.chunk_tokens = max_batched_tokens_;
    swap_ = std::make_unique<SwapManager>(config.offload, cost);
  }
  if (config.fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(config.fault);
    if (swap_ != nullptr) {
      swap_->SetFaultInjector(fault_.get());
    }
  }
}

void SchedulerCore::AddManager(std::unique_ptr<KvManager> manager) {
  managers_.emplace_back();
  ReplaceManager(num_managers() - 1, std::move(manager));
}

void SchedulerCore::ReplaceManager(int index, std::unique_ptr<KvManager> manager) {
  // Requests reach their KV state through handles into the manager; none may outlive it.
  const std::unique_ptr<KvManager>& old = managers_[static_cast<size_t>(index)];
  JENGA_CHECK(old == nullptr || !old->tracks_requests())
      << "replacing a manager with admitted requests";
  managers_[static_cast<size_t>(index)] = std::move(manager);
  if (swap_ != nullptr) {
    managers_[static_cast<size_t>(index)]->AttachOffload(swap_.get(), index);
  }
}

void SchedulerCore::Submit(Request request) {
  JENGA_CHECK(request.state == RequestState::kWaiting);
  for (const KvHandle& handle : request.kv_handles) {
    JENGA_CHECK(handle.manager == nullptr) << "request " << request.id << " is already tracked";
  }
  const RequestId id = request.id;
  const auto [it, inserted] = requests_.emplace(id, std::move(request));
  JENGA_CHECK(inserted) << "duplicate request id " << id;
  Request& r = it->second;
  if (r.deadline >= 0.0) {
    has_deadlines_ = true;
    deadlines_.Push(r.deadline, id);
  }
  waiting_.PushBack(r);
}

const Request& SchedulerCore::request(RequestId id) const {
  const auto it = requests_.find(id);
  JENGA_CHECK(it != requests_.end());
  return it->second;
}

int32_t SchedulerCore::PseudoToken(RequestId id, int64_t position) {
  uint64_t x = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(position);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 29;
  return static_cast<int32_t>(50000 + (x % 1000000));
}

bool SchedulerCore::CanAllocateAll(const Request& r, int64_t tokens) const {
  for (const auto& manager : managers_) {
    if (!manager->CanAllocate(r, tokens)) {
      return false;
    }
  }
  return true;
}

bool SchedulerCore::AllocateAll(Request& r, int64_t tokens) {
  for (auto& manager : managers_) {
    if (!manager->AllocateForTokens(r, tokens, tick_)) {
      return false;
    }
  }
  return true;
}

void SchedulerCore::ReleaseAll(Request& r, bool finished) {
  for (auto& manager : managers_) {
    manager->Release(r, finished);
  }
}

void SchedulerCore::StepComputedAll(Request& r) {
  for (auto& manager : managers_) {
    manager->OnStepComputed(r, tick_);
  }
}

void SchedulerCore::AdmitAll(Request& r) {
  {
    StepProfiler::Scope prof_admit(prof_, StepPhase::kHitScan);
    for (auto& manager : managers_) {
      manager->OnAdmit(r, tick_);
    }
  }
  metrics_.cache_hit_tokens += r.cached_prefix_tokens;
}

bool SchedulerCore::BeginStep() {
  if (step_hook_ != nullptr) [[unlikely]] {
    // Quiesce point: no request is mid-step, so the governor may preempt, shed, resize,
    // repartition, or rebalance here. It may also drain the last pending work.
    StepProfiler::Scope prof_scope(prof_, StepPhase::kHookDispatch);
    step_hook_->OnStepBoundary(*this);
    if (running_.empty() && waiting_.empty()) {
      return false;
    }
  }
  if (has_deadlines_) [[unlikely]] {
    StepProfiler::Scope prof_scope(prof_, StepPhase::kDeadlineExpiry);
    ExpireDeadlines();
  }
  if (fault_ != nullptr && swap_ != nullptr) [[unlikely]] {
    StepProfiler::Scope prof_scope(prof_, StepPhase::kHookDispatch);
    swap_->OnEngineStep();  // Host memory-pressure site (forced shrink / degrade).
  }
  // Fast-forward to the next arrival when idle and nothing has arrived yet.
  if (running_.empty()) {
    const double next_arrival = NextArrivalAfter(-std::numeric_limits<double>::infinity());
    if (next_arrival > now_) {
      now_ = next_arrival;
    }
  }
  ++tick_;
  return true;
}

void SchedulerCore::AdvanceClock(double compute_time) {
  double step_time = compute_time;
  if (swap_ != nullptr) {
    step_time += swap_->ConsumeStall(compute_time);
  }
  now_ += step_time;
}

double SchedulerCore::NextArrivalAfter(double t) const {
  double next_arrival = -1.0;
  for (const RequestQueue::Node* n = waiting_.first(); n != nullptr; n = n->next) {
    const double arrival = n->request->arrival_time;
    if (arrival > t && (next_arrival < 0.0 || arrival < next_arrival)) {
      next_arrival = arrival;
    }
  }
  return next_arrival;
}

bool SchedulerCore::AllocateOrPreempt(Request& r, int64_t tokens) {
  StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
  while (!AllocateAll(r, tokens)) {
    Request& victim = *running_.back();
    if (&victim == &r && running_.size() == 1) {
      // `r` alone does not fit the pool, so re-queuing it would only make it preempt itself
      // again, forever: fail it, as AdmitHead fails a head that cannot fit on its own.
      ReleaseAll(r, /*finished=*/true);
      running_.Erase(r.id);
      FinishRequest(r, /*failed=*/true);
      return false;
    }
    Preempt(victim);
    if (&victim == &r) {
      return false;
    }
  }
  return true;
}

SchedulerCore::Admission SchedulerCore::AdmitHead(Request& r, int64_t prefill_target,
                                                  int64_t budget, int64_t* chunk) {
  const bool nothing_else_runnable = running_.empty();
  if (swap_ != nullptr && r.swapped_out) {
    SwapAdmit outcome;
    {
      StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
      outcome = TryAdmitFromSwap(r, nothing_else_runnable);
    }
    if (outcome == SwapAdmit::kBlocked) {
      return Admission::kBlocked;
    }
    if (outcome == SwapAdmit::kAdmitted) {
      waiting_.Erase(r.id);
      *chunk = 0;
      return Admission::kAdmitted;
    }
    // kFallthrough: recompute from scratch via the normal path below.
  }
  bool fits;
  {
    StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
    fits = CanAllocateAll(r, std::min<int64_t>(prefill_target, budget));
  }
  if (!fits) {
    // Head-of-line blocking is intentional (FCFS); but if nothing is running the request can
    // never fit — fail it rather than deadlock (vLLM aborts in this case, §7.2).
    if (nothing_else_runnable) {
      waiting_.Erase(r.id);
      FinishRequest(r, /*failed=*/true);
      return Admission::kFailed;
    }
    return Admission::kBlocked;
  }
  waiting_.Erase(r.id);
  AdmitAll(r);
  *chunk = std::min<int64_t>(prefill_target - r.num_computed_tokens, budget);
  JENGA_CHECK_GT(*chunk, 0);
  bool allocated;
  {
    StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
    allocated = AllocateAll(r, *chunk);
  }
  if (!allocated) {
    ReleaseAll(r, /*finished=*/nothing_else_runnable);
    r.num_computed_tokens = 0;
    if (nothing_else_runnable) {
      FinishRequest(r, /*failed=*/true);
      return Admission::kFailed;
    }
    waiting_.PushFront(r);
    return Admission::kBlocked;
  }
  r.state = RequestState::kRunning;
  if (r.first_scheduled_time < 0.0) {
    r.first_scheduled_time = now_;
  }
  running_.PushBack(r);
  return Admission::kAdmitted;
}

void SchedulerCore::Preempt(Request& r, bool allow_swap) {
  // The whole preemption — TrimToComputed, the swap decision, and the release-to-cache walk —
  // bills to kEvictPreempt, pausing whatever scope drove it (e.g. kAllocate when an
  // allocation failure preempts from the back).
  StepProfiler::Scope prof_scope(prof_, StepPhase::kEvictPreempt);
  // Return any retained-but-uncomputed pages (injected step fault retry window) before
  // snapshotting: the swap fingerprint and cost footprint must cover the committed state only.
  for (auto& manager : managers_) {
    manager->TrimToComputed(r);
  }
  if (swap_ != nullptr && allow_swap) {
    SwapFootprint fp;
    fp.tokens = r.num_computed_tokens;
    for (const auto& manager : managers_) {
      manager->AddSwapFootprint(r, &fp);
    }
    // An injected transfer/host fault inside TryRecordSwapOut exhausts its retry budget and
    // reports non-OK; the fallback is the same recompute path a cost-crossover loss takes.
    if (swap_->ChoosePreemptMode(fp) == PreemptMode::kSwap &&
        swap_->TryRecordSwapOut(r.id, fp).ok()) {
      r.swapped_out = true;
      r.swapped_out_tokens = r.num_computed_tokens;
    } else {
      metrics_.recomputed_tokens += r.num_computed_tokens;
    }
  } else {
    metrics_.recomputed_tokens += r.num_computed_tokens;
  }
  ReleaseAll(r);
  r.state = RequestState::kPreempted;
  r.preemptions += 1;
  r.num_computed_tokens = 0;
  r.vision_encoder_runs_this_admission = 0;
  running_.Erase(r.id);
  waiting_.PushFront(r);
}

void SchedulerCore::FinishRequest(Request& r, bool failed) {
  // A request can retire without a final Release(finished=true) (e.g. admission-failure abort
  // after an earlier preemption); drop its allocator affinity state and any host swap set
  // either way — both calls are idempotent.
  for (auto& manager : managers_) {
    manager->OnRequestRetired(r.id);
  }
  if (swap_ != nullptr) {
    swap_->DropSwapSet(r.id);
  }
  r.state = RequestState::kFinished;
  r.failed = failed;
  r.finish_time = now_;
  RequestRecord record;
  record.id = r.id;
  record.prompt_len = r.prompt_len();
  record.output_len = r.num_generated;
  record.cached_prefix_tokens = r.cached_prefix_tokens;
  record.preemptions = r.preemptions;
  record.arrival_time = r.arrival_time;
  record.first_scheduled_time = r.first_scheduled_time;
  record.first_token_time = r.first_token_time;
  record.finish_time = now_;
  record.failed = failed;
  record.cancelled = r.cancelled;
  metrics_.RecordFinished(record);
}

bool SchedulerCore::CancelRequest(RequestId id) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) {
    return false;
  }
  Request& r = it->second;
  if (r.state == RequestState::kFinished) {
    return false;
  }
  if (r.state == RequestState::kRunning) {
    ReleaseAll(r, /*finished=*/true);
    running_.Erase(id);
  } else {
    // Waiting or preempted (possibly swapped out / mid-restore): these hold no manager pages —
    // every preemption path Releases before re-queueing — so only the queue slot and any host
    // swap set (dropped by FinishRequest below) remain.
    waiting_.Erase(id);
  }
  RetireCancelled(r);
  return true;
}

void SchedulerCore::RetireCancelled(Request& r) {
  r.swapped_out = false;
  r.swapped_out_tokens = 0;
  r.cancelled = true;
  metrics_.cancelled_requests += 1;
  FinishRequest(r, /*failed=*/true);
}

std::vector<RequestId> SchedulerCore::ActiveRequests() const {
  std::vector<RequestId> ids;
  ids.reserve(running_.size() + waiting_.size());
  for (const RequestQueue* queue : {&running_, &waiting_}) {
    for (const RequestQueue::Node* n = queue->first(); n != nullptr; n = n->next) {
      ids.push_back(n->request->id);
    }
  }
  return ids;
}

void SchedulerCore::ExpireDeadlines() {
  // Heap-first: O(1) when the earliest deadline is still in the future (the common step),
  // O(log n) per expiry. Stale entries — requests that finished, failed, or were cancelled
  // before their deadline — surface at the top and are discarded here (lazy deletion).
  expired_buf_.clear();
  while (deadlines_.HasExpired(now_)) {
    const RequestId id = deadlines_.PopTop().id;
    const auto it = requests_.find(id);
    if (it != requests_.end() && it->second.state != RequestState::kFinished) {
      expired_buf_.push_back(id);
    }
  }
  if (expired_buf_.empty()) {
    return;
  }
  if (expired_buf_.size() > 1) {
    // Several requests expired on the same step: the heap yields them in deadline order, but
    // the cancel order must be queue order (waiting first, then running — cancellation
    // mutates the queues and every downstream release/eviction tie-break sees it), so
    // re-collect the same set by scanning the queues.
    expired_buf_.clear();
    ScanExpired(&expired_buf_);
  }
  if (DeadlineHeapAuditEnabled()) [[unlikely]] {
    CheckDeadlineHeapAgainstScan();
  }
  for (const RequestId id : expired_buf_) {
    metrics_.deadline_expirations += 1;
    JENGA_CHECK(CancelRequest(id));
  }
}

void SchedulerCore::CheckDeadlineHeapAgainstScan() {
  // The heap-collected expired set must equal the brute-force queue scan in content; for
  // multi-expiry steps the order must match too (the single-expiry fast path trivially
  // agrees on order).
  std::vector<RequestId> reference;
  ScanExpired(&reference);
  JENGA_CHECK_EQ(reference.size(), expired_buf_.size())
      << "deadline heap expired-set size diverges from brute-force scan at now=" << now_;
  for (size_t i = 0; i < reference.size(); ++i) {
    JENGA_CHECK_EQ(reference[i], expired_buf_[i])
        << "deadline heap expiry order diverges from brute-force scan at now=" << now_;
  }
}

void SchedulerCore::ScanExpired(std::vector<RequestId>* out) const {
  for (const RequestQueue* queue : {&waiting_, &running_}) {
    for (const RequestQueue::Node* n = queue->first(); n != nullptr; n = n->next) {
      const Request& r = *n->request;
      if (r.deadline >= 0.0 && r.deadline <= now_) {
        out->push_back(r.id);
      }
    }
  }
}

void SchedulerCore::MaybeShedHeadSlow() {
  // Only shed under genuine memory pressure: a head blocked below the watermark is waiting
  // on a transient condition (e.g. a scheduled batch), not on an over-committed pool. With
  // several managers the most constrained one governs admission, so take the max occupancy
  // (counter-only probe — no request-table walk on the common blocked step).
  double occupancy = 0.0;
  for (const auto& manager : managers_) {
    occupancy = std::max(occupancy, manager->allocator().Occupancy());
  }
  if (occupancy < shed_occupancy_watermark_) {
    return;
  }
  metrics_.shed_requests += 1;
  RetireCancelled(waiting_.PopFront());
  head_blocked_steps_ = 0;
}

bool SchedulerCore::ParkNewestRunning() {
  if (running_.size() <= 1) {
    return false;  // Parking the only runner would just stall the engine.
  }
  Preempt(*running_.back());
  metrics_.elastic_parked += 1;
  return true;
}

bool SchedulerCore::ShedOldestWaiting() {
  if (waiting_.empty()) {
    return false;
  }
  Request& r = *waiting_.front();
  if (r.arrival_time > now_) {
    return false;  // Not yet arrived: future work is never pressure.
  }
  waiting_.Erase(r.id);
  metrics_.shed_requests += 1;
  metrics_.elastic_shed += 1;
  RetireCancelled(r);
  return true;
}

bool SchedulerCore::TransitionFaultFired(FaultSite site, int64_t* rollbacks) {
  if (fault_ == nullptr || !fault_->Fire(site)) {
    return false;
  }
  *rollbacks += 1;
  return true;
}

SchedulerCore::SwapAdmit SchedulerCore::TryAdmitFromSwap(Request& r, bool nothing_else_runnable) {
  const HostSwapSet* set = swap_->PeekSwapSet(r.id);
  if (set == nullptr) {
    // The set was LRU-evicted from host memory while the request queued: recompute.
    FallBackFromSwap(r);
    return SwapAdmit::kFallthrough;
  }
  // Copy the set: restoring may evict cache pages into the host pool, which can LRU-evict
  // this set (and invalidate `set`) before the commit below.
  const HostSwapSet snapshot = *set;
  if (!swap_->BeginSwapIn().ok()) {
    // Injected H2D fault that survived its retries: the set is unusable — drop it and
    // rebuild the request through normal (recompute) admission.
    swap_->DropSwapSet(r.id);
    FallBackFromSwap(r);
    return SwapAdmit::kFallthrough;
  }
  const int64_t tokens = snapshot.tokens;
  JENGA_CHECK_EQ(snapshot.fingerprints.size(), managers_.size());
  bool restored = CanAllocateAll(r, tokens);
  for (size_t m = 0; restored && m < managers_.size(); ++m) {
    if (!managers_[m]->RestoreFromSwap(r, tokens, snapshot.fingerprints[m], tick_)) {
      // All managers restore together: roll back the ones already restored.
      for (size_t k = 0; k < m; ++k) {
        managers_[k]->Release(r);
      }
      r.num_computed_tokens = 0;
      restored = false;
    }
  }
  if (restored) {
    swap_->CommitSwapIn(r.id, snapshot);
    r.swapped_out = false;
    r.swapped_out_tokens = 0;
    r.state = RequestState::kRunning;
    if (r.first_scheduled_time < 0.0) {
      r.first_scheduled_time = now_;
    }
    running_.PushBack(r);
    return SwapAdmit::kAdmitted;
  }
  if (!nothing_else_runnable) {
    return SwapAdmit::kBlocked;  // Head-of-line blocking, same as the recompute path.
  }
  // Restoring would deadlock (nothing running to free memory): abandon the set and rebuild
  // the request from scratch through normal admission.
  swap_->DropSwapSet(r.id);
  FallBackFromSwap(r);
  return SwapAdmit::kFallthrough;
}

void SchedulerCore::FallBackFromSwap(Request& r) {
  r.swapped_out = false;
  metrics_.swap_fallback_events += 1;
  metrics_.recomputed_tokens += r.swapped_out_tokens;
  r.swapped_out_tokens = 0;
}

void SchedulerCore::DumpStateForDebug(std::ostream& os) const {
  os << "=== engine state dump ===\n";
  os << "now=" << now_ << " tick=" << tick_ << " running=" << running_.size()
     << " waiting=" << waiting_.size() << " finished=" << metrics_.finished().size() << "\n";
  int64_t pool_pages = 0;
  for (size_t m = 0; m < managers_.size(); ++m) {
    const KvManager::MemoryStats mem = managers_[m]->GetMemoryStats();
    os << "pool";
    if (managers_.size() > 1) {
      os << "[" << m << "]";
    }
    os << ": bytes=" << mem.pool_bytes << " used=" << mem.used_bytes
       << " needed=" << mem.needed_bytes << " cached=" << mem.cached_bytes
       << " unallocated=" << mem.unallocated_bytes << "\n";
    pool_pages += managers_[m]->allocator().lcm().num_pages();
  }
  if (swap_ != nullptr) {
    const SwapManager::Stats& s = swap_->stats();
    os << "offload: degraded=" << (swap_->degraded() ? 1 : 0)
       << " host_used=" << swap_->host().used_bytes()
       << " host_cap=" << swap_->host().capacity_bytes() << " sets=" << swap_->host().num_sets()
       << " pages=" << swap_->host().num_pages() << " swap_out=" << s.swap_out_events
       << " swap_in=" << s.swap_in_events << " retries=" << s.fault_retries
       << " backoff=" << s.backoff_time << " shrinks=" << s.host_shrinks << "\n";
  }
  if (fault_ != nullptr) {
    os << "faults:";
    for (int i = 0; i < kNumFaultSites; ++i) {
      const FaultInjector::SiteCounters& c = fault_->counters(static_cast<FaultSite>(i));
      os << " " << FaultSiteName(static_cast<FaultSite>(i)) << "=" << c.fires << "/"
         << c.consults;
    }
    os << "\n";
  }
  os << "shed: head_blocked_steps=" << head_blocked_steps_
     << " shed_requests=" << metrics_.shed_requests << "\n";
  if (step_hook_ != nullptr || metrics_.pool_grow_attempts > 0 ||
      metrics_.pool_shrink_attempts > 0 || metrics_.repartition_attempts > 0) {
    os << "elastic: pool_pages=" << pool_pages << " draining=" << (elastic_draining_ ? 1 : 0)
       << " grow=" << metrics_.pool_grow_pages << "/" << metrics_.pool_grow_attempts
       << " shrink=" << metrics_.pool_shrink_pages << "/" << metrics_.pool_shrink_attempts
       << " repart=" << metrics_.repartitions << "/" << metrics_.repartition_attempts
       << " rollbacks=" << metrics_.pool_grow_rollbacks + metrics_.pool_shrink_rollbacks +
                               metrics_.repartition_rollbacks
       << " parked=" << metrics_.elastic_parked << " eshed=" << metrics_.elastic_shed << "\n";
  }
  std::vector<RequestId> ids;
  ids.reserve(requests_.size());
  for (const auto& [id, r] : requests_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const RequestId id : ids) {
    const Request& r = requests_.at(id);
    const char* state = r.state == RequestState::kWaiting     ? "waiting"
                        : r.state == RequestState::kRunning   ? "running"
                        : r.state == RequestState::kPreempted ? "preempted"
                                                              : "finished";
    os << "  req " << id << ": state=" << state << " prompt=" << r.prompt_len()
       << " output=" << r.output_len << " computed=" << r.num_computed_tokens
       << " generated=" << r.num_generated << " preemptions=" << r.preemptions
       << " swapped_out=" << (r.swapped_out ? 1 : 0) << " cancelled=" << (r.cancelled ? 1 : 0)
       << " arrival=" << r.arrival_time << " deadline=" << r.deadline << "\n";
  }
  os << "=== end engine state dump ===\n";
}

void SchedulerCore::RunToCompletion(int64_t max_steps) {
  int64_t steps = 0;
  while (StepOnce()) {
    ++steps;
    if (steps >= max_steps) {
      // Dump everything a postmortem needs before aborting: fuzz/chaos non-convergence must
      // be debuggable from the log alone.
      DumpStateForDebug(std::cerr);
      JENGA_CHECK_LT(steps, max_steps) << "engine did not converge";
    }
  }
}

}  // namespace jenga

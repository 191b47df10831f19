// The scheduler core shared by Engine and SpecDecodeEngine (§4, §6): one request lifecycle
// over a set of KvManagers. The core owns the request table, the waiting/running queues, the
// deadline heap, cancellation / expiry / load shedding / finish, preemption (swap or
// recompute), the admission loop with swap-set re-admission and the arrival gate, the
// host-offload and fault-injection tiers, the metrics, the step hook, and the step profiler.
// An engine adds only its step policy (StepOnce) and the construction of its managers: Engine has one
// manager, SpecDecodeEngine one merged manager or a [target, draft] pair. Every core
// operation covers the whole manager set, so a request's pages in all managers move together.

#ifndef JENGA_SRC_ENGINE_SCHEDULER_CORE_H_
#define JENGA_SRC_ENGINE_SCHEDULER_CORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "src/engine/deadline_heap.h"
#include "src/engine/gpu.h"
#include "src/engine/kv_manager.h"
#include "src/engine/request.h"
#include "src/engine/request_queue.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/metrics.h"
#include "src/metrics/step_profiler.h"
#include "src/offload/swap_manager.h"

namespace jenga {

// Configuration both engines share; EngineConfig and SpecDecodeConfig extend it.
struct SchedulerConfig {
  GpuSpec gpu;
  int tokens_per_page = 16;
  // Test overrides (0 = use the GPU defaults).
  int64_t pool_bytes_override = 0;
  int max_num_seqs_override = 0;
  // Host-memory KV offload tier (disabled by default; when disabled the engine is
  // byte-identical to the tier-less build). With several managers the swap set covers every
  // manager's KV, and all managers restore together.
  OffloadConfig offload;
  // Fault injection (empty plan = disabled; the engine then constructs no injector and all
  // consult sites short-circuit, keeping behavior byte-identical to the fault-less build).
  FaultConfig fault;
  // Load-shedding admission gate: when the head of the waiting queue has been blocked for
  // this many consecutive steps while pool occupancy is at or above the watermark, fail it
  // (vLLM-style abort) instead of letting it starve behind long-running requests.
  // 0 disables the gate (default).
  int shed_after_blocked_steps = 0;
  double shed_occupancy_watermark = 0.95;
};

class SchedulerCore;

// Step-boundary hook: the attach point for the elastic memory governor (src/elastic). Called
// at the top of every StepOnce with work pending — the engine's quiesce point: no request is
// mid-step, so the hook may preempt, shed, resize the pool, repartition, or rebalance a
// manager split. Detached (nullptr, the default) costs one null test per step and keeps the
// engine byte-identical to a build without the subsystem.
class StepHook {
 public:
  virtual ~StepHook() = default;
  virtual void OnStepBoundary(SchedulerCore& core) = 0;
};

class SchedulerCore {
 public:
  virtual ~SchedulerCore() = default;
  SchedulerCore(const SchedulerCore&) = delete;
  SchedulerCore& operator=(const SchedulerCore&) = delete;

  // Enqueues a request (arrival_time may be in the future; it is not scheduled before it).
  void Submit(Request request);

  // Executes one scheduler step; returns false when no work remains.
  virtual bool StepOnce() = 0;

  // Runs until every submitted request finished (or `max_steps` as a runaway guard).
  void RunToCompletion(int64_t max_steps = 2000000);

  // Aborts a request in any state — waiting, running, preempted, or swapped out to the host
  // tier — with full resource reclamation (pages in every manager, allocator affinity state,
  // host swap-set bytes). Safe at any point between steps. Returns false when the id is
  // unknown or the request already finished.
  bool CancelRequest(RequestId id);

  // Ids of every unfinished request in deterministic scheduler order (running queue first,
  // then waiting) — the harvest order a fleet driver re-routes work in on replica death.
  [[nodiscard]] std::vector<RequestId> ActiveRequests() const;

  // Writes a human-readable state dump (queues, pool occupancy, per-request progress, fault
  // counters) — the non-convergence diagnostic, also handy from test failures.
  void DumpStateForDebug(std::ostream& os) const;

  // Pressure-ladder rung 1: preempts the newest running request (parking its KV to the host
  // tier when the swap crossover accepts it). Refuses to park the only runner. Returns true
  // if a request was preempted.
  bool ParkNewestRunning();
  // Pressure-ladder rung 2: sheds (fails) the oldest arrived waiting request.
  bool ShedOldestWaiting();

  [[nodiscard]] double now() const { return now_; }
  // The engine's own counters. Counters of the host tier, the fault injector and the
  // governor stay with their owners: swap()->stats(), fault_injector()->total_fires(),
  // MemoryGovernor::stats().
  [[nodiscard]] const EngineMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const Request& request(RequestId id) const;
  [[nodiscard]] int num_running() const { return static_cast<int>(running_.size()); }
  [[nodiscard]] int num_waiting() const { return static_cast<int>(waiting_.size()); }
  [[nodiscard]] int num_managers() const { return static_cast<int>(managers_.size()); }
  [[nodiscard]] const KvManager& manager(int i) const { return *managers_[static_cast<size_t>(i)]; }
  // Mutable access for the audit layer (tests only).
  [[nodiscard]] KvManager& manager_mutable(int i) { return *managers_[static_cast<size_t>(i)]; }
  // Occupancy of one manager's pool in [0, 1]: 1 − unallocated/pool (0 on an empty pool).
  // O(1): the governor probes it on every non-cooldown step.
  [[nodiscard]] double PoolOccupancyOf(int manager_index) const {
    return manager(manager_index).allocator().Occupancy();
  }
  // nullptr when the offload tier is disabled.
  [[nodiscard]] const SwapManager* swap() const { return swap_.get(); }
  // Mutable access for the audit layer (tests only); nullptr when the tier is disabled.
  [[nodiscard]] SwapManager* swap_mutable() { return swap_.get(); }
  // nullptr when no faults are configured.
  [[nodiscard]] const FaultInjector* fault_injector() const { return fault_.get(); }

  // Installs/removes the step-boundary hook (nullptr detaches; detached = byte-identical).
  void set_step_hook(StepHook* hook) { step_hook_ = hook; }
  // Installs/removes the per-phase step profiler (nullptr detaches; detached = one null test
  // per phase scope). The profiler reads only the host wall clock — attaching it never
  // touches logical ticks or simulated time, so scheduling stays byte-identical (§12).
  void set_step_profiler(StepProfiler* profiler) { prof_ = profiler; }
  // Advertised to the fleet router while a repartition/drain is in flight: a draining
  // replica routes like a saturated one (DecideRoute spills around it).
  void set_elastic_draining(bool draining) { elastic_draining_ = draining; }
  [[nodiscard]] bool elastic_draining() const { return elastic_draining_; }

 protected:
  // Builds the host-offload tier (recompute cost `flops_per_token`) and the fault injector
  // from `config`; managers join later through AddManager.
  SchedulerCore(const SchedulerConfig& config, int max_batched_tokens, double flops_per_token);

  // Appends a manager to the set and attaches it to the host tier under its set index.
  void AddManager(std::unique_ptr<KvManager> manager);
  // Replaces manager `index` (a repartition commit) and re-attaches the host tier.
  void ReplaceManager(int index, std::unique_ptr<KvManager> manager);

  // Deterministic pseudo-token for generated output (ids live above the prompt vocabulary so
  // that decode blocks of different requests never alias by accident).
  [[nodiscard]] static int32_t PseudoToken(RequestId id, int64_t position);

  // Shared top of every step, after the caller's "no work" check and profiler StepScope: the
  // step hook, deadline expiry, the host memory-pressure site, the idle fast-forward to the
  // next arrival, and the tick. Returns false when the hook drained the last pending work.
  [[nodiscard]] bool BeginStep();
  // Nothing was schedulable this step: jump to the earliest waiting arrival still in the
  // future, if there is one.
  void AdvanceToNextArrival() { now_ = std::max(now_, NextArrivalAfter(now_)); }

  // Advances simulated time by a step's compute plus the PCIe transfer time it cannot hide.
  void AdvanceClock(double compute_time);

  // Operations over the whole manager set, in set order. On an allocation failure, pages
  // taken by earlier managers stay with the request; the caller resolves it by preempting or
  // releasing (which covers every manager).
  [[nodiscard]] bool AllocateAll(Request& r, int64_t tokens);
  void ReleaseAll(Request& r, bool finished = false);
  void StepComputedAll(Request& r);

  // Allocates `tokens` more for the running request `r` in every manager, preempting from
  // the back of the running queue until it fits. Returns false when `r` itself was preempted
  // (every request after it already was, back-first), or failed because it does not fit
  // even with nothing else running.
  [[nodiscard]] bool AllocateOrPreempt(Request& r, int64_t tokens);

  // The admission phase of a step, shared by both engines: FCFS over the arrived head of the
  // waiting queue while `budget` tokens and a max_num_seqs slot remain. Each head is admitted
  // through AdmitHead with a first chunk toward `prefill_target(r)`. `on_admit(r, n)` runs
  // before the next head is tried, since an inline prefill commit can drop pages the next
  // head's fit check sees: `n` is the chunk's token count, or 0 for a swap-set restore that
  // computes nothing this step. A head that cannot fit blocks the rest (head-of-line
  // blocking) and counts toward the shed gate.
  template <typename PrefillTarget, typename OnAdmit>
  void AdmitArrived(int64_t budget, PrefillTarget prefill_target, OnAdmit on_admit) {
    bool head_blocked = false;
    while (budget > 0 && num_running() < max_num_seqs_ && !waiting_.empty()) {
      Request& r = *waiting_.front();
      if (r.arrival_time > now_) {
        break;  // Future arrival, not memory pressure: never counts toward the shed gate.
      }
      int64_t n = 0;
      const Admission admission = AdmitHead(r, prefill_target(r), budget, &n);
      if (admission == Admission::kBlocked) {
        head_blocked = true;
        break;
      }
      if (admission == Admission::kFailed) {
        continue;
      }
      on_admit(r, n);
      budget -= n;
    }
    MaybeShedHead(head_blocked);
  }

  // Returns a running request to the front of the waiting queue, parking its KV to the host
  // tier when the swap crossover accepts it. `allow_swap` false forces the recompute path
  // (repartition quiesce: swap-set fingerprints would bind the request to the old layout).
  void Preempt(Request& r, bool allow_swap = true);
  void FinishRequest(Request& r, bool failed);

  // Abandons `r`'s swap set: it re-admits through recompute, and the ledger counts the
  // fallback and the tokens to recompute.
  void FallBackFromSwap(Request& r);

  // Consults a pool-transition fault site before any mutation. A fire rolls the transition
  // back with zero net change and counts it in `*rollbacks`; returns true on a fire.
  [[nodiscard]] bool TransitionFaultFired(FaultSite site, int64_t* rollbacks);

  std::vector<std::unique_ptr<KvManager>> managers_;
  std::unique_ptr<SwapManager> swap_;
  std::unique_ptr<FaultInjector> fault_;  // nullptr when no faults are configured.
  StepProfiler* prof_ = nullptr;          // Not owned; nullptr = no profiler attached.
  int max_batched_tokens_ = 0;
  int max_num_seqs_ = 0;

  std::unordered_map<RequestId, Request> requests_;
  // Indexed FIFOs: same iteration order as a deque/vector, but preempt, cancel, and finish
  // remove mid-queue entries in O(1) instead of a std::find scan.
  RequestQueue waiting_;
  RequestQueue running_;

  double now_ = 0.0;
  Tick tick_ = 0;
  EngineMetrics metrics_;

 private:
  // Outcome of admitting the (arrived) head of the waiting queue.
  enum class Admission {
    // Moved to running_. Either the hit scan is done and a first chunk of `*chunk` tokens is
    // allocated, not yet computed, or the swap set was restored in every manager and
    // `*chunk` is 0: nothing to compute this step.
    kAdmitted,
    kFailed,    // Can never fit (nothing else runnable to free memory): finished as failed.
    kBlocked,   // Cannot fit right now: head-of-line blocking, stop admitting.
  };
  // Admits `r` from its swap set when it has a usable one, else through recompute with a first
  // chunk of up to `budget` tokens toward `prefill_target`. Moves it to running_ on success.
  // With nothing running, a head that cannot fit never will, and is failed.
  [[nodiscard]] Admission AdmitHead(Request& r, int64_t prefill_target, int64_t budget,
                                    int64_t* chunk);
  // Closes a step's admission phase: a head that stayed blocked counts toward the shed gate,
  // which sheds it once the gate trips. Inlined disabled path — configs without a shed gate
  // never reach the occupancy probe.
  void MaybeShedHead(bool head_blocked) {
    if (!head_blocked) {
      head_blocked_steps_ = 0;
      return;
    }
    head_blocked_steps_ += 1;
    StepProfiler::Scope prof_shed(prof_, StepPhase::kShedGate);
    if (shed_after_blocked_steps_ > 0 && head_blocked_steps_ >= shed_after_blocked_steps_ &&
        !waiting_.empty()) {
      MaybeShedHeadSlow();
    }
  }
  // Cancels every unfinished request whose deadline has passed (same path as CancelRequest).
  // O(1) when nothing expired (deadline-heap top check), O(log n) per single expiry; a step
  // that expires several requests at once re-collects them in queue order so the cancel
  // order — and every downstream release/eviction tie-break — matches the full queue scan.
  void ExpireDeadlines();
  // JENGA_CHECK_DEADLINES fuzz arm: verifies the heap-collected expired set (already in
  // expired_buf_) against the brute-force queue scan.
  void CheckDeadlineHeapAgainstScan();
  // Outcome of a swap-set re-admission attempt for the head of the waiting queue.
  enum class SwapAdmit {
    kFallthrough,  // No usable swap set: take the normal (recompute) admission path.
    kAdmitted,     // Restored in every manager and moved to running_.
    kBlocked,      // Cannot restore right now: head-of-line blocking, stop admitting.
  };
  [[nodiscard]] SwapAdmit TryAdmitFromSwap(Request& r, bool nothing_else_runnable);
  [[nodiscard]] bool CanAllocateAll(const Request& r, int64_t tokens) const;
  // Admission hit scan in every manager; the granted prefix hit joins the cache-hit ledger.
  void AdmitAll(Request& r);
  // Appends every queued request whose deadline has passed, in queue order (waiting first,
  // then running).
  void ScanExpired(std::vector<RequestId>* out) const;
  // Earliest arrival among waiting requests later than `t` (-1 when there is none).
  [[nodiscard]] double NextArrivalAfter(double t) const;
  void MaybeShedHeadSlow();
  // Finishes `r` — already unlinked from its queue and holding no manager pages — as
  // cancelled (failed).
  void RetireCancelled(Request& r);

  StepHook* step_hook_ = nullptr;  // Not owned; nullptr = no governor attached.
  int shed_after_blocked_steps_ = 0;
  int head_blocked_steps_ = 0;
  double shed_occupancy_watermark_ = 0.95;
  bool has_deadlines_ = false;
  bool elastic_draining_ = false;
  // One entry per submitted request with a deadline (deadlines are immutable, so preempt and
  // re-admit need no updates); entries of requests that finish early are discarded lazily.
  DeadlineHeap deadlines_;
  // Scratch for ExpireDeadlines (cleared each use; capacity reused).
  std::vector<RequestId> expired_buf_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_SCHEDULER_CORE_H_

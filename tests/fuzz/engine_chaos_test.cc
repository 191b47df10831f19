// Chaos tier: the seeded fuzzer with the fault-injection layer armed (ISSUE 4 tentpole).
//
// Each chaos case starts from the same seed-derived schedule as engine_fuzz_test, then layers
// on a randomized fault plan (PCIe transfer errors and timeouts, host-pool allocation
// failures and forced shrinks, GPU step faults, elastic pool_grow/pool_shrink_drain/
// repartition_commit sites), per-request deadlines, mid-run CancelRequest events at fixed
// step indices, (sometimes) the admission shed gate, and (sometimes, ISSUE 9) an elastic arm:
// a net-zero transient pool resize, a mid-run repartition, and a pressure governor on Engine
// combinations, or a reversed draft/target split shift on manual-split spec combinations.
// The oracle checks what must survive arbitrary injected failure:
//
//   - the AllocatorAuditor stays green after every step — no recovery path may leak or
//     double-book a page, on any allocator or on the host pool;
//   - the run converges and every submitted request finishes exactly once — faults may slow
//     requests down or fail them, never wedge or duplicate them — including across every
//     repartition (quiesced requests re-admit, none are lost or aborted);
//   - the resize ledger balances after every step: pool_grow_pages - pool_shrink_pages
//     equals the actual pool-page delta within each repartition epoch (a committed
//     repartition rebuilds the pool and starts a fresh epoch);
//   - cancelled records are also failed records, and the cancellation ledger balances:
//     cancelled_requests == successful explicit cancels + shed_requests +
//     deadline_expirations;
//   - degradation is one-way and clean: the host tier's degraded_transitions <= 1, and a degraded
//     engine has fully drained its host pool (zero bytes, zero swap sets);
//   - fault/recovery counters are monotone and mutually consistent, and identically zero
//     when the drawn plan arms nothing;
//   - a second run of the same schedule (same fault seed) produces a byte-identical outcome
//     signature including all fault counters — the chaos determinism differential.
//
// On failure the test prints the seed, a minimized schedule (cancel events are remapped as
// requests are dropped), and a one-line repro command. Env overrides:
//   JENGA_CHAOS_SCHEDULES=<n>  schedules per engine/tier combination (default 200)
//   JENGA_FUZZ_SEED=<seed>     run exactly one schedule from this seed
//   JENGA_FAULT_PLAN=<plan>    replace the drawn fault plan (see FaultPlan::Parse)
//   JENGA_FAULT_SEED=<seed>    replace the drawn fault seed
//   JENGA_CHAOS_ELASTIC=1      arm the elastic events on every schedule (pressure-chaos
//                              stage; also required when replaying a seed drawn under it)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/elastic/memory_governor.h"
#include "src/fault/fault_injector.h"
#include "tests/fuzz/fuzz_harness.h"

namespace jenga {
namespace {

// Arm the deadline-heap cross-check for every schedule (chaos schedules put deadlines on
// ~half their requests, including same-step multi-expiry — the heap's rescan fallback).
// Must run before main: the enable flag latches on the first engine step.
const bool g_arm_deadline_audit = [] {
  setenv("JENGA_CHECK_DEADLINES", "1", /*overwrite=*/0);
  return true;
}();

// ---------------------------------------------------------------------------------------
// Chaos schedule: base schedule + fault plan + deadlines + cancels + shed gate.

FuzzSchedule DrawChaosSchedule(uint64_t seed, bool spec_engine, bool offload) {
  FuzzSchedule s = DrawFuzzSchedule(seed, spec_engine, offload);
  // A separate stream so the base schedule stays identical to the plain fuzz tier's.
  Rng rng(seed ^ 0xC4A0C4A0C4A0ull);
  rng.NextU64();

  std::ostringstream plan;
  const auto arm = [&plan](const char* entry) {
    if (plan.tellp() > 0) {
      plan << ",";
    }
    plan << entry;
  };
  char buf[64];
  if (offload) {
    if (rng.Bernoulli(0.5)) {
      std::snprintf(buf, sizeof(buf), "pcie_d2h:p=%.3f", rng.UniformDouble(0.02, 0.3));
      arm(buf);
    }
    if (rng.Bernoulli(0.5)) {
      std::snprintf(buf, sizeof(buf), "pcie_h2d:p=%.3f", rng.UniformDouble(0.02, 0.3));
      arm(buf);
    }
    if (rng.Bernoulli(0.3)) {
      std::snprintf(buf, sizeof(buf), "pcie_timeout:p=%.3f", rng.UniformDouble(0.02, 0.15));
      arm(buf);
    }
    if (rng.Bernoulli(0.4)) {
      std::snprintf(buf, sizeof(buf), "host_alloc:p=%.3f", rng.UniformDouble(0.05, 0.5));
      arm(buf);
    }
    if (rng.Bernoulli(0.25)) {
      std::snprintf(buf, sizeof(buf), "host_shrink:every=%d",
                    static_cast<int>(rng.UniformInt(16, 64)));
      arm(buf);
    }
  }
  if (rng.Bernoulli(0.5)) {
    // Keep the per-step fire rate low enough that expected forward progress stays positive;
    // a fired step fault voids that step's decode commit, so p near 1 would never converge.
    std::snprintf(buf, sizeof(buf), "gpu_step:p=%.3f", rng.UniformDouble(0.02, 0.2));
    arm(buf);
  }

  // Elastic arm (ISSUE 9). The Bernoulli is drawn unconditionally so forcing the arm via
  // JENGA_CHAOS_ELASTIC=1 (the check.sh pressure-chaos stage) keeps the rest of the stream —
  // and therefore seed replay under the same env — byte-identical.
  const bool draw_elastic = rng.Bernoulli(0.5);
  if (draw_elastic || FuzzEnvInt("JENGA_CHAOS_ELASTIC", 0) != 0) {
    FuzzElasticSpec& e = s.elastic;
    if (!spec_engine) {
      e.armed = true;
      e.delta_pages = static_cast<int32_t>(rng.UniformInt(1, 6));
      e.grow_step = static_cast<int>(rng.UniformInt(0, 60));
      e.shrink_step = e.grow_step + static_cast<int>(rng.UniformInt(1, 40));
      if (rng.Bernoulli(0.5)) {
        e.repartition_step = static_cast<int>(rng.UniformInt(0, 80));
      }
      if (rng.Bernoulli(0.5)) {
        e.governor = true;
        e.high_watermark = rng.UniformDouble(0.70, 0.95);
        e.low_watermark = e.high_watermark - rng.UniformDouble(0.10, 0.30);
        e.cooldown_steps = static_cast<int>(rng.UniformInt(0, 8));
      }
    } else if (s.strategy == SpecStrategy::kVllmManual) {
      e.armed = true;
      e.shift_from = static_cast<int>(rng.UniformInt(0, 1));
      e.shift_step = static_cast<int>(rng.UniformInt(0, 60));
      e.shift_back_step = e.shift_step + static_cast<int>(rng.UniformInt(1, 40));
      // Integer page-size rounding can leave the reversed shift a page short on either
      // pool; double the fit-alone sizing so the residual can never wedge the run.
      s.pool_bytes *= 2;
    }
    if (e.armed) {
      // Arm the transition sites so a fair share of the driven resizes/repartitions roll
      // back; the sites sit before any mutation, so a fire means "nothing changed".
      std::snprintf(buf, sizeof(buf), "pool_grow:p=%.3f", rng.UniformDouble(0.05, 0.3));
      arm(buf);
      std::snprintf(buf, sizeof(buf), "pool_shrink_drain:p=%.3f",
                    rng.UniformDouble(0.05, 0.3));
      arm(buf);
      std::snprintf(buf, sizeof(buf), "repartition_commit:p=%.3f",
                    rng.UniformDouble(0.1, 0.5));
      arm(buf);
    }
  }
  JENGA_CHECK(FaultPlan::Parse(plan.str(), &s.fault_plan).ok());
  s.fault_seed = rng.NextU64() | 1;

  if (rng.Bernoulli(0.3)) {
    s.shed_after_blocked_steps = static_cast<int>(rng.UniformInt(4, 16));
    s.shed_occupancy_watermark = rng.UniformDouble(0.5, 0.95);
  }
  for (FuzzRequestSpec& r : s.requests) {
    if (rng.Bernoulli(0.15)) {
      // Half near-immediate (exercises expiry in every state), half generous.
      r.deadline = rng.Bernoulli(0.5) ? rng.UniformDouble(0.0, 0.01)
                                      : rng.UniformDouble(0.05, 1.0);
    }
  }
  const int num_cancels = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < num_cancels; ++i) {
    FuzzCancelSpec c;
    c.step = static_cast<int>(rng.UniformInt(0, 200));
    c.request_index = static_cast<int>(rng.UniformInt(
        0, static_cast<int64_t>(s.requests.size()) - 1));
    s.cancels.push_back(c);
  }

  // Operator replay overrides (same env contract as the engine's own FaultConfigFromEnv).
  if (const char* env_plan = std::getenv("JENGA_FAULT_PLAN")) {
    FaultPlan parsed;
    JENGA_CHECK(FaultPlan::Parse(env_plan, &parsed).ok()) << env_plan;
    s.fault_plan = parsed;
  }
  if (const char* env_seed = std::getenv("JENGA_FAULT_SEED")) {
    s.fault_seed = std::strtoull(env_seed, nullptr, 0);
  }
  return s;
}

// ---------------------------------------------------------------------------------------
// Chaos oracle

struct ChaosCounters {
  int64_t faults = 0;
  int64_t retries = 0;
  int64_t gpu_faults = 0;
  int64_t shed = 0;
  int64_t cancelled = 0;
  int64_t deadlines = 0;
  int64_t degraded = 0;
  double backoff = 0.0;
};

// Reads each counter from its owner: the injector, the host tier, or the engine's metrics.
ChaosCounters SnapshotCounters(const FuzzHarness& harness) {
  const EngineMetrics& m = harness.Metrics();
  const SwapManager::Stats swap = SwapStats(harness.Core());
  return ChaosCounters{FaultsInjected(harness.Core()), swap.fault_retries, m.gpu_step_faults,
                       m.shed_requests,    m.cancelled_requests,  m.deadline_expirations,
                       swap.degraded_transitions, swap.backoff_time};
}

// Runs one chaos schedule to completion (auditing every step when asked), applying the
// schedule's cancel events at their step indices. Returns the first violation (empty string
// = green); appends the outcome signature — including fault counters — to `signature`, and
// the total injector fires to `*fires` (both optional).
std::string RunChaosSchedule(const FuzzSchedule& s, bool with_audit, std::string* signature,
                             int64_t* fires) {
  std::unique_ptr<FuzzHarness> harness = MakeFuzzHarness(s);
  AllocatorAuditor auditor;
  if (with_audit) {
    harness->AttachAudit(&auditor);
    const auto seeded = auditor.Audit();
    if (!seeded.empty()) {
      return "auditor not green after attach: " + seeded.front();
    }
  }

  // --- Elastic chaos wiring (no-ops when the arm is off) ---
  Engine* elastic_engine = s.elastic.armed ? harness->ElasticEngine() : nullptr;
  SpecDecodeEngine* elastic_spec = s.elastic.armed ? harness->ElasticSpecEngine() : nullptr;
  std::unique_ptr<MemoryGovernor> governor;
  if (s.elastic.governor && elastic_engine != nullptr) {
    GovernorConfig gc;
    gc.high_watermark = s.elastic.high_watermark;
    gc.low_watermark = s.elastic.low_watermark;
    gc.cooldown_steps = s.elastic.cooldown_steps;
    governor = std::make_unique<MemoryGovernor>(gc);
    governor->AttachTo(*elastic_engine);
  }
  int32_t outstanding_grow = 0;  // Pages grown but not yet shrunk back (net-zero invariant).
  int64_t shifted_bytes = 0;     // Spec split bytes moved but not yet reversed.
  // Resize-ledger baseline for the current repartition epoch: within an epoch,
  // pool_grow_pages - pool_shrink_pages must track the actual pool-page delta exactly.
  int64_t ledger_base = 0;
  int32_t pages_base = elastic_engine != nullptr ? elastic_engine->PoolPages() : 0;

  const int n = static_cast<int>(s.requests.size());
  int64_t explicit_cancels = 0;
  ChaosCounters prev;
  int64_t steps = 0;
  // Faults stretch runs (voided steps, retry backoff), so the budget is higher than the
  // plain fuzz tier's.
  const int64_t max_steps = 60000;
  for (;;) {
    // Cancel events fire *before* the step with their index, so index 0 cancels a request
    // that has never been scheduled. Fixed step indices keep the differential deterministic.
    for (const FuzzCancelSpec& c : s.cancels) {
      if (c.step == steps && c.request_index < n) {
        explicit_cancels += harness->Cancel(static_cast<RequestId>(c.request_index)) ? 1 : 0;
      }
    }
    // Elastic events fire between steps at fixed indices, like cancels. The repartition is
    // driven here (not by the governor) so the auditor can let go of the allocator the
    // rebuild destroys and re-seed from the committed (or surviving) layout.
    if (elastic_engine != nullptr) {
      if (steps == s.elastic.repartition_step) {
        if (with_audit) {
          auditor.DetachAll();
        }
        const bool committed =
            elastic_engine->RepartitionKvPool(elastic_engine->config().model, s.pool_bytes);
        if (with_audit) {
          harness->AttachAudit(&auditor);
          const auto reseeded = auditor.Audit();
          if (!reseeded.empty()) {
            return std::string("auditor not green after repartition ") +
                   (committed ? "commit" : "rollback") + ": " + reseeded.front();
          }
        }
        if (committed) {
          outstanding_grow = 0;  // The rebuilt pool is back at the schedule's sizing.
        }
        const EngineMetrics& em = harness->Metrics();
        ledger_base = em.pool_grow_pages - em.pool_shrink_pages;
        pages_base = elastic_engine->PoolPages();
      }
      if (steps == s.elastic.grow_step) {
        outstanding_grow = elastic_engine->GrowKvPool(s.elastic.delta_pages);
      }
      if (steps >= s.elastic.shrink_step && outstanding_grow > 0) {
        // Retry until the transient pages drain back out (the tail may be pinned, and the
        // pool_shrink_drain site may roll an attempt back): the pool never ends smaller
        // than the fit-alone sizing.
        outstanding_grow -= elastic_engine->ShrinkKvPool(outstanding_grow);
      }
    }
    if (elastic_spec != nullptr && s.elastic.shift_step >= 0) {
      if (steps == s.elastic.shift_step) {
        // bytes=1 asks for one donor page (ShiftSplit rounds the ask up to a whole page).
        shifted_bytes =
            elastic_spec->ShiftSplit(s.elastic.shift_from, 1 - s.elastic.shift_from, 1);
      }
      if (steps == s.elastic.shift_back_step && shifted_bytes > 0) {
        elastic_spec->ShiftSplit(1 - s.elastic.shift_from, s.elastic.shift_from,
                                 shifted_bytes);
        shifted_bytes = 0;  // Single reversal; the doubled pool absorbs any residual.
      }
    }
    if (!harness->Step()) {
      break;
    }
    ++steps;
    if (steps > max_steps) {
      return "chaos schedule did not converge within " + std::to_string(max_steps) + " steps";
    }
    if (with_audit) {
      const auto violations = auditor.Audit();
      if (!violations.empty()) {
        std::string out = "auditor violation at step " + std::to_string(steps) + ": ";
        for (size_t i = 0; i < std::min<size_t>(violations.size(), 3); ++i) {
          out += "\n  " + violations[i];
        }
        return out;
      }
    }
    const ChaosCounters now = SnapshotCounters(*harness);
    if (now.faults < prev.faults || now.retries < prev.retries ||
        now.gpu_faults < prev.gpu_faults || now.shed < prev.shed ||
        now.cancelled < prev.cancelled || now.deadlines < prev.deadlines ||
        now.degraded < prev.degraded || now.backoff < prev.backoff) {
      return "fault counter decreased at step " + std::to_string(steps);
    }
    prev = now;
    if (elastic_engine != nullptr) {
      // Resize-ledger conservation, checked after every step: booked page deltas must equal
      // the actual pool-page delta within the current repartition epoch. (Spec combinations
      // book grow/shrink pages in per-pool page units, so the summed identity only holds on
      // the single-pool engine; the exact spec identities live in elastic_resize_test.)
      const EngineMetrics& em = harness->Metrics();
      if (em.pool_grow_pages - em.pool_shrink_pages - ledger_base !=
          elastic_engine->PoolPages() - pages_base) {
        return "resize ledger imbalance at step " + std::to_string(steps) + ": booked " +
               std::to_string(em.pool_grow_pages - em.pool_shrink_pages - ledger_base) +
               " vs actual " + std::to_string(elastic_engine->PoolPages() - pages_base);
      }
    }
  }

  // ----- End-of-run oracle -----
  const EngineMetrics& m = harness->Metrics();
  const ChaosCounters c = SnapshotCounters(*harness);
  const SwapManager::Stats swap_stats = SwapStats(harness->Core());
  if (static_cast<int>(m.finished().size()) != n) {
    return "finished " + std::to_string(m.finished().size()) + " of " + std::to_string(n) +
           " submitted requests";
  }
  std::vector<int> seen(static_cast<size_t>(n), 0);
  int64_t cancelled_records = 0;
  for (const RequestRecord& record : m.finished()) {
    if (record.id < 0 || record.id >= n) {
      return "finished record with unknown id " + std::to_string(record.id);
    }
    seen[static_cast<size_t>(record.id)] += 1;
    const std::string tag = " (req " + std::to_string(record.id) + ")";
    if (record.cancelled && !record.failed) {
      return "cancelled record not marked failed" + tag;
    }
    cancelled_records += record.cancelled ? 1 : 0;
    const FuzzRequestSpec& rs = s.requests[static_cast<size_t>(record.id)];
    if (!record.failed && record.output_len != rs.output_len) {
      return "completed with output " + std::to_string(record.output_len) + " != requested " +
             std::to_string(rs.output_len) + tag;
    }
  }
  for (int i = 0; i < n; ++i) {
    if (seen[static_cast<size_t>(i)] != 1) {
      return "request " + std::to_string(i) + " finished " +
             std::to_string(seen[static_cast<size_t>(i)]) + " times";
    }
  }
  // The cancellation ledger must balance exactly: every cancellation is an explicit
  // CancelRequest that returned true, a shed, or a deadline expiry — nothing else.
  if (c.cancelled != explicit_cancels + c.shed + c.deadlines) {
    return "cancellation ledger imbalance: cancelled_requests=" + std::to_string(c.cancelled) +
           " explicit=" + std::to_string(explicit_cancels) + " shed=" + std::to_string(c.shed) +
           " deadline=" + std::to_string(c.deadlines);
  }
  if (cancelled_records != c.cancelled) {
    return "cancelled record count " + std::to_string(cancelled_records) +
           " != cancelled_requests counter " + std::to_string(c.cancelled);
  }
  if (s.fault_plan.empty() &&
      (c.faults != 0 || c.retries != 0 || c.gpu_faults != 0 || c.degraded != 0 ||
       c.backoff != 0.0)) {
    return "fault counters nonzero with an empty fault plan";
  }
  // The governor's ladder sheds through the same counter as the admission gate, so the
  // zero-when-disabled check only applies when neither mechanism is armed.
  const bool governor_armed = s.elastic.armed && s.elastic.governor && !s.spec_engine;
  if (s.shed_after_blocked_steps <= 0 && !governor_armed && c.shed != 0) {
    return "shed_requests nonzero with the shed gate disabled";
  }
  if (!s.elastic.armed &&
      (m.pool_grow_attempts != 0 || m.pool_shrink_attempts != 0 ||
       m.repartition_attempts != 0 || m.elastic_parked != 0 || m.elastic_shed != 0)) {
    return "elastic counters nonzero with the elastic arm disabled";
  }
  if (m.repartition_attempts != m.repartitions + m.repartition_rollbacks) {
    return "repartition ledger imbalance: attempts=" + std::to_string(m.repartition_attempts) +
           " commits=" + std::to_string(m.repartitions) +
           " rollbacks=" + std::to_string(m.repartition_rollbacks);
  }
  if (c.degraded > 1) {
    return "degraded more than once (transitions=" + std::to_string(c.degraded) + ")";
  }
  const SwapManager* swap = harness->Swap();
  if (swap != nullptr && swap->degraded()) {
    if (c.degraded != 1) {
      return "engine degraded but degraded_transitions=" + std::to_string(c.degraded);
    }
    if (swap->host().used_bytes() != 0 || swap->host().num_sets() != 0) {
      return "degraded engine left host pool populated (" +
             std::to_string(swap->host().used_bytes()) + " bytes, " +
             std::to_string(swap->host().num_sets()) + " sets)";
    }
  }
  if (!s.offload && (swap_stats.swap_out_events != 0 || swap_stats.stall_time != 0.0)) {
    return "swap activity with the offload tier disabled";
  }

  if (fires != nullptr) {
    *fires += c.faults;
  }
  if (signature != nullptr) {
    int64_t ladder = 0;  // Rungs the governor stepped onto.
    if (governor != nullptr) {
      const MemoryGovernor::Stats& g = governor->stats();
      ladder = g.engagements + g.escalations + g.split_shifts;
    }
    std::ostringstream sig;
    for (const RequestRecord& record : m.finished()) {
      char times[128];
      std::snprintf(times, sizeof(times), "%.12g/%.12g/%.12g/%.12g", record.arrival_time,
                    record.first_scheduled_time, record.first_token_time, record.finish_time);
      sig << record.id << ":" << record.prompt_len << ":" << record.output_len << ":"
          << record.cached_prefix_tokens << ":" << record.preemptions << ":" << record.failed
          << ":" << record.cancelled << ":" << times << "\n";
    }
    char backoff[32];
    std::snprintf(backoff, sizeof(backoff), "%.12g", c.backoff);
    sig << "faults=" << c.faults << " retries=" << c.retries << " gpu=" << c.gpu_faults
        << " shed=" << c.shed << " cancelled=" << c.cancelled << " deadline=" << c.deadlines
        << " degraded=" << c.degraded << " backoff=" << backoff
        << " recomputed=" << m.recomputed_tokens << " swap=" << swap_stats.swap_out_events
        << "/" << swap_stats.swap_in_events << "/" << m.swap_fallback_events << "\n";
    sig << "elastic grow=" << m.pool_grow_attempts << "/" << m.pool_grow_pages << "/"
        << m.pool_grow_rollbacks << " shrink=" << m.pool_shrink_attempts << "/"
        << m.pool_shrink_pages << "/" << m.pool_shrink_rollbacks
        << " repartition=" << m.repartition_attempts << "/" << m.repartitions << "/"
        << m.repartition_rollbacks << " parked=" << m.elastic_parked
        << " eshed=" << m.elastic_shed << " ladder=" << ladder << "\n";
    *signature += sig.str();
  }
  return std::string();
}

// Audited run + chaos determinism differential (second, unaudited run must match, fault
// counters included).
std::string CheckChaosSchedule(const FuzzSchedule& s, int64_t* fires = nullptr) {
  std::string sig_a;
  std::string failure = RunChaosSchedule(s, /*with_audit=*/true, &sig_a, fires);
  if (!failure.empty()) {
    return failure;
  }
  std::string sig_b;
  failure = RunChaosSchedule(s, /*with_audit=*/false, &sig_b, nullptr);
  if (!failure.empty()) {
    return failure + " (second, unaudited run)";
  }
  if (sig_a != sig_b) {
    return "nondeterministic chaos outcome:\n--- audited run ---\n" + sig_a +
           "--- unaudited run ---\n" + sig_b;
  }
  return std::string();
}

// Greedy minimization. Dropping request i remaps cancel events: events aimed at i are
// removed, indices above i shift down. Also tries dropping cancel events and shrinking
// request lengths.
FuzzSchedule MinimizeChaosSchedule(FuzzSchedule s) {
  bool shrunk = true;
  int budget = 96;
  while (shrunk && budget > 0) {
    shrunk = false;
    for (size_t i = 0; i < s.requests.size() && s.requests.size() > 1 && budget > 0; ++i) {
      FuzzSchedule candidate = s;
      candidate.requests.erase(candidate.requests.begin() + static_cast<int64_t>(i));
      std::vector<FuzzCancelSpec> remapped;
      for (FuzzCancelSpec c : candidate.cancels) {
        if (c.request_index == static_cast<int>(i)) {
          continue;
        }
        if (c.request_index > static_cast<int>(i)) {
          c.request_index -= 1;
        }
        remapped.push_back(c);
      }
      candidate.cancels = std::move(remapped);
      --budget;
      if (!CheckChaosSchedule(candidate).empty()) {
        s = candidate;
        shrunk = true;
        break;
      }
    }
    for (size_t i = 0; i < s.cancels.size() && budget > 0; ++i) {
      FuzzSchedule candidate = s;
      candidate.cancels.erase(candidate.cancels.begin() + static_cast<int64_t>(i));
      --budget;
      if (!CheckChaosSchedule(candidate).empty()) {
        s = candidate;
        shrunk = true;
        break;
      }
    }
    for (size_t i = 0; i < s.requests.size() && budget > 0; ++i) {
      FuzzSchedule candidate = s;
      FuzzRequestSpec& r = candidate.requests[i];
      if (r.prompt_len < 32 && r.output_len < 4) {
        continue;
      }
      r.prompt_len = std::max<int64_t>(16, r.prompt_len / 2);
      r.output_len = std::max<int64_t>(2, r.output_len / 2);
      --budget;
      if (!CheckChaosSchedule(candidate).empty()) {
        s = candidate;
        shrunk = true;
        break;
      }
    }
  }
  return s;
}

void RunChaosCombination(bool spec_engine, bool offload, uint64_t seed_base) {
  const std::optional<uint64_t> forced_seed = FuzzEnvSeed();
  const int64_t schedules = forced_seed ? 1 : FuzzEnvInt("JENGA_CHAOS_SCHEDULES", 200);
  int64_t total_fires = 0;
  for (int64_t i = 0; i < schedules; ++i) {
    const uint64_t seed = forced_seed ? *forced_seed : seed_base + static_cast<uint64_t>(i);
    const FuzzSchedule schedule = DrawChaosSchedule(seed, spec_engine, offload);
    if (forced_seed) {
      std::fprintf(stderr, "replaying chaos schedule:\n%s",
                   DescribeFuzzSchedule(schedule).c_str());
    }
    const std::string failure = CheckChaosSchedule(schedule, &total_fires);
    if (failure.empty()) {
      continue;
    }
    const FuzzSchedule minimized = MinimizeChaosSchedule(schedule);
    const std::string min_failure = CheckChaosSchedule(minimized);
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    FAIL() << "chaos failure with seed 0x" << std::hex << seed << std::dec << ":\n"
           << failure << "\n\noriginal schedule:\n"
           << DescribeFuzzSchedule(schedule) << "\nminimized schedule ("
           << (min_failure.empty() ? "failure did not survive minimization" : min_failure)
           << "):\n"
           << DescribeFuzzSchedule(minimized) << "\nreproduce with:\n  "
           << (FuzzEnvInt("JENGA_CHAOS_ELASTIC", 0) != 0 ? "JENGA_CHAOS_ELASTIC=1 " : "")
           << "JENGA_FUZZ_SEED=0x" << std::hex << seed << std::dec
           << " ./build/tests/engine_chaos_test --gtest_filter=" << info->test_suite_name()
           << "." << info->name();
  }
  if (!forced_seed && schedules >= 50) {
    // The tier is vacuous if the drawn plans never actually fire; over >= 50 schedules the
    // gpu_step site alone is armed with ~50% probability, so zero fires means a wiring bug.
    EXPECT_GT(total_fires, 0) << "no faults fired across " << schedules
                              << " chaos schedules — injector wiring is broken";
  }
}

// ---------------------------------------------------------------------------------------
// The four engine/tier combinations (>= 200 seeded chaos schedules each by default; the
// check.sh chaos stage runs 3000 per combination).

TEST(EngineChaos, FaultRecoveryNoOffload) {
  RunChaosCombination(/*spec_engine=*/false, /*offload=*/false, 0xC1000000ull);
}

TEST(EngineChaos, FaultRecoveryWithOffload) {
  RunChaosCombination(/*spec_engine=*/false, /*offload=*/true, 0xC2000000ull);
}

TEST(SpecDecodeChaos, FaultRecoveryNoOffload) {
  RunChaosCombination(/*spec_engine=*/true, /*offload=*/false, 0xC3000000ull);
}

TEST(SpecDecodeChaos, FaultRecoveryWithOffload) {
  RunChaosCombination(/*spec_engine=*/true, /*offload=*/true, 0xC4000000ull);
}

}  // namespace
}  // namespace jenga

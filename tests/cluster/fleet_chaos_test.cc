// Fleet chaos tier (ISSUE 8 tentpole): randomized fleet schedules × replica fault plans ×
// replica counts, run through BOTH drivers.
//
// Deterministic arm (FleetRouter): each seed draws a fleet schedule (2-4 replicas, staggered
// submits, client cancels) plus scheduled replica kills/stalls and an optional fleet-scoped
// injector plan (replica_death / replica_stall sites). The oracle checks what must survive
// arbitrary replica failure:
//
//   - every replica's allocator — dead ones included — audits green every 64 fleet steps and
//     at quiescence (death-harvest cancels reclaim fully);
//   - no request is lost: Σ replica finished records == submitted + rerouted, with
//     death_cancels == rerouted (every harvested request was re-submitted exactly once);
//   - per request: exactly one record on its final placement; any record left on another
//     replica is a death-cancel; a request that was never client-cancelled completes with
//     its full output length on a survivor — replica death mid-decode is recompute, not loss;
//   - Σ cancelled records == death_cancels + successful client cancels (the new
//     EngineMetrics::CancelledRecords cross-check);
//   - a second run of the same schedule is byte-identical (chaos determinism), and for
//     fault-free schedules an armed-but-never-firing plan ("replica_death:at=10^9") changes
//     nothing — the null-path purity differential (the committed fleet_route.golden pins the
//     same property against pre-change HEAD).
//
// Threaded arm (FleetFrontend): producer threads submit/cancel while a chaos thread kills
// replicas mid-flight. Every accepted stream must still reach a terminal phase, and the
// frontend ledgers must balance with the kill/harvest counters.
//
// On failure the deterministic arm prints the seed, a minimized schedule, and a repro line.
// Env overrides:
//   JENGA_FLEET_CHAOS_SCHEDULES=<n>  deterministic schedules (default 150; check.sh: 3000)
//   JENGA_FUZZ_SEED=<seed>           replay exactly one deterministic schedule
//   JENGA_FAULT_PLAN=<plan>          replace the drawn fleet fault plan
//   JENGA_FAULT_SEED=<seed>          replace the drawn fleet fault seed
//   JENGA_STRESS_SEED=<seed>         reseed the threaded arm

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/cluster/fleet_frontend.h"
#include "src/cluster/fleet_router.h"
#include "src/common/random.h"
#include "src/fault/fault_injector.h"
#include "src/model/kv_spec.h"
#include "tests/cluster/fleet_test_util.h"
#include "tests/fuzz/fuzz_harness.h"

namespace jenga {
namespace {

// ---------------------------------------------------------------------------------------
// Schedule model

struct ChaosRequestSpec {
  int article = 0;
  int64_t prompt_len = 48;
  int question = 0;
  int64_t output_len = 4;
  int submit_step = 0;
};

struct ChaosKillSpec {
  int replica = 0;
  int step = 0;
};

struct ChaosStallSpec {
  int replica = 0;
  int step = 0;
  int64_t steps = 8;
};

struct ChaosFleetCancelSpec {
  int request_index = 0;
  int step = 0;
};

struct FleetChaosSchedule {
  uint64_t seed = 0;
  int num_replicas = 2;
  RoutePolicy policy = RoutePolicy::kPrefixAffinity;
  int spill_queue_depth = 4;
  double spill_occupancy = 0.90;
  // Per-replica pool in LCM pages; sized so every request finishes alone (FCFS livelock
  // guard) while concurrent requests churn preemption — same regime as fleet_stress_test.
  int64_t pool_pages = 24;
  int64_t stall_steps = 8;
  std::string fleet_plan;  // replica_death / replica_stall sites; empty = no injector.
  uint64_t fault_seed = 1;
  std::vector<ChaosRequestSpec> requests;
  std::vector<ChaosKillSpec> kills;
  std::vector<ChaosStallSpec> stalls;
  std::vector<ChaosFleetCancelSpec> cancels;

  [[nodiscard]] bool fault_free() const {
    return kills.empty() && stalls.empty() && fleet_plan.empty();
  }
};

FleetChaosSchedule DrawFleetChaosSchedule(uint64_t seed) {
  Rng rng(seed ^ 0xF1EE7C4A05ull);
  rng.NextU64();
  FleetChaosSchedule s;
  s.seed = seed;
  s.num_replicas = static_cast<int>(rng.UniformInt(2, 4));
  s.policy = rng.Bernoulli(0.7) ? RoutePolicy::kPrefixAffinity : RoutePolicy::kRoundRobin;
  s.spill_queue_depth = static_cast<int>(rng.UniformInt(2, 6));
  s.spill_occupancy = rng.UniformDouble(0.75, 0.95);
  s.pool_pages = rng.UniformInt(20, 28);
  s.stall_steps = rng.UniformInt(4, 24);

  const int num_requests = static_cast<int>(rng.UniformInt(8, 24));
  for (int i = 0; i < num_requests; ++i) {
    ChaosRequestSpec r;
    r.article = static_cast<int>(rng.UniformInt(0, 4));
    r.prompt_len = rng.UniformInt(32, 128);
    r.question = static_cast<int>(rng.UniformInt(0, 5));
    r.output_len = rng.UniformInt(2, 16);
    r.submit_step = static_cast<int>(rng.UniformInt(0, 48));
    s.requests.push_back(r);
    if (rng.Bernoulli(0.12)) {
      ChaosFleetCancelSpec c;
      c.request_index = i;
      c.step = r.submit_step + static_cast<int>(rng.UniformInt(0, 30));
      s.cancels.push_back(c);
    }
  }

  // Scheduled deaths/stalls: deterministic replays need exact (replica, step) pairs, so most
  // of the fault mass is scheduled; the injector plan below adds seed-driven extras.
  const int num_kills = rng.Bernoulli(0.55) ? static_cast<int>(rng.UniformInt(1, 2)) : 0;
  for (int i = 0; i < num_kills; ++i) {
    ChaosKillSpec k;
    k.replica = static_cast<int>(rng.UniformInt(0, s.num_replicas - 1));
    k.step = static_cast<int>(rng.UniformInt(1, 70));
    s.kills.push_back(k);
  }
  const int num_stalls = rng.Bernoulli(0.4) ? static_cast<int>(rng.UniformInt(1, 2)) : 0;
  for (int i = 0; i < num_stalls; ++i) {
    ChaosStallSpec st;
    st.replica = static_cast<int>(rng.UniformInt(0, s.num_replicas - 1));
    st.step = static_cast<int>(rng.UniformInt(1, 70));
    st.steps = rng.UniformInt(4, 24);
    s.stalls.push_back(st);
  }
  if (rng.Bernoulli(0.35)) {
    std::ostringstream plan;
    char buf[64];
    if (rng.Bernoulli(0.6)) {
      std::snprintf(buf, sizeof(buf), "replica_death:p=%.4f", rng.UniformDouble(0.001, 0.008));
      plan << buf;
    }
    if (rng.Bernoulli(0.6)) {
      std::snprintf(buf, sizeof(buf), "%sreplica_stall:p=%.4f",
                    plan.tellp() > 0 ? "," : "", rng.UniformDouble(0.002, 0.015));
      plan << buf;
    }
    s.fleet_plan = plan.str();
  }
  s.fault_seed = rng.NextU64() | 1;

  // Operator replay overrides, parsed by FaultConfigFromEnv: a malformed value aborts the
  // run instead of silently replaying another fault world.
  FaultConfig replay;
  const Status env = FaultConfigFromEnv(&replay);
  JENGA_CHECK(env.ok()) << env;
  if (const char* env_plan = std::getenv("JENGA_FAULT_PLAN")) {
    s.fleet_plan = env_plan;
  }
  if (std::getenv("JENGA_FAULT_SEED") != nullptr) {
    s.fault_seed = replay.seed;
  }
  return s;
}

std::string DescribeFleetChaosSchedule(const FleetChaosSchedule& s) {
  std::ostringstream out;
  out << "seed=0x" << std::hex << s.seed << std::dec << " replicas=" << s.num_replicas
      << " policy=" << RoutePolicyName(s.policy) << " spill{depth=" << s.spill_queue_depth
      << " occ=" << s.spill_occupancy << "} pool_pages=" << s.pool_pages
      << " stall_steps=" << s.stall_steps;
  if (!s.fleet_plan.empty()) {
    out << " fault{plan=\"" << s.fleet_plan << "\" seed=0x" << std::hex << s.fault_seed
        << std::dec << "}";
  }
  out << "\n";
  for (size_t i = 0; i < s.requests.size(); ++i) {
    const ChaosRequestSpec& r = s.requests[i];
    out << "  req[" << i << "] article=" << r.article << " prompt=" << r.prompt_len
        << " question=" << r.question << " output=" << r.output_len
        << " submit_step=" << r.submit_step << "\n";
  }
  for (const ChaosKillSpec& k : s.kills) {
    out << "  kill replica " << k.replica << " at step " << k.step << "\n";
  }
  for (const ChaosStallSpec& st : s.stalls) {
    out << "  stall replica " << st.replica << " at step " << st.step << " for " << st.steps
        << "\n";
  }
  for (const ChaosFleetCancelSpec& c : s.cancels) {
    out << "  cancel req[" << c.request_index << "] at step " << c.step << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------------------
// Deterministic arm

FleetConfig BuildChaosFleetConfig(const FleetChaosSchedule& s) {
  FleetConfig config = TestFleetConfig(s.num_replicas, s.policy, /*seed=*/s.seed);
  const KvSpec spec = MakeJengaSpec(config.engine.model, 16, false);
  config.engine.pool_bytes_override = spec.LcmPageBytes() * s.pool_pages;
  config.spill_queue_depth = s.spill_queue_depth;
  config.spill_occupancy = s.spill_occupancy;
  config.stall_steps = s.stall_steps;
  if (!s.fleet_plan.empty()) {
    FaultPlan plan;
    JENGA_CHECK(FaultPlan::Parse(s.fleet_plan, &plan).ok()) << s.fleet_plan;
    config.fleet_fault.plan = plan;
    config.fleet_fault.seed = s.fault_seed;
  }
  return config;
}

std::string AuditFleet(FleetRouter& fleet) {
  AllocatorAuditor auditor;
  for (int i = 0; i < fleet.num_replicas(); ++i) {
    auditor.AttachAllocator(&fleet.replica(i).kv().allocator_mutable());
  }
  const auto violations = auditor.Audit();
  auditor.DetachAll();
  return violations.empty() ? std::string() : violations.front();
}

// Fault activity observed across a tier run — the vacuity guard and the end-of-tier summary
// both read from this, so a silently dead fault path is loud, not lucky.
struct FleetChaosActivity {
  int64_t kills = 0;
  int64_t stalls = 0;
  int64_t fires = 0;
  int64_t death_cancels = 0;
  int64_t rerouted = 0;

  [[nodiscard]] int64_t total() const { return kills + stalls + fires; }
};

// Runs one schedule to quiescence. Returns the first violation (empty = green); appends the
// outcome signature to `signature` and the observed fault activity to `*activity` when
// non-null.
std::string RunFleetChaosSchedule(const FleetChaosSchedule& s, bool with_audit,
                                  std::string* signature, FleetChaosActivity* activity) {
  FleetRouter fleet(BuildChaosFleetConfig(s));
  const int n = static_cast<int>(s.requests.size());
  int64_t submitted = 0;
  int64_t client_cancels = 0;
  int64_t applied_kills = 0;
  int64_t applied_stalls = 0;
  int last_event_step = 0;
  for (const ChaosRequestSpec& r : s.requests) {
    last_event_step = std::max(last_event_step, r.submit_step);
  }
  for (const ChaosKillSpec& k : s.kills) {
    last_event_step = std::max(last_event_step, k.step);
  }
  for (const ChaosStallSpec& st : s.stalls) {
    last_event_step = std::max(last_event_step, st.step);
  }
  for (const ChaosFleetCancelSpec& c : s.cancels) {
    last_event_step = std::max(last_event_step, c.step);
  }

  const int64_t max_steps = 20000;
  for (int64_t step = 0;; ++step) {
    if (step > max_steps) {
      return "fleet chaos schedule did not converge within " + std::to_string(max_steps) +
             " steps";
    }
    // Fixed event order per step — submits, kills, stalls, cancels — keeps replays exact.
    for (int i = 0; i < n; ++i) {
      if (s.requests[static_cast<size_t>(i)].submit_step == step) {
        const ChaosRequestSpec& r = s.requests[static_cast<size_t>(i)];
        fleet.Submit(MakeRequest(static_cast<RequestId>(i),
                                 ArticlePrompt(r.article, r.prompt_len, r.question),
                                 r.output_len, 0.0));
        ++submitted;
      }
    }
    for (const ChaosKillSpec& k : s.kills) {
      if (k.step == step && fleet.ReplicaAlive(k.replica) &&
          fleet.core().num_alive() > 1) {
        fleet.KillReplica(k.replica);
        ++applied_kills;
      }
    }
    for (const ChaosStallSpec& st : s.stalls) {
      if (st.step == step && fleet.ReplicaAlive(st.replica)) {
        fleet.StallReplica(st.replica, st.steps);
        ++applied_stalls;
      }
    }
    for (const ChaosFleetCancelSpec& c : s.cancels) {
      if (c.step == step) {
        client_cancels += fleet.CancelRequest(static_cast<RequestId>(c.request_index)) ? 1 : 0;
      }
    }
    const bool stepped = fleet.StepOnce();
    if (with_audit && (step & 63) == 0) {
      const std::string violation = AuditFleet(fleet);
      if (!violation.empty()) {
        return "auditor violation at fleet step " + std::to_string(step) + ": " + violation;
      }
    }
    if (!stepped && step >= last_event_step) {
      break;
    }
  }

  // ----- End-of-run oracle -----
  if (with_audit) {
    const std::string violation = AuditFleet(fleet);
    if (!violation.empty()) {
      return "auditor violation at quiescence: " + violation;
    }
  }
  const FleetCounters& fc = fleet.counters();
  if (fc.submitted != submitted) {
    return "submitted counter " + std::to_string(fc.submitted) + " != client submits " +
           std::to_string(submitted);
  }
  if (fc.replica_deaths < applied_kills ||
      fc.replica_deaths >= static_cast<int64_t>(s.num_replicas)) {
    return "replica_deaths=" + std::to_string(fc.replica_deaths) + " inconsistent (scheduled " +
           std::to_string(applied_kills) + " of " + std::to_string(s.num_replicas) +
           " replicas)";
  }
  if (fleet.core().num_alive() !=
      s.num_replicas - static_cast<int>(fc.replica_deaths)) {
    return "liveness count disagrees with replica_deaths";
  }
  if (fc.replica_stalls < applied_stalls) {
    return "replica_stalls=" + std::to_string(fc.replica_stalls) + " < scheduled " +
           std::to_string(applied_stalls);
  }
  if (s.fault_free() &&
      (fc.replica_deaths != 0 || fc.replica_stalls != 0 || fc.death_cancels != 0 ||
       fc.rerouted != 0 || fc.death_fires_ignored != 0 || fleet.FleetFaultFires() != 0)) {
    return "recovery counters nonzero on a fault-free schedule";
  }

  // Conservation ledger: no request is lost across deaths.
  if (fc.death_cancels != fc.rerouted) {
    return "ledger: death_cancels=" + std::to_string(fc.death_cancels) +
           " != rerouted=" + std::to_string(fc.rerouted);
  }
  int64_t records = 0;
  int64_t cancelled_records = 0;
  int64_t cancelled_accessor = 0;
  std::map<RequestId, std::vector<std::pair<int, RequestRecord>>> by_id;
  for (int r = 0; r < fleet.num_replicas(); ++r) {
    const EngineMetrics& m = fleet.replica(r).metrics();
    cancelled_accessor += m.CancelledRecords();
    for (const RequestRecord& record : m.finished()) {
      records += 1;
      cancelled_records += record.cancelled ? 1 : 0;
      by_id[static_cast<RequestId>(record.id)].emplace_back(r, record);
    }
  }
  if (records != fc.submitted + fc.rerouted) {
    return "ledger: " + std::to_string(records) + " finished records != submitted " +
           std::to_string(fc.submitted) + " + rerouted " + std::to_string(fc.rerouted);
  }
  if (cancelled_records != fc.death_cancels + client_cancels) {
    return "ledger: cancelled records " + std::to_string(cancelled_records) +
           " != death_cancels " + std::to_string(fc.death_cancels) + " + client cancels " +
           std::to_string(client_cancels);
  }
  if (fc.cancelled != client_cancels) {
    return "cancelled counter " + std::to_string(fc.cancelled) + " != successful cancels " +
           std::to_string(client_cancels);
  }
  if (cancelled_accessor != cancelled_records) {
    return "EngineMetrics::CancelledRecords disagrees with the record scan";
  }
  if (static_cast<int64_t>(by_id.size()) != submitted) {
    return "ids with records " + std::to_string(by_id.size()) + " != submitted " +
           std::to_string(submitted);
  }
  for (const auto& [id, recs] : by_id) {
    const int final_replica = fleet.PlacementOf(id);
    const std::string tag = " (req " + std::to_string(id) + ")";
    if (final_replica < 0) {
      return "finished record with unknown placement" + tag;
    }
    int final_count = 0;
    const RequestRecord* final_record = nullptr;
    for (const auto& [replica, record] : recs) {
      if (replica == final_replica) {
        final_count += 1;
        final_record = &record;
        continue;
      }
      // Any record on a non-final replica is a death-harvest cancel.
      if (!record.cancelled || !record.failed) {
        return "non-final record not a death cancel" + tag;
      }
      if (fleet.ReplicaAlive(replica)) {
        return "death-cancel record on a live replica" + tag;
      }
    }
    if (final_count != 1) {
      return std::to_string(final_count) + " records on the final placement" + tag;
    }
    if (!final_record->cancelled) {
      if (final_record->failed) {
        return "request failed without a cancel" + tag;
      }
      // The no-request-lost core: survivors finish the FULL decode even when the request
      // died mid-stream on another replica.
      const ChaosRequestSpec& spec = s.requests[static_cast<size_t>(id)];
      if (final_record->output_len != spec.output_len) {
        return "completed with output " + std::to_string(final_record->output_len) +
               " != requested " + std::to_string(spec.output_len) + tag;
      }
    }
  }

  if (activity != nullptr) {
    activity->kills += fc.replica_deaths;
    activity->stalls += fc.replica_stalls;
    activity->fires += fleet.FleetFaultFires();
    activity->death_cancels += fc.death_cancels;
    activity->rerouted += fc.rerouted;
  }
  if (signature != nullptr) {
    std::ostringstream sig;
    for (int r = 0; r < fleet.num_replicas(); ++r) {
      sig << "--- replica " << r << " alive=" << fleet.ReplicaAlive(r) << " ---\n";
      for (const RequestRecord& record : fleet.replica(r).metrics().finished()) {
        char times[128];
        std::snprintf(times, sizeof(times), "%.12g/%.12g/%.12g/%.12g", record.arrival_time,
                      record.first_scheduled_time, record.first_token_time,
                      record.finish_time);
        sig << record.id << ":" << record.prompt_len << ":" << record.output_len << ":"
            << record.cached_prefix_tokens << ":" << record.preemptions << ":"
            << record.failed << ":" << record.cancelled << ":" << times << "\n";
      }
    }
    sig << "submitted=" << fc.submitted << " deaths=" << fc.replica_deaths
        << " stalls=" << fc.replica_stalls << " death_cancels=" << fc.death_cancels
        << " rerouted=" << fc.rerouted << " ignored=" << fc.death_fires_ignored
        << " cancelled=" << fc.cancelled << " fires=" << fleet.FleetFaultFires()
        << " steps=" << fleet.fleet_steps() << "\n";
    *signature += sig.str();
  }
  return std::string();
}

// Audited run + determinism differential + (fault-free only) the armed-never-fires purity
// differential: arming the replica sites with unreachable triggers must not perturb a single
// byte of the outcome.
std::string CheckFleetChaosSchedule(const FleetChaosSchedule& s,
                                    FleetChaosActivity* activity = nullptr) {
  std::string sig_a;
  std::string failure = RunFleetChaosSchedule(s, /*with_audit=*/true, &sig_a, activity);
  if (!failure.empty()) {
    return failure;
  }
  std::string sig_b;
  failure = RunFleetChaosSchedule(s, /*with_audit=*/false, &sig_b, nullptr);
  if (!failure.empty()) {
    return failure + " (second run)";
  }
  if (sig_a != sig_b) {
    return "nondeterministic fleet chaos outcome:\n--- run A ---\n" + sig_a +
           "--- run B ---\n" + sig_b;
  }
  if (s.fault_free() && std::getenv("JENGA_FAULT_PLAN") == nullptr) {
    FleetChaosSchedule armed = s;
    armed.fleet_plan = "replica_death:at=1000000000,replica_stall:at=1000000000";
    std::string sig_armed;
    failure = RunFleetChaosSchedule(armed, /*with_audit=*/false, &sig_armed, nullptr);
    if (!failure.empty()) {
      return failure + " (armed-never-fires run)";
    }
    if (sig_armed != sig_a) {
      return "armed-but-idle fault plan perturbed a fault-free run:\n--- unarmed ---\n" +
             sig_a + "--- armed ---\n" + sig_armed;
    }
  }
  return std::string();
}

// Greedy minimization: drop requests (remapping cancel indices), kills, stalls, cancels.
FleetChaosSchedule MinimizeFleetChaosSchedule(FleetChaosSchedule s) {
  bool shrunk = true;
  int budget = 80;
  while (shrunk && budget > 0) {
    shrunk = false;
    for (size_t i = 0; i < s.requests.size() && s.requests.size() > 1 && budget > 0; ++i) {
      FleetChaosSchedule candidate = s;
      candidate.requests.erase(candidate.requests.begin() + static_cast<int64_t>(i));
      std::vector<ChaosFleetCancelSpec> remapped;
      for (ChaosFleetCancelSpec c : candidate.cancels) {
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
      if (!CheckFleetChaosSchedule(candidate).empty()) {
        s = candidate;
        shrunk = true;
        break;
      }
    }
    const auto try_drop = [&](auto member) {
      for (size_t i = 0; i < (s.*member).size() && budget > 0; ++i) {
        FleetChaosSchedule candidate = s;
        (candidate.*member).erase((candidate.*member).begin() + static_cast<int64_t>(i));
        --budget;
        if (!CheckFleetChaosSchedule(candidate).empty()) {
          s = candidate;
          return true;
        }
      }
      return false;
    };
    shrunk = try_drop(&FleetChaosSchedule::kills) || shrunk;
    shrunk = try_drop(&FleetChaosSchedule::stalls) || shrunk;
    shrunk = try_drop(&FleetChaosSchedule::cancels) || shrunk;
  }
  return s;
}

void RunFleetChaosTier(uint64_t seed_base) {
  const std::optional<uint64_t> forced_seed = TestEnvUint("JENGA_FUZZ_SEED");
  const uint64_t schedules =
      forced_seed ? 1 : TestEnvUint("JENGA_FLEET_CHAOS_SCHEDULES").value_or(150);
  FleetChaosActivity activity;
  for (uint64_t i = 0; i < schedules; ++i) {
    const uint64_t seed = forced_seed ? *forced_seed : seed_base + i;
    const FleetChaosSchedule schedule = DrawFleetChaosSchedule(seed);
    if (forced_seed) {
      std::fprintf(stderr, "replaying fleet chaos schedule:\n%s",
                   DescribeFleetChaosSchedule(schedule).c_str());
    }
    const std::string failure = CheckFleetChaosSchedule(schedule, &activity);
    if (failure.empty()) {
      continue;
    }
    const FleetChaosSchedule minimized = MinimizeFleetChaosSchedule(schedule);
    const std::string min_failure = CheckFleetChaosSchedule(minimized);
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    FAIL() << "fleet chaos failure with seed 0x" << std::hex << seed << std::dec << ":\n"
           << failure << "\n\noriginal schedule:\n"
           << DescribeFleetChaosSchedule(schedule) << "\nminimized schedule ("
           << (min_failure.empty() ? "failure did not survive minimization" : min_failure)
           << "):\n"
           << DescribeFleetChaosSchedule(minimized) << "\nreproduce with:\n  JENGA_FUZZ_SEED=0x"
           << std::hex << seed << std::dec
           << " ./build/tests/fleet_chaos_test --gtest_filter=" << info->test_suite_name()
           << "." << info->name();
  }
  std::fprintf(stderr,
               "[fleet-chaos] %lld schedules: deaths=%lld stalls=%lld injector_fires=%lld "
               "death_cancels=%lld rerouted=%lld\n",
               static_cast<long long>(schedules), static_cast<long long>(activity.kills),
               static_cast<long long>(activity.stalls), static_cast<long long>(activity.fires),
               static_cast<long long>(activity.death_cancels),
               static_cast<long long>(activity.rerouted));
  if (!forced_seed && schedules >= 50) {
    // Vacuity guards: over >= 50 schedules, scheduled kills alone land with ~55% probability
    // each — zero fault activity means the wiring is broken, not that we got lucky. And a
    // tier where no death ever harvested live work would never exercise the re-route path.
    EXPECT_GT(activity.total(), 0) << "no replica faults applied across " << schedules
                                   << " fleet chaos schedules";
    EXPECT_GT(activity.rerouted, 0)
        << "no death ever re-routed in-flight work across " << schedules << " schedules";
  }
}

TEST(FleetChaos, DeterministicDriver) { RunFleetChaosTier(0xF1EE70000ull); }

TEST(FleetChaos, DeterministicDriverAltBand) { RunFleetChaosTier(0xF1EE80000ull); }

// ---------------------------------------------------------------------------------------
// Threaded arm: FleetFrontend under mid-flight kills.

uint64_t ThreadedChaosSeed() { return TestEnvUint("JENGA_STRESS_SEED").value_or(42); }

void RunThreadedFleetChaos(int num_replicas, int producers, int per_producer, int kills) {
  std::atomic<int64_t> audits{0};
  // Engines run throttled until the last kill lands, so the kills reliably strike replicas
  // that still hold queued and running work (otherwise a fast machine drains the whole load
  // before the killer thread gets scheduled, and the harvest path goes untested).
  std::atomic<bool> throttle{true};
  ServingFrontend::Options options;
  options.queue_capacity = 64;
  options.step_observer = [&audits, &throttle](Engine& engine) {
    if (throttle.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    static thread_local int64_t step = 0;
    if ((step++ & 63) != 0) {
      return;
    }
    static thread_local AllocatorAuditor auditor;
    auditor.AttachAllocator(&engine.kv().allocator_mutable());
    const auto violations = auditor.Audit();
    auditor.DetachAll();
    ASSERT_TRUE(violations.empty()) << violations.front();
    audits.fetch_add(1, std::memory_order_relaxed);
  };
  FleetConfig config = TestFleetConfig(num_replicas, RoutePolicy::kPrefixAffinity,
                                       ThreadedChaosSeed());
  const KvSpec spec = MakeJengaSpec(config.engine.model, 16, false);
  config.engine.pool_bytes_override = spec.LcmPageBytes() * 24;
  config.spill_queue_depth = 4;
  config.spill_occupancy = 0.90;
  FleetFrontend fleet(config, options);
  fleet.Start();

  const uint64_t seed = ThreadedChaosSeed();
  const int64_t total_submits = static_cast<int64_t>(producers) * per_producer;
  std::atomic<int64_t> terminal{0};
  std::atomic<int64_t> refused{0};
  std::atomic<int64_t> produced{0};
  std::atomic<int64_t> kills_applied{0};
  std::thread killer([&] {
    for (int k = 0; k < kills; ++k) {
      // Trigger on submission progress, not wall time: the k-th kill lands once roughly
      // (k+1)/(kills+1) of the load has been produced, so later kills always strike a fleet
      // that still has work in flight.
      const int64_t trigger = total_submits * (k + 1) / (kills + 1);
      while (produced.load(std::memory_order_acquire) < trigger) {
        std::this_thread::yield();
      }
      // Kill the busiest live replica: a fixed-seed random target can keep hitting an idle
      // replica and never exercise the harvest/re-route path.
      int target = -1;
      int64_t busiest = -1;
      for (int i = 0; i < num_replicas; ++i) {
        if (!fleet.ReplicaAlive(i)) {
          continue;
        }
        const ServingFrontend::Counters rc = fleet.replica(i).counters();
        const int64_t in_flight =
            rc.submitted - rc.finished - rc.cancelled - rc.failed - rc.cancelled_queued;
        if (in_flight > busiest) {
          busiest = in_flight;
          target = i;
        }
      }
      if (target >= 0 && fleet.KillReplica(target)) {
        kills_applied.fetch_add(1, std::memory_order_relaxed);
      }
    }
    throttle.store(false, std::memory_order_relaxed);
  });
  RunClients(producers, [&](int client) {
    Rng rng(seed + static_cast<uint64_t>(client) * 104729);
    std::vector<StreamHandle> streams;
    std::vector<RequestId> ids;
    for (int i = 0; i < per_producer; ++i) {
      produced.fetch_add(1, std::memory_order_release);
      const RequestId id = fleet.NextRequestId();
      const int article = static_cast<int>(rng.UniformInt(0, 3));
      Request r = MakeRequest(id, ArticlePrompt(article, rng.UniformInt(48, 128), i),
                              rng.UniformInt(4, 24), 0.0);
      StreamHandle stream;
      if (rng.Bernoulli(0.25)) {
        if (!fleet.TrySubmitAsync(std::move(r), &stream).ok()) {
          refused.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      } else {
        stream = fleet.SubmitAsync(std::move(r));
      }
      ASSERT_NE(stream->phase.load(), StreamPhase::kRejected);  // No shutdown yet.
      streams.push_back(stream);
      ids.push_back(id);
      if (rng.Bernoulli(0.2)) {
        fleet.CancelAsync(ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
      }
    }
    // Every accepted stream must reach a terminal phase even if its replica died: the
    // harvest re-routes it (adopting this very stream) to a survivor.
    for (const StreamHandle& stream : streams) {
      while (!stream->Done()) {
        std::this_thread::yield();
      }
      terminal.fetch_add(1, std::memory_order_relaxed);
    }
  });
  killer.join();
  fleet.Shutdown();

  const FleetCounters fc = fleet.counters();
  const ServingFrontend::Counters c = fleet.frontend_counters();
  std::fprintf(stderr,
               "[fleet-chaos-threaded] deaths=%lld death_cancels=%lld rerouted=%lld "
               "harvested_queued=%lld finished=%lld cancelled=%lld\n",
               static_cast<long long>(fc.replica_deaths),
               static_cast<long long>(fc.death_cancels), static_cast<long long>(fc.rerouted),
               static_cast<long long>(c.harvested_queued), static_cast<long long>(c.finished),
               static_cast<long long>(c.cancelled));
  EXPECT_EQ(fc.replica_deaths, kills_applied.load());
  EXPECT_LT(fc.replica_deaths, num_replicas);  // Never the last replica.
  EXPECT_GT(kills_applied.load(), 0);
  // Vacuity: the throttle + busiest-replica targeting guarantee each kill strikes a replica
  // with work to harvest — a zero here means the death path silently stopped harvesting.
  EXPECT_GT(fc.death_cancels + c.harvested_queued, 0);
  // Replica-frontend ledgers, kill/harvest aware: accepted submits = client submits plus
  // re-routes; harvested work leaves a replica without a terminal there and re-enters
  // another replica's books through `rerouted`.
  EXPECT_EQ(c.submitted, fc.submitted + fc.rerouted);
  EXPECT_EQ(c.submitted, c.admitted + c.cancelled_queued + c.harvested_queued);
  EXPECT_EQ(c.admitted, c.finished + c.cancelled + c.failed + c.harvested_live);
  EXPECT_EQ(fc.death_cancels, c.harvested_live);
  // Cancel ledger (DESIGN.md §10): a client cancel counts where it takes effect. Each one
  // either left a cancelled record or annihilated a queued submit, which leaves none.
  int64_t cancelled_records = 0;
  for (int r = 0; r < fleet.num_replicas(); ++r) {
    cancelled_records += fleet.replica(r).metrics().CancelledRecords();
  }
  EXPECT_EQ(cancelled_records + c.cancelled_queued, fc.death_cancels + fc.cancelled);
  EXPECT_EQ(fc.rerouted + fc.lost_on_shutdown, c.harvested_live + c.harvested_queued);
  EXPECT_EQ(fc.lost_on_shutdown, 0);
  EXPECT_EQ(fc.backpressure_rejections, refused.load());
  EXPECT_EQ(terminal.load(), fc.submitted);
  EXPECT_EQ(c.rejected, 0);
  EXPECT_EQ(fc.rejected_submits, 0);
  EXPECT_GT(c.finished, 0);
  EXPECT_GT(audits.load(), 0);

  // Quiescent audit over every replica, dead ones included: the death harvest reclaimed
  // everything through CancelRequest, so dead allocators are green too.
  AllocatorAuditor auditor;
  for (int i = 0; i < fleet.num_replicas(); ++i) {
    auditor.AttachAllocator(&fleet.replica(i).engine().kv().allocator_mutable());
  }
  const auto violations = auditor.Audit();
  EXPECT_TRUE(violations.empty()) << violations.front();
  auditor.DetachAll();
}

TEST(FleetChaosThreaded, KillOneOfTwo) {
  RunThreadedFleetChaos(/*num_replicas=*/2, /*producers=*/6, /*per_producer=*/14, /*kills=*/1);
}

TEST(FleetChaosThreaded, KillTwoOfFour) {
  RunThreadedFleetChaos(/*num_replicas=*/4, /*producers=*/8, /*per_producer=*/12, /*kills=*/2);
}

TEST(FleetChaosThreaded, RepeatedKillAttemptsSpareLastReplica) {
  // More kill attempts than replicas: the guard must keep exactly one replica alive and
  // every stream still terminates there.
  RunThreadedFleetChaos(/*num_replicas=*/3, /*producers=*/6, /*per_producer=*/10, /*kills=*/6);
}

}  // namespace
}  // namespace jenga

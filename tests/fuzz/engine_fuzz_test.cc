// Seeded deterministic fuzzer for the full two-tier allocator stack (ISSUE 3 tentpole).
//
// Each fuzz case ("schedule") is derived from a single uint64 seed: a model drawn from the
// five LayerPolicy families (full prefix, sliding window, PyramidKV, Mamba, vision/image
// cache), a deliberately undersized KV pool, and a batch of requests with shared-prefix
// families, staggered arrivals, and (sometimes) a request too large to ever fit. The case is
// run through `Engine` or `SpecDecodeEngine` (offload tier on and off); after every step the
// AllocatorAuditor re-derives all allocator invariants, and an oracle model cross-checks the
// externally visible outcomes:
//
//   - every submitted request finishes exactly once; non-failed records carry the exact
//     requested output length; deliberately-oversized requests fail;
//   - cache hit lengths are page-aligned, strictly shorter than the prompt, and (for
//     fresh text requests) bounded by the longest prompt prefix shared with any other
//     request — the only place hits can come from;
//   - recomputed-token accounting matches the preemption events the oracle observed
//     (exact for `Engine` without offload; interval bounds where swap resolution can hide
//     inside a single step);
//   - swap counters are mutually consistent (in + fallback <= out) and identically zero
//     when the tier is off, as is the stall clock;
//   - a second run of the same schedule produces a byte-identical outcome signature
//     (completion order, per-record fields, metrics) — the determinism differential.
//
// The schedule model and engine harnesses live in fuzz_harness.h, shared with the chaos
// tier (engine_chaos_test.cc); this file never arms the chaos fields, so its schedules are
// identical to the pre-chaos fuzzer.
//
// On failure the test prints the seed, a greedily minimized schedule trace, and the exact
// one-line command that reproduces the failing case. Env overrides:
//   JENGA_FUZZ_SCHEDULES=<n>  schedules per engine/tier combination (default 200)
//   JENGA_FUZZ_SEED=<seed>    run exactly one schedule from this seed

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "tests/audit/audit_test_util.h"
#include "tests/fuzz/fuzz_harness.h"

namespace jenga {
namespace {

// Arm the deadline-heap cross-check (ExpireDeadlines: heap-collected expired set vs the
// brute-force queue scan, see engine.cc) for every schedule in this binary. The enable
// flag latches on the first engine step, so it must be set before main runs; overwrite=0
// keeps an explicit user setting in charge.
const bool g_arm_deadline_audit = [] {
  setenv("JENGA_CHECK_DEADLINES", "1", /*overwrite=*/0);
  return true;
}();

// ---------------------------------------------------------------------------------------
// Oracle

struct RequestSnapshot {
  RequestState state = RequestState::kWaiting;
  int64_t computed = 0;
  int64_t generated = 0;
  int preemptions = 0;
  bool swapped_out = false;
  int64_t swapped_out_tokens = 0;
};

struct MetricsSnapshot {
  int64_t recomputed = 0;
  int64_t swap_out = 0;
  int64_t swap_in = 0;
  int64_t fallback = 0;
};

// Runs one schedule to completion, auditing after every step and applying the per-step
// oracle. Returns the first violation (empty string = green). When `signature` is non-null
// the outcome signature is appended to it (for the determinism differential); when
// `settled_walks` is, the grows its managers settled from counters are added to it.
std::string RunSchedule(const FuzzSchedule& s, bool with_audit, std::string* signature,
                        int64_t* settled_walks = nullptr) {
  std::unique_ptr<FuzzHarness> harness = MakeFuzzHarness(s);
  AllocatorAuditor auditor;
  if (with_audit) {
    harness->AttachAudit(&auditor);
    const auto seeded = auditor.Audit();
    if (!seeded.empty()) {
      return "auditor not green after attach: " + seeded.front();
    }
  }

  const int n = static_cast<int>(s.requests.size());
  std::vector<RequestSnapshot> prev(static_cast<size_t>(n));
  MetricsSnapshot prev_m;
  // For a plain-Engine preemption, the victim's num_computed_tokens at preempt time is
  // exactly the value committed by the previous step (victims are never scheduled earlier in
  // the same step), so recompute accounting is exact. SpecDecodeEngine commits prefill
  // chunks before its preemption points, so the same observation is only a lower bound.
  const bool exact_recompute = !s.spec_engine && !s.offload;

  int64_t steps = 0;
  const int64_t max_steps = 30000;
  while (harness->Step()) {
    ++steps;
    if (steps > max_steps) {
      return "schedule did not converge within " + std::to_string(max_steps) + " steps";
    }

    if (with_audit) {
      const auto violations = auditor.Audit();
      if (!violations.empty()) {
        std::string out = "auditor violation at step " + std::to_string(steps) + ": ";
        for (size_t i = 0; i < std::min<size_t>(violations.size(), 3); ++i) {
          out += "\n  " + violations[i];
        }
        if (violations.size() > 3) {
          out += "\n  (+" + std::to_string(violations.size() - 3) + " more)";
        }
        return out;
      }
    }

    const EngineMetrics& m = harness->Metrics();
    const SwapManager::Stats swap = SwapStats(harness->Core());
    MetricsSnapshot now_m{m.recomputed_tokens, swap.swap_out_events, swap.swap_in_events,
                          m.swap_fallback_events};
    const int64_t d_recomputed = now_m.recomputed - prev_m.recomputed;
    const int64_t d_swap_out = now_m.swap_out - prev_m.swap_out;
    const int64_t d_swap_in = now_m.swap_in - prev_m.swap_in;
    const int64_t d_fallback = now_m.fallback - prev_m.fallback;
    if (d_recomputed < 0 || d_swap_out < 0 || d_swap_in < 0 || d_fallback < 0) {
      return "metrics counter decreased at step " + std::to_string(steps);
    }
    if (!s.offload && (now_m.swap_out != 0 || now_m.swap_in != 0 || now_m.fallback != 0 ||
                       swap.stall_time != 0.0)) {
      return "swap metrics nonzero with the offload tier disabled";
    }

    int64_t recompute_exact = 0;  // Sum of unambiguous recompute contributions.
    int64_t recompute_ub = 0;     // Upper bound incl. swap-resolution ambiguity.
    bool saw_swap_window = d_swap_out > 0 || d_swap_in > 0 || d_fallback > 0;
    for (int i = 0; i < n; ++i) {
      const Request& r = harness->Req(static_cast<RequestId>(i));
      RequestSnapshot snap{r.state, r.num_computed_tokens, r.num_generated, r.preemptions,
                           r.swapped_out, r.swapped_out_tokens};
      const RequestSnapshot& old = prev[static_cast<size_t>(i)];
      const std::string tag = " (req " + std::to_string(i) + ", step " +
                              std::to_string(steps) + ")";
      if (snap.generated < old.generated) {
        return "num_generated decreased" + tag;
      }
      if (snap.preemptions < old.preemptions) {
        return "preemption count decreased" + tag;
      }
      if (old.state == RequestState::kFinished && snap.state != RequestState::kFinished) {
        return "finished request came back to life" + tag;
      }
      if (snap.generated > r.output_len) {
        return "generated more than output_len" + tag;
      }
      if (snap.computed > r.prompt_len() + snap.generated) {
        return "num_computed_tokens beyond known tokens" + tag;
      }
      if (snap.swapped_out && snap.state != RequestState::kPreempted) {
        return "swapped-out request not in preempted state" + tag;
      }
      const int dpre = snap.preemptions - old.preemptions;
      if (!s.spec_engine && dpre > 1) {
        return "engine preempted one request twice in one step" + tag;
      }
      if (dpre >= 1) {
        if (!snap.swapped_out) {
          recompute_exact += old.computed;
          recompute_ub += old.computed;
        } else {
          if (r.swapped_out_tokens <= 0) {
            return "swap-out recorded zero tokens" + tag;
          }
          recompute_ub += r.swapped_out_tokens;  // May fall back later this window? No:
          // still swapped out at observation, so nothing resolved yet. Counted as slack.
        }
        if (s.spec_engine) {
          // Spec-decode victims may have advanced within the step before the preempt.
          recompute_ub += static_cast<int64_t>(dpre) * (r.prompt_len() + r.output_len);
        }
      }
      if (old.swapped_out && (!snap.swapped_out || dpre >= 1)) {
        // Pending swap set resolved: swap-in (no recompute) or fallback, which charges the
        // recorded swapped_out_tokens (num_computed_tokens is already zero for a swapped-out
        // request, so `old.computed` alone would under-bound). The `dpre >= 1` arm covers a
        // resolve-then-swap-out-again sequence hidden inside one step window.
        recompute_ub += old.computed + old.swapped_out_tokens;
      }
      prev[static_cast<size_t>(i)] = snap;
    }
    if (exact_recompute) {
      if (d_recomputed != recompute_exact) {
        return "recomputed-token delta " + std::to_string(d_recomputed) +
               " != oracle-observed " + std::to_string(recompute_exact) + " at step " +
               std::to_string(steps);
      }
    } else {
      const int64_t lower = saw_swap_window ? 0 : recompute_exact;
      if (d_recomputed < lower || d_recomputed > recompute_ub) {
        return "recomputed-token delta " + std::to_string(d_recomputed) +
               " outside oracle bounds [" + std::to_string(lower) + ", " +
               std::to_string(recompute_ub) + "] at step " + std::to_string(steps);
      }
    }
    prev_m = now_m;
  }

  // ----- End-of-run oracle -----
  const EngineMetrics& m = harness->Metrics();
  if (static_cast<int>(m.finished().size()) != n) {
    return "finished " + std::to_string(m.finished().size()) + " of " + std::to_string(n) +
           " submitted requests";
  }
  std::vector<int> seen(static_cast<size_t>(n), 0);
  for (const RequestRecord& record : m.finished()) {
    if (record.id < 0 || record.id >= n) {
      return "finished record with unknown id " + std::to_string(record.id);
    }
    seen[static_cast<size_t>(record.id)] += 1;
  }
  for (int i = 0; i < n; ++i) {
    if (seen[static_cast<size_t>(i)] != 1) {
      return "request " + std::to_string(i) + " finished " +
             std::to_string(seen[static_cast<size_t>(i)]) + " times";
    }
  }

  // Prompt-sharing upper bound on cache hits (text prompts only; vision token streams are
  // compared per modality by the engine, so the global-prefix bound does not apply).
  std::vector<Prompt> prompts;
  prompts.reserve(static_cast<size_t>(n));
  for (const FuzzRequestSpec& r : s.requests) {
    prompts.push_back(BuildFuzzPrompt(r));
  }
  const bool text_only = s.model != FuzzModel::kVision;
  int64_t sum_cached = 0;
  for (const RequestRecord& record : m.finished()) {
    const FuzzRequestSpec& rs = s.requests[static_cast<size_t>(record.id)];
    const std::string tag = " (req " + std::to_string(record.id) + ")";
    if (rs.oversized && !record.failed) {
      return "oversized request did not fail" + tag;
    }
    if (!record.failed && record.output_len != rs.output_len) {
      return "completed with output " + std::to_string(record.output_len) + " != requested " +
             std::to_string(rs.output_len) + tag;
    }
    if (record.cached_prefix_tokens < 0 || record.cached_prefix_tokens % 16 != 0) {
      return "cache hit length " + std::to_string(record.cached_prefix_tokens) +
             " not page-aligned" + tag;
    }
    if (record.cached_prefix_tokens >= record.prompt_len && record.prompt_len > 0) {
      return "cache hit covered the whole prompt" + tag;
    }
    if (s.spec_engine && record.cached_prefix_tokens != 0) {
      return "spec decode runs with prefix caching off but recorded hits" + tag;
    }
    sum_cached += record.cached_prefix_tokens;
    const Request& r = harness->Req(record.id);
    if (text_only && r.preemptions == 0 && !s.offload) {
      // A fresh request's hits can only come from prompt blocks some other request computed.
      int64_t max_share = 0;
      const Prompt& mine = prompts[static_cast<size_t>(record.id)];
      for (int j = 0; j < n; ++j) {
        if (j == record.id) {
          continue;
        }
        const Prompt& other = prompts[static_cast<size_t>(j)];
        const int64_t limit = std::min(mine.size(), other.size());
        int64_t k = 0;
        while (k < limit && mine.tokens[static_cast<size_t>(k)] ==
                                other.tokens[static_cast<size_t>(k)]) {
          ++k;
        }
        max_share = std::max(max_share, k);
      }
      if (record.cached_prefix_tokens > max_share) {
        return "cache hit " + std::to_string(record.cached_prefix_tokens) +
               " exceeds max shared prompt prefix " + std::to_string(max_share) + tag;
      }
    }
  }
  if (sum_cached > m.cache_hit_tokens) {
    return "finished-record cache hits exceed the metrics counter";
  }
  const int64_t kv_hits = harness->KvCacheHitTokens();
  if (kv_hits >= 0 && kv_hits != m.cache_hit_tokens) {
    return "KvManager hit total " + std::to_string(kv_hits) + " != engine metrics " +
           std::to_string(m.cache_hit_tokens);
  }
  const SwapManager::Stats swap = SwapStats(harness->Core());
  if (swap.swap_in_events + m.swap_fallback_events > swap.swap_out_events) {
    return "swap resolutions exceed swap-outs";
  }
  if (!s.offload && swap.stall_time != 0.0) {
    return "stall time nonzero with the offload tier disabled";
  }

  if (settled_walks != nullptr) {
    for (int i = 0; i < harness->Core().num_managers(); ++i) {
      *settled_walks += harness->Core().manager(i).settled_walks();
    }
  }
  if (signature != nullptr) {
    std::ostringstream sig;
    for (const RequestRecord& record : m.finished()) {
      char times[128];
      std::snprintf(times, sizeof(times), "%.12g/%.12g/%.12g/%.12g", record.arrival_time,
                    record.first_scheduled_time, record.first_token_time, record.finish_time);
      sig << record.id << ":" << record.prompt_len << ":" << record.output_len << ":"
          << record.cached_prefix_tokens << ":" << record.preemptions << ":" << record.failed
          << ":" << times << "\n";
    }
    sig << "hits=" << m.cache_hit_tokens << " recomputed=" << m.recomputed_tokens
        << " prefill=" << m.prefill_tokens_computed << " vision=" << m.vision_encoder_runs
        << " swap=" << swap.swap_out_events << "/" << swap.swap_in_events << "/"
        << m.swap_fallback_events << "\n";
    *signature += sig.str();
  }
  return std::string();
}

// Full check for one schedule: audited run + determinism differential (second, unaudited run
// must produce a byte-identical outcome signature). Adds the audited run's settled claim walks
// to `settled_walks` when it is non-null.
std::string CheckSchedule(const FuzzSchedule& s, int64_t* settled_walks = nullptr) {
  std::string sig_a;
  std::string failure = RunSchedule(s, /*with_audit=*/true, &sig_a, settled_walks);
  if (!failure.empty()) {
    return failure;
  }
  std::string sig_b;
  failure = RunSchedule(s, /*with_audit=*/false, &sig_b);
  if (!failure.empty()) {
    return failure + " (second, unaudited run)";
  }
  if (sig_a != sig_b) {
    return "nondeterministic outcome:\n--- audited run ---\n" + sig_a +
           "--- unaudited run ---\n" + sig_b;
  }
  return std::string();
}

// Greedy minimization: drop requests, then shrink lengths, as long as the failure persists.
FuzzSchedule MinimizeSchedule(FuzzSchedule s) {
  bool shrunk = true;
  int budget = 128;
  while (shrunk && budget > 0) {
    shrunk = false;
    for (size_t i = 0; i < s.requests.size() && s.requests.size() > 1 && budget > 0; ++i) {
      FuzzSchedule candidate = s;
      candidate.requests.erase(candidate.requests.begin() + static_cast<int64_t>(i));
      --budget;
      if (!CheckSchedule(candidate).empty()) {
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
      if (!CheckSchedule(candidate).empty()) {
        s = candidate;
        shrunk = true;
        break;
      }
    }
  }
  return s;
}

constexpr uint64_t kDefaultSchedules = 200;

// Checks `schedules` schedules drawn by `draw` from consecutive seeds; returns the claim walks
// their audited runs settled from counters.
template <typename Draw>
int64_t RunSchedules(Draw draw, uint64_t seed_base, uint64_t schedules) {
  const std::optional<uint64_t> forced_seed = TestEnvUint("JENGA_FUZZ_SEED");
  if (forced_seed) {
    schedules = 1;
  }
  int64_t settled_walks = 0;
  for (uint64_t i = 0; i < schedules; ++i) {
    const uint64_t seed = forced_seed ? *forced_seed : seed_base + i;
    const FuzzSchedule schedule = draw(seed);
    if (forced_seed) {
      std::fprintf(stderr, "replaying schedule:\n%s", DescribeFuzzSchedule(schedule).c_str());
    }
    const std::string failure = CheckSchedule(schedule, &settled_walks);
    if (failure.empty()) {
      continue;
    }
    const FuzzSchedule minimized = MinimizeSchedule(schedule);
    const std::string min_failure = CheckSchedule(minimized);
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    ADD_FAILURE() << "fuzz failure with seed 0x" << std::hex << seed << std::dec << ":\n"
                  << failure << "\n\noriginal schedule:\n"
                  << DescribeFuzzSchedule(schedule) << "\nminimized schedule ("
                  << (min_failure.empty() ? "failure did not survive minimization" : min_failure)
                  << "):\n"
                  << DescribeFuzzSchedule(minimized) << "\nreproduce with:\n  JENGA_FUZZ_SEED=0x"
                  << std::hex << seed << std::dec
                  << " ./build/tests/engine_fuzz_test --gtest_filter=" << info->test_suite_name()
                  << "." << info->name();
    return settled_walks;
  }
  return settled_walks;
}

uint64_t ScheduleCount() {
  return TestEnvUint("JENGA_FUZZ_SCHEDULES").value_or(kDefaultSchedules);
}

void RunCombination(bool spec_engine, bool offload, uint64_t seed_base) {
  RunSchedules([=](uint64_t seed) { return DrawFuzzSchedule(seed, spec_engine, offload); },
               seed_base, ScheduleCount());
}

// ---------------------------------------------------------------------------------------
// The four engine/tier combinations (>= 200 seeded schedules each by default).

TEST(EngineFuzz, AllocatorStackNoOffload) {
  RunCombination(/*spec_engine=*/false, /*offload=*/false, 0xE1000000ull);
}

TEST(EngineFuzz, AllocatorStackWithOffload) {
  RunCombination(/*spec_engine=*/false, /*offload=*/true, 0xE2000000ull);
}

TEST(SpecDecodeFuzz, AllocatorStackNoOffload) {
  RunCombination(/*spec_engine=*/true, /*offload=*/false, 0xE3000000ull);
}

TEST(SpecDecodeFuzz, AllocatorStackWithOffload) {
  RunCombination(/*spec_engine=*/true, /*offload=*/true, 0xE4000000ull);
}

// The spec-batch shape (DrawSpecBatchSchedule) is where grows that pass the bound fail in the
// claim walk, so it is where KvManager settles them from counters; the auditor checks every
// settlement's events and free lists. The floor keeps the shape reaching that path.
TEST(SpecDecodeFuzz, SpecBatchShapeSettlesDoomedWalks) {
  const uint64_t schedules = ScheduleCount();
  const int64_t settled = RunSchedules(DrawSpecBatchSchedule, 0xE5000000ull, schedules);
  if (HasFailure() || TestEnvUint("JENGA_FUZZ_SEED")) {
    return;
  }
  std::printf("spec-batch shape: %lld claim walks settled across %llu schedules\n",
              static_cast<long long>(settled), static_cast<unsigned long long>(schedules));
  // 213 at the default count when the shape was introduced.
  constexpr int64_t kMinSettledPerDefaultRun = 100;
  EXPECT_GE(settled, kMinSettledPerDefaultRun * static_cast<int64_t>(schedules) /
                         static_cast<int64_t>(kDefaultSchedules));
}

// ---------------------------------------------------------------------------------------
// Negative control: the auditor must actually detect divergence, not just stay silent.

TEST(AllocatorAuditorFuzz, DetectsInjectedShadowDivergence) {
  const FuzzSchedule s = DrawFuzzSchedule(0xD1AB0, /*spec_engine=*/false, /*offload=*/false);
  EngineFuzzHarness harness(s);
  AllocatorAuditor auditor;
  harness.AttachAudit(&auditor);
  // Run a few steps so slots exist, verifying green along the way.
  for (int i = 0; i < 6 && harness.Step(); ++i) {
    ExpectConsistent(auditor);
  }
  ASSERT_GT(auditor.events_observed(), 0);
  auditor.InjectShadowFaultForTest();
  const auto violations = auditor.Audit();
  ASSERT_FALSE(violations.empty())
      << "auditor failed to flag an artificially diverged shadow state";
}

TEST(AllocatorAuditorFuzz, DetachRestoresNullSink) {
  FuzzSchedule s = DrawFuzzSchedule(0xD1AB1, /*spec_engine=*/false, /*offload=*/true);
  EngineFuzzHarness harness(s);
  AllocatorAuditor auditor;
  harness.AttachAudit(&auditor);
  for (int i = 0; i < 4 && harness.Step(); ++i) {
  }
  const int64_t seen = auditor.events_observed();
  auditor.DetachAll();
  for (int i = 0; i < 4 && harness.Step(); ++i) {
  }
  EXPECT_EQ(auditor.events_observed(), seen) << "detached auditor still received events";
  EXPECT_EQ(auditor.num_attached_allocators(), 0);
}

}  // namespace
}  // namespace jenga

// StepProfiler coverage (DESIGN.md §12): exclusive-time accounting for the StepOnce phases
// and the two contracts the engines rely on:
//
//   - attach transparency: the profiler reads only the host wall clock, never the engine's
//     logical tick or simulated time, so an attached run must be byte-identical to a
//     detached one — same steps, same sim clock, same finished records, same metrics;
//   - preemption attribution: the whole Preempt() body — including the PR 9 TrimToComputed
//     trim and the release-to-cache walk — bills to kEvictPreempt, pausing whatever scope
//     drove it. Preemption-driven trim/eviction work must never leak into kAllocate or
//     kCommit (the micro.cache_churn_offload double-counting rule).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "src/engine/engine.h"
#include "src/metrics/step_profiler.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

// Busy-wait long enough that the wall clock visibly advances (ns resolution, so even one
// microsecond is thousands of observable units).
void Spin(int64_t us) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

EngineConfig PressureConfig() {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  EngineConfig config;
  config.model = model;
  config.gpu = TestGpu();
  config.jenga = true;
  config.pool_bytes_override = spec.LcmPageBytes() * 24;
  return config;
}

void SubmitPressureBatch(Engine& engine) {
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96), 80, 0.0));
  }
}

int64_t TotalPreemptions(const EngineMetrics& metrics) {
  int64_t total = 0;
  for (const RequestRecord& record : metrics.finished()) {
    total += record.preemptions;
  }
  return total;
}

// --- Unit ---

TEST(StepProfilerUnit, NestedScopesChargeExclusiveTime) {
  StepProfiler prof;
  {
    StepProfiler::StepScope step(&prof);
    StepProfiler::Scope schedule(&prof, StepPhase::kSchedule);
    Spin(200);
    {
      // Nested scope pauses the parent: allocate time must not also count as schedule time.
      StepProfiler::Scope allocate(&prof, StepPhase::kAllocate);
      Spin(200);
    }
    Spin(200);
  }
  EXPECT_EQ(prof.steps(), 1);
  EXPECT_EQ(prof.phase(StepPhase::kSchedule).calls, 1);
  EXPECT_EQ(prof.phase(StepPhase::kAllocate).calls, 1);
  EXPECT_GT(prof.phase(StepPhase::kSchedule).ns, 0);
  EXPECT_GT(prof.phase(StepPhase::kAllocate).ns, 0);
  // Exclusive accounting: the phase totals partition total_ns, so shares sum to 100%.
  int64_t sum_ns = 0;
  double sum_share = 0.0;
  for (int p = 0; p < kNumStepPhases; ++p) {
    sum_ns += prof.phase(static_cast<StepPhase>(p)).ns;
    sum_share += prof.PhaseShare(static_cast<StepPhase>(p));
  }
  EXPECT_EQ(sum_ns, prof.total_ns());
  EXPECT_NEAR(sum_share, 1.0, 1e-9);
}

TEST(StepProfilerUnit, GapsInsideAStepChargeToOther) {
  StepProfiler prof;
  {
    StepProfiler::StepScope step(&prof);
    Spin(200);  // No phase scope open: remainder time.
  }
  EXPECT_GT(prof.phase(StepPhase::kOther).ns, 0);
  EXPECT_EQ(prof.phase(StepPhase::kOther).calls, 0);  // kOther is a remainder, not a scope.
}

TEST(StepProfilerUnit, OutOfStepScopeChargesPhaseOnly) {
  // A governor-driven Preempt between steps: charged to its phase, never to kOther.
  StepProfiler prof;
  {
    StepProfiler::Scope preempt(&prof, StepPhase::kEvictPreempt);
    Spin(200);
  }
  EXPECT_EQ(prof.steps(), 0);
  EXPECT_GT(prof.phase(StepPhase::kEvictPreempt).ns, 0);
  EXPECT_EQ(prof.phase(StepPhase::kOther).ns, 0);
  EXPECT_EQ(prof.total_ns(), prof.phase(StepPhase::kEvictPreempt).ns);
}

TEST(StepProfilerUnit, NullProfilerScopesAreNoops) {
  StepProfiler::StepScope step(nullptr);
  StepProfiler::Scope scope(nullptr, StepPhase::kGpuSim);
  // Nothing to assert beyond "does not crash": the detached path is a pointer test.
}

TEST(StepProfilerUnit, ResetClears) {
  StepProfiler prof;
  {
    StepProfiler::StepScope step(&prof);
    StepProfiler::Scope scope(&prof, StepPhase::kCommit);
    Spin(100);
  }
  ASSERT_GT(prof.total_ns(), 0);
  prof.Reset();
  EXPECT_EQ(prof.steps(), 0);
  EXPECT_EQ(prof.total_ns(), 0);
  EXPECT_EQ(prof.phase(StepPhase::kCommit).ns, 0);
  EXPECT_EQ(prof.phase(StepPhase::kCommit).calls, 0);
  EXPECT_EQ(prof.PhaseShare(StepPhase::kCommit), 0.0);
}

TEST(StepProfilerUnit, PhaseNamesAreDistinctAndNonNull) {
  for (int p = 0; p < kNumStepPhases; ++p) {
    ASSERT_NE(StepPhaseName(static_cast<StepPhase>(p)), nullptr);
    for (int q = p + 1; q < kNumStepPhases; ++q) {
      EXPECT_STRNE(StepPhaseName(static_cast<StepPhase>(p)),
                   StepPhaseName(static_cast<StepPhase>(q)));
    }
  }
}

// --- Attach contract ---

// Attaching the profiler must not perturb the simulation: the profiler only reads the host
// wall clock, so a profiled run and a detached run produce identical trajectories.
TEST(StepProfilerEngine, AttachedRunIsByteIdenticalToDetached) {
  Engine detached(PressureConfig());
  SubmitPressureBatch(detached);
  detached.RunToCompletion();

  StepProfiler prof;
  Engine attached(PressureConfig());
  attached.set_step_profiler(&prof);
  SubmitPressureBatch(attached);
  attached.RunToCompletion();

  EXPECT_EQ(attached.metrics().total_steps(), detached.metrics().total_steps());
  EXPECT_EQ(attached.now(), detached.now());
  const auto& a = attached.metrics().finished();
  const auto& d = detached.metrics().finished();
  ASSERT_EQ(a.size(), d.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, d[i].id);
    EXPECT_EQ(a[i].preemptions, d[i].preemptions);
    EXPECT_EQ(a[i].cached_prefix_tokens, d[i].cached_prefix_tokens);
    EXPECT_EQ(a[i].first_scheduled_time, d[i].first_scheduled_time);
    EXPECT_EQ(a[i].first_token_time, d[i].first_token_time);
    EXPECT_EQ(a[i].finish_time, d[i].finish_time);
    EXPECT_EQ(a[i].failed, d[i].failed);
    EXPECT_EQ(a[i].cancelled, d[i].cancelled);
  }
  // And the profiler actually observed the run.
  EXPECT_EQ(prof.steps(), attached.metrics().total_steps());
  EXPECT_GT(prof.total_ns(), 0);
}

TEST(StepProfilerEngine, DetachMidRunStopsCharging) {
  StepProfiler prof;
  Engine engine(PressureConfig());
  engine.set_step_profiler(&prof);
  SubmitPressureBatch(engine);
  for (int i = 0; i < 8 && engine.StepOnce(); ++i) {
  }
  const int64_t steps_attached = prof.steps();
  ASSERT_GT(steps_attached, 0);
  engine.set_step_profiler(nullptr);
  engine.RunToCompletion();
  EXPECT_EQ(prof.steps(), steps_attached);
  EXPECT_GT(engine.metrics().total_steps(), steps_attached);
}

// --- Attribution ---

// Preemption-heavy run: every Preempt() — trim included — lands in kEvictPreempt, one scope
// entry per preemption. If the trim ever migrated into the allocate/commit path this parity
// breaks (micro.cache_churn_offload double-counting regression).
TEST(StepProfilerEngine, PreemptionWorkBillsToEvictPreempt) {
  StepProfiler prof;
  Engine engine(PressureConfig());
  engine.set_step_profiler(&prof);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();

  const int64_t preemptions = TotalPreemptions(engine.metrics());
  ASSERT_GT(preemptions, 0) << "pressure schedule no longer preempts; PressureConfig drifted";
  EXPECT_EQ(prof.phase(StepPhase::kEvictPreempt).calls, preemptions);
  EXPECT_GT(prof.phase(StepPhase::kEvictPreempt).ns, 0);
  // The hot phases all fired; the hook-dispatch fast path stayed on its null branch.
  EXPECT_GT(prof.phase(StepPhase::kSchedule).calls, 0);
  EXPECT_GT(prof.phase(StepPhase::kAllocate).calls, 0);
  EXPECT_GT(prof.phase(StepPhase::kGpuSim).calls, 0);
  EXPECT_GT(prof.phase(StepPhase::kCommit).calls, 0);
}

// Eviction without preemption (sequential requests churning the prefix cache) must NOT be
// charged to kEvictPreempt: allocation-driven cache eviction is allocate work.
TEST(StepProfilerEngine, CacheEvictionWithoutPreemptStaysOutOfEvictPreempt) {
  StepProfiler prof;
  Engine engine(PressureConfig());
  engine.set_step_profiler(&prof);
  // One request at a time: no victim to preempt, but each new prompt (distinct token base)
  // must evict the previous request's cached pages from the undersized pool.
  for (int i = 0; i < 6; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96, /*base=*/1000 * (i + 1)), 16, engine.now()));
    engine.RunToCompletion();
  }
  EXPECT_EQ(TotalPreemptions(engine.metrics()), 0);
  EXPECT_EQ(prof.phase(StepPhase::kEvictPreempt).calls, 0);
  EXPECT_EQ(prof.phase(StepPhase::kEvictPreempt).ns, 0);
  EXPECT_GT(prof.phase(StepPhase::kAllocate).calls, 0);
  ExpectConsistent(engine.kv());
}

}  // namespace
}  // namespace jenga

// MemoryGovernor behavior (ISSUE 9 tentpole): hysteresis-gate boundary semantics, external
// capacity deltas, the pressure ladder (park → shed → repartition-to-fallback), model
// hot-swaps with rollback under the repartition_commit fault site, and the adaptive
// draft/target split on the spec-decode engine. Detached (or attached but never acting) the
// governor must leave engine outcomes byte-identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/elastic/memory_governor.h"
#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "src/fault/fault_injector.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

// --- HysteresisGate: exact-boundary semantics (load-bearing; see memory_governor.h) ---

TEST(HysteresisGate, EngagesExactlyAtTheHighWatermark) {
  HysteresisGate gate(0.80, 0.92);
  EXPECT_FALSE(gate.Update(0.9199999));  // Strictly below high: stays released.
  EXPECT_TRUE(gate.Update(0.92));        // value == high engages.
  EXPECT_TRUE(gate.engaged());
}

TEST(HysteresisGate, ReleasesOnlyStrictlyBelowTheLowWatermark) {
  HysteresisGate gate(0.80, 0.92);
  ASSERT_TRUE(gate.Update(0.95));
  EXPECT_TRUE(gate.Update(0.80));        // value == low stays engaged.
  EXPECT_TRUE(gate.Update(0.85));        // Inside the band: state preserved.
  EXPECT_FALSE(gate.Update(0.7999999));  // Strictly below low releases.
}

TEST(HysteresisGate, BandPreservesStateInBothDirections) {
  HysteresisGate gate(0.80, 0.92);
  // Released, oscillating inside the band: never engages.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(gate.Update(i % 2 == 0 ? 0.81 : 0.91));
  }
  ASSERT_TRUE(gate.Update(0.92));
  // Engaged, oscillating inside the band: never releases — no ladder flapping.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(gate.Update(i % 2 == 0 ? 0.91 : 0.81));
  }
}

TEST(HysteresisGate, RepeatedCrossingsToggleExactlyOncePerCrossing) {
  HysteresisGate gate(0.5, 0.5);  // Degenerate band: low == high is legal.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(gate.Update(0.5));   // >= high engages; == low stays engaged.
    EXPECT_FALSE(gate.Update(0.49)); // < low releases.
  }
}

// --- Engine-mode governor ---

EngineConfig GovEngineConfig(int64_t pool_bytes) {
  EngineConfig config;
  config.model = TinyFullModel();
  config.gpu = TestGpu();
  config.pool_bytes_override = pool_bytes;
  config.max_num_seqs_override = 4;
  return config;
}

void SubmitBatch(Engine& engine, int n, int64_t prompt_len = 64, int64_t output_len = 32) {
  for (int i = 0; i < n; ++i) {
    engine.Submit(
        MakeRequest(i, TextPrompt(prompt_len, 100 + 1000 * i), output_len, 0.0));
  }
}

TEST(MemoryGovernor, AttachedButIdleGovernorIsOutcomeIdentical) {
  // A governor that never engages (watermark above any reachable occupancy, no queued
  // events) must not perturb the engine: same steps, same per-request timings.
  GovernorConfig gc;
  gc.high_watermark = 2.0;  // Occupancy is <= 1.0: unreachable.
  gc.low_watermark = 1.5;
  MemoryGovernor governor(gc);

  Engine plain(GovEngineConfig(1 << 20));
  Engine hooked(GovEngineConfig(1 << 20));
  governor.AttachTo(hooked);
  SubmitBatch(plain, 3);
  SubmitBatch(hooked, 3);
  plain.RunToCompletion();
  hooked.RunToCompletion();

  EXPECT_EQ(plain.metrics().total_steps(), hooked.metrics().total_steps());
  ASSERT_EQ(plain.metrics().finished().size(), hooked.metrics().finished().size());
  for (size_t i = 0; i < plain.metrics().finished().size(); ++i) {
    const RequestRecord& a = plain.metrics().finished()[i];
    const RequestRecord& b = hooked.metrics().finished()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.output_len, b.output_len);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
  }
  EXPECT_EQ(governor.stats().engagements, 0);
}

TEST(MemoryGovernor, PoolDeltaGrowsInStepsUntilSatisfied) {
  GovernorConfig gc;
  gc.cooldown_steps = 0;
  gc.grow_step_pages = 2;
  MemoryGovernor governor(gc);
  Engine engine(GovEngineConfig(1 << 20));
  governor.AttachTo(engine);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());

  const int32_t initial = engine.PoolPages();
  governor.RequestPoolDelta(+6);
  SubmitBatch(engine, 2);
  engine.RunToCompletion();

  EXPECT_EQ(engine.PoolPages(), initial + 6);
  EXPECT_EQ(governor.pending_pool_delta(), 0);
  EXPECT_EQ(governor.stats().grow_actions, 3);  // 2 pages per boundary.
  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.pool_grow_pages - m.pool_shrink_pages, engine.PoolPages() - initial);
  ExpectConsistent(auditor);
}

TEST(MemoryGovernor, PoolDeltaShrinkDrainsAFreeTail) {
  GovernorConfig gc;
  gc.cooldown_steps = 0;
  gc.shrink_step_pages = 4;
  MemoryGovernor governor(gc);
  // Generous pool: the tail stays free, so the shrink commits on the first boundary.
  Engine engine(GovEngineConfig(1 << 21));
  governor.AttachTo(engine);
  const int32_t initial = engine.PoolPages();
  governor.RequestPoolDelta(-4);
  SubmitBatch(engine, 2);
  engine.RunToCompletion();

  EXPECT_EQ(engine.PoolPages(), initial - 4);
  EXPECT_EQ(governor.pending_pool_delta(), 0);
  EXPECT_EQ(governor.stats().shrink_actions, 1);
  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.pool_grow_pages - m.pool_shrink_pages, engine.PoolPages() - initial);
}

TEST(MemoryGovernor, GrowRollbacksRetryUntilTheDeltaLands) {
  // pool_grow fires on the first consult only: the governor's first grow step rolls back
  // with zero net change, then the retry commits — the delta still lands in full.
  EngineConfig config = GovEngineConfig(1 << 20);
  JENGA_CHECK(FaultPlan::Parse("pool_grow:at=0", &config.fault.plan).ok());
  config.fault.seed = 0xE1C;
  GovernorConfig gc;
  gc.cooldown_steps = 0;
  gc.grow_step_pages = 2;
  MemoryGovernor governor(gc);
  Engine engine(std::move(config));
  governor.AttachTo(engine);

  const int32_t initial = engine.PoolPages();
  governor.RequestPoolDelta(+4);
  SubmitBatch(engine, 2);
  engine.RunToCompletion();

  EXPECT_EQ(engine.PoolPages(), initial + 4);
  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.pool_grow_rollbacks, 1);
  EXPECT_EQ(m.pool_grow_attempts, m.pool_grow_rollbacks + governor.stats().grow_actions);
  EXPECT_EQ(m.pool_grow_pages - m.pool_shrink_pages, engine.PoolPages() - initial);
}

TEST(MemoryGovernor, PressureLadderParksAndShedsUnderSustainedPressure) {
  // 10-page pool vs 4 concurrent requests that want ~24 pages: occupancy pins above the
  // high watermark, so the ladder must engage, park the newest runner, and escalate to
  // shedding while pressure persists. The shed ledger stays exact.
  GovernorConfig gc;
  gc.high_watermark = 0.60;
  gc.low_watermark = 0.40;
  gc.cooldown_steps = 1;
  MemoryGovernor governor(gc);
  Engine engine(GovEngineConfig(/*pool_bytes=*/10 * 16384));
  governor.AttachTo(engine);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());

  SubmitBatch(engine, 4, /*prompt_len=*/64, /*output_len=*/32);
  engine.RunToCompletion();

  EXPECT_GE(governor.stats().engagements, 1);
  const EngineMetrics& m = engine.metrics();
  EXPECT_GT(m.elastic_parked + m.elastic_shed, 0);
  EXPECT_EQ(m.shed_requests, m.elastic_shed);  // The admission shed gate is off.
  EXPECT_EQ(m.cancelled_requests, m.shed_requests);  // Sheds are the only cancellations.
  // Every request reached a terminal state exactly once (shed ones as failed records).
  EXPECT_EQ(m.finished().size(), 4u);
  ExpectConsistent(auditor);
}

TEST(MemoryGovernor, LadderEscalatesToFallbackRepartitionWhenParkAndShedCannotHelp) {
  // One oversized runner (park refuses the only runner, nothing waits to shed) pins a
  // 8-page pool at 75%: the ladder walks through both refusals to the repartition rung and
  // installs the fallback layout with a doubled pool, relieving the pressure.
  GovernorConfig gc;
  gc.high_watermark = 0.60;
  gc.low_watermark = 0.40;
  gc.cooldown_steps = 0;
  gc.fallback_model = TinyFullModel();
  gc.fallback_pool_bytes = 16 * 16384;
  MemoryGovernor governor(gc);
  Engine engine(GovEngineConfig(/*pool_bytes=*/8 * 16384));
  governor.AttachTo(engine);

  engine.Submit(MakeRequest(0, TextPrompt(96), /*output_len=*/32, 0.0));
  engine.RunToCompletion();

  EXPECT_EQ(governor.stats().repartition_actions, 1);
  EXPECT_EQ(engine.metrics().repartitions, 1);
  EXPECT_EQ(engine.PoolPages(), 16);
  EXPECT_EQ(engine.metrics().elastic_parked, 0);
  EXPECT_EQ(engine.metrics().elastic_shed, 0);
  const RequestRecord& r = engine.metrics().finished().front();
  EXPECT_FALSE(r.failed);  // The repartition aborted nothing.
  EXPECT_EQ(r.output_len, 32);
}

// --- Hot swap ---

TEST(MemoryGovernor, HotSwapCommitsMidTraceWithoutAbortingInFlightRequests) {
  GovernorConfig gc;
  gc.cooldown_steps = 2;
  MemoryGovernor governor(gc);
  Engine engine(GovEngineConfig(1 << 21));
  governor.AttachTo(engine);
  SubmitBatch(engine, 3, /*prompt_len=*/64, /*output_len=*/48);
  for (int i = 0; i < 6; ++i) {
    engine.StepOnce();
  }
  ASSERT_GT(engine.num_running(), 0);

  governor.RequestHotSwap(TinySlidingModel(), /*pool_bytes=*/1 << 21);
  EXPECT_TRUE(governor.hot_swap_pending());
  engine.RunToCompletion();

  EXPECT_FALSE(governor.hot_swap_pending());
  EXPECT_EQ(governor.stats().hot_swaps_applied, 1);
  EXPECT_EQ(governor.stats().hot_swap_rollbacks, 0);
  EXPECT_FALSE(engine.elastic_draining());
  EXPECT_EQ(engine.config().model.name, "tiny-sliding");
  ASSERT_EQ(engine.metrics().finished().size(), 3u);
  for (const RequestRecord& r : engine.metrics().finished()) {
    EXPECT_FALSE(r.failed) << "request " << r.id;
    EXPECT_FALSE(r.cancelled) << "request " << r.id;
  }
}

TEST(MemoryGovernor, HotSwapRollsBackOnTheFaultSiteThenCommitsOnRetry) {
  EngineConfig config = GovEngineConfig(1 << 21);
  JENGA_CHECK(FaultPlan::Parse("repartition_commit:at=0", &config.fault.plan).ok());
  config.fault.seed = 0xE1D;
  GovernorConfig gc;
  gc.cooldown_steps = 1;
  MemoryGovernor governor(gc);
  Engine engine(std::move(config));
  governor.AttachTo(engine);
  SubmitBatch(engine, 3);
  governor.RequestHotSwap(TinySlidingModel(), /*pool_bytes=*/1 << 21);

  // First boundary: the commit site fires, the swap rolls back, and the engine stays
  // draining (the fleet router spills around it) while the governor retries.
  ASSERT_TRUE(engine.StepOnce());
  EXPECT_EQ(governor.stats().hot_swap_rollbacks, 1);
  EXPECT_TRUE(governor.hot_swap_pending());
  EXPECT_TRUE(engine.elastic_draining());
  EXPECT_EQ(engine.config().model.name, "tiny-full");
  EXPECT_EQ(engine.metrics().repartition_rollbacks, 1);

  engine.RunToCompletion();
  EXPECT_EQ(governor.stats().hot_swaps_applied, 1);
  EXPECT_FALSE(engine.elastic_draining());
  EXPECT_EQ(engine.config().model.name, "tiny-sliding");
  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.repartition_attempts, m.repartitions + m.repartition_rollbacks);
  for (const RequestRecord& r : m.finished()) {
    EXPECT_FALSE(r.failed) << "request " << r.id;
  }
}

TEST(MemoryGovernor, HotSwapIsAbandonedAfterTheRetryBudgetAndTheEngineRecovers) {
  EngineConfig config = GovEngineConfig(1 << 21);
  JENGA_CHECK(FaultPlan::Parse("repartition_commit:every=1", &config.fault.plan).ok());
  config.fault.seed = 0xE1E;
  GovernorConfig gc;
  gc.cooldown_steps = 0;
  gc.max_hot_swap_retries = 3;
  MemoryGovernor governor(gc);
  Engine engine(std::move(config));
  governor.AttachTo(engine);
  SubmitBatch(engine, 3);
  governor.RequestHotSwap(TinySlidingModel(), /*pool_bytes=*/1 << 21);
  engine.RunToCompletion();

  EXPECT_EQ(governor.stats().hot_swaps_abandoned, 1);
  EXPECT_EQ(governor.stats().hot_swap_rollbacks, 3);
  EXPECT_EQ(governor.stats().hot_swaps_applied, 0);
  EXPECT_FALSE(governor.hot_swap_pending());
  EXPECT_FALSE(engine.elastic_draining());
  EXPECT_EQ(engine.config().model.name, "tiny-full");  // Old layout kept.
  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.repartition_rollbacks, 3);
  EXPECT_EQ(m.repartition_attempts, m.repartitions + m.repartition_rollbacks);
  for (const RequestRecord& r : m.finished()) {
    EXPECT_FALSE(r.failed) << "request " << r.id;
  }
}

// --- Spec-decode mode: adaptive draft/target split ---

TEST(MemoryGovernor, AdaptiveSplitShiftsCapacityTowardThePressuredPool) {
  // A deliberately wrong static split (50% draft for a model pair whose draft KV is 4x
  // smaller) leaves the target pool pressured and the draft pool idle: the governor must
  // shift capacity draft → target until the pressure clears.
  SpecDecodeConfig config;
  config.target = TinyFullModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.strategy = SpecStrategy::kVllmManual;
  config.pool_bytes_override = 1 << 20;
  config.max_num_seqs_override = 4;
  config.manual_draft_fraction = 0.5;
  GovernorConfig gc;
  gc.high_watermark = 0.50;
  gc.low_watermark = 0.30;
  gc.cooldown_steps = 0;
  gc.split_shift_bytes = 16384;  // One recipient (target) page per shift.
  MemoryGovernor governor(gc);
  SpecDecodeEngine engine(std::move(config));
  governor.AttachTo(engine);
  const int64_t target_pool = engine.manager(0).GetMemoryStats().pool_bytes;

  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96, 100 + 1000 * i), /*output_len=*/32, 0.0));
  }
  engine.RunToCompletion();

  EXPECT_GT(governor.stats().split_shifts, 0);
  EXPECT_GT(engine.manager(0).GetMemoryStats().pool_bytes, target_pool);
  const EngineMetrics& m = engine.metrics();
  EXPECT_GT(m.pool_grow_pages, 0);
  EXPECT_GT(m.pool_shrink_pages, 0);
  ASSERT_EQ(m.finished().size(), 4u);
  for (const RequestRecord& r : m.finished()) {
    EXPECT_FALSE(r.failed) << "request " << r.id;
  }
}

TEST(MemoryGovernor, AdaptiveSplitStaysIdleWhenPoolsAreBalanced) {
  // Under the SmartSpec-proportional split both pools load evenly: no pool clears the high
  // watermark while the other has slack, so the governor never shifts — adaptive-from-
  // SmartSpec degrades to exactly SmartSpec (the Fig. 19 equality case).
  SpecDecodeConfig config;
  config.target = TinyFullModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.strategy = SpecStrategy::kVllmManual;
  config.pool_bytes_override = 1 << 20;
  config.max_num_seqs_override = 4;
  GovernorConfig gc;
  gc.cooldown_steps = 0;
  gc.split_shift_bytes = 16384;
  MemoryGovernor governor(gc);
  SpecDecodeEngine engine(std::move(config));
  governor.AttachTo(engine);

  for (int i = 0; i < 3; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(64, 100 + 1000 * i), /*output_len=*/16, 0.0));
  }
  engine.RunToCompletion();

  EXPECT_EQ(governor.stats().split_shifts, 0);
  EXPECT_EQ(engine.metrics().pool_grow_pages, 0);
  EXPECT_EQ(engine.metrics().pool_shrink_pages, 0);
}

}  // namespace
}  // namespace jenga

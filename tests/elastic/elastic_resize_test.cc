// Engine-level elastic primitives (ISSUE 9 tentpole): audited pool grow/shrink, the LCM
// repartition protocol (quiesce → rebuild → commit/rollback), and the spec-decode split
// shift — each exercised with and without its fault site armed, with the AllocatorAuditor
// green after every transition and the EngineMetrics resize ledger balancing exactly:
//
//   pool_grow_attempts   == committed grows   + pool_grow_rollbacks
//   pool_shrink_attempts == committed shrinks + pool_shrink_rollbacks
//   repartition_attempts == repartitions      + repartition_rollbacks
//   pool_grow_pages − pool_shrink_pages == current pool pages − initial pool pages
//                                          (per pool; reset by a committed repartition)

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/audit/allocator_auditor.h"
#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "src/fault/fault_injector.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

EngineConfig TinyEngineConfig(int64_t pool_bytes = 1 << 20) {
  EngineConfig config;
  config.model = TinyFullModel();
  config.gpu = TestGpu();
  config.pool_bytes_override = pool_bytes;
  config.max_num_seqs_override = 4;
  return config;
}

EngineConfig WithFaultPlan(EngineConfig config, const char* plan, uint64_t seed = 0xE1A) {
  JENGA_CHECK(FaultPlan::Parse(plan, &config.fault.plan).ok()) << plan;
  config.fault.seed = seed;
  return config;
}

// --- Engine grow/shrink ---

TEST(ElasticResize, GrowThenShrinkRoundTripsAndBalancesTheLedger) {
  Engine engine(TinyEngineConfig());
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  const int32_t initial = engine.PoolPages();

  EXPECT_EQ(engine.GrowKvPool(3), 3);
  EXPECT_EQ(engine.PoolPages(), initial + 3);
  ExpectConsistent(auditor);

  EXPECT_EQ(engine.ShrinkKvPool(3), 3);
  EXPECT_EQ(engine.PoolPages(), initial);
  ExpectConsistent(auditor);

  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.pool_grow_attempts, 1);
  EXPECT_EQ(m.pool_shrink_attempts, 1);
  EXPECT_EQ(m.pool_grow_pages, 3);
  EXPECT_EQ(m.pool_shrink_pages, 3);
  EXPECT_EQ(m.pool_grow_rollbacks, 0);
  EXPECT_EQ(m.pool_shrink_rollbacks, 0);
  EXPECT_EQ(m.pool_grow_pages - m.pool_shrink_pages, engine.PoolPages() - initial);
}

TEST(ElasticResize, ShrinkDrainsOnlyTheUnpinnedTail) {
  // A busy engine pins its low pages: shrinking by more than the free tail removes only what
  // actually drained, and the ledger records the partial result, not the ask.
  Engine engine(TinyEngineConfig(/*pool_bytes=*/1 << 21));
  engine.Submit(MakeRequest(1, TextPrompt(64), /*output_len=*/64, 0.0));
  for (int i = 0; i < 4; ++i) {
    engine.StepOnce();
  }
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  const int32_t initial = engine.PoolPages();
  const int32_t removed = engine.ShrinkKvPool(initial);  // Ask for the whole pool.
  EXPECT_GT(removed, 0);
  EXPECT_LT(removed, initial);  // The live request's pages stayed.
  EXPECT_EQ(engine.PoolPages(), initial - removed);
  EXPECT_EQ(engine.metrics().pool_shrink_pages, removed);
  ExpectConsistent(auditor);
  // The drained pool only holds the request's pinned prefix; give back enough pages for the
  // remaining decode (64 prompt + 64 output = 8 pages total) so the run can converge.
  EXPECT_EQ(engine.GrowKvPool(4), 4);
  engine.RunToCompletion();
  EXPECT_FALSE(engine.request(1).failed);
  EXPECT_EQ(engine.metrics().pool_grow_pages - engine.metrics().pool_shrink_pages,
            engine.PoolPages() - initial);
  ExpectConsistent(auditor);
}

TEST(ElasticResize, GrowRollbackUnderFaultLeavesThePoolUntouched) {
  Engine engine(WithFaultPlan(TinyEngineConfig(), "pool_grow:every=1"));
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  const int32_t initial = engine.PoolPages();
  EXPECT_EQ(engine.GrowKvPool(4), 0);
  EXPECT_EQ(engine.PoolPages(), initial);
  EXPECT_EQ(engine.metrics().pool_grow_attempts, 1);
  EXPECT_EQ(engine.metrics().pool_grow_rollbacks, 1);
  EXPECT_EQ(engine.metrics().pool_grow_pages, 0);
  EXPECT_GT(FaultsInjected(engine), 0);
  ExpectConsistent(auditor);
}

TEST(ElasticResize, ShrinkRollbackUnderFaultLeavesThePoolUntouched) {
  Engine engine(WithFaultPlan(TinyEngineConfig(), "pool_shrink_drain:every=1"));
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  const int32_t initial = engine.PoolPages();
  EXPECT_EQ(engine.ShrinkKvPool(4), 0);
  EXPECT_EQ(engine.PoolPages(), initial);
  EXPECT_EQ(engine.metrics().pool_shrink_attempts, 1);
  EXPECT_EQ(engine.metrics().pool_shrink_rollbacks, 1);
  EXPECT_EQ(engine.metrics().pool_shrink_pages, 0);
  ExpectConsistent(auditor);
}

// --- Engine repartition ---

TEST(ElasticResize, RepartitionCommitSwapsTheModelWithoutAbortingRequests) {
  Engine engine(TinyEngineConfig(/*pool_bytes=*/1 << 21));
  for (int i = 0; i < 3; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(64, 100 + 64 * i), /*output_len=*/32, 0.0));
  }
  for (int i = 0; i < 6; ++i) {
    engine.StepOnce();  // Get requests mid-flight before the swap.
  }
  ASSERT_GT(engine.num_running(), 0);

  ASSERT_TRUE(engine.RepartitionKvPool(TinySlidingModel(), /*new_pool_bytes=*/1 << 21));
  EXPECT_EQ(engine.config().model.name, "tiny-sliding");
  EXPECT_EQ(engine.metrics().repartition_attempts, 1);
  EXPECT_EQ(engine.metrics().repartitions, 1);
  EXPECT_EQ(engine.metrics().repartition_rollbacks, 0);
  // Quiesce preempted every runner; nothing was aborted.
  EXPECT_EQ(engine.num_running(), 0);
  EXPECT_EQ(engine.num_waiting(), 3);

  AllocatorAuditor auditor;  // Attach after the swap: the old allocator is gone.
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  engine.RunToCompletion();
  ExpectConsistent(auditor);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(engine.request(i).failed) << "request " << i;
    EXPECT_FALSE(engine.request(i).cancelled) << "request " << i;
  }
}

TEST(ElasticResize, RepartitionRollbackKeepsTheOldLayoutLive) {
  Engine engine(WithFaultPlan(TinyEngineConfig(/*pool_bytes=*/1 << 21),
                              "repartition_commit:every=1"));
  for (int i = 0; i < 2; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(48, 100 + 48 * i), /*output_len=*/16, 0.0));
  }
  for (int i = 0; i < 4; ++i) {
    engine.StepOnce();
  }
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  const int32_t pages_before = engine.PoolPages();

  EXPECT_FALSE(engine.RepartitionKvPool(TinySlidingModel()));
  EXPECT_EQ(engine.config().model.name, "tiny-full");
  EXPECT_EQ(engine.PoolPages(), pages_before);
  EXPECT_EQ(engine.metrics().repartition_attempts, 1);
  EXPECT_EQ(engine.metrics().repartitions, 0);
  EXPECT_EQ(engine.metrics().repartition_rollbacks, 1);
  ExpectConsistent(auditor);

  // The quiesced requests re-admit against the old layout and finish cleanly.
  engine.RunToCompletion();
  ExpectConsistent(auditor);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(engine.request(i).failed) << "request " << i;
  }
}

TEST(ElasticResize, RepartitionWithOffloadFlushesHostStateAndReattaches) {
  EngineConfig config = TinyEngineConfig(/*pool_bytes=*/1 << 21);
  config.offload.enabled = true;
  config.offload.host_pool_bytes = 1 << 24;
  Engine engine(std::move(config));
  for (int i = 0; i < 3; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(64, 100 + 64 * i), /*output_len=*/32, 0.0));
  }
  for (int i = 0; i < 8; ++i) {
    engine.StepOnce();
  }
  ASSERT_TRUE(engine.RepartitionKvPool(TinyFullModel(), /*new_pool_bytes=*/1 << 21));
  // Host-tier state keyed by the old layout was flushed wholesale at commit.
  ASSERT_NE(engine.swap(), nullptr);
  EXPECT_EQ(engine.swap()->host().used_bytes(), 0);
  EXPECT_EQ(engine.swap()->host().num_sets(), 0);
  EXPECT_FALSE(engine.swap()->degraded());

  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  auditor.AttachSwapManager(engine.swap_mutable());
  engine.RunToCompletion();
  ExpectConsistent(auditor);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(engine.request(i).failed) << "request " << i;
  }
}

// --- Spec-decode split shift ---

SpecDecodeConfig ManualSpecConfig(int64_t pool_bytes, double draft_fraction = -1.0) {
  SpecDecodeConfig config;
  config.target = TinyFullModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.strategy = SpecStrategy::kVllmManual;
  config.pool_bytes_override = pool_bytes;
  config.max_num_seqs_override = 4;
  config.manual_draft_fraction = draft_fraction;
  return config;
}

// tiny-full homogeneous pages are 16 KiB (16 tokens × 1 KiB/token), tiny-draft pages 4 KiB.
constexpr int64_t kTargetPage = 16384;
constexpr int64_t kDraftPage = 4096;

TEST(ElasticResize, ShiftSplitMovesWholePagesTargetToDraft) {
  SpecDecodeEngine engine(ManualSpecConfig(/*pool_bytes=*/1 << 21));
  ASSERT_EQ(engine.num_managers(), 2);
  ASSERT_EQ(engine.manager(0).allocator().lcm().large_page_bytes(), kTargetPage);
  ASSERT_EQ(engine.manager(1).allocator().lcm().large_page_bytes(), kDraftPage);
  const int32_t target_pages = engine.manager(0).allocator().lcm().num_pages();
  const int32_t draft_pages = engine.manager(1).allocator().lcm().num_pages();

  // One 16 KiB target page → four 4 KiB draft pages, no remainder.
  EXPECT_EQ(engine.ShiftSplit(0, 1, kTargetPage), 4 * kDraftPage);
  EXPECT_EQ(engine.manager(0).allocator().lcm().num_pages(), target_pages - 1);
  EXPECT_EQ(engine.manager(1).allocator().lcm().num_pages(), draft_pages + 4);
  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.pool_shrink_attempts, 1);
  EXPECT_EQ(m.pool_grow_attempts, 1);
  EXPECT_EQ(m.pool_shrink_pages, 1);
  EXPECT_EQ(m.pool_grow_pages, 4);
}

TEST(ElasticResize, ShiftSplitReturnsTheSubPageRemainderToTheDonor) {
  SpecDecodeEngine engine(ManualSpecConfig(/*pool_bytes=*/1 << 21));
  const int32_t target_pages = engine.manager(0).allocator().lcm().num_pages();
  const int32_t draft_pages = engine.manager(1).allocator().lcm().num_pages();

  // Five 4 KiB draft pages free 20 KiB → one 16 KiB target page; the 4 KiB remainder goes
  // back to the donor, so the net donor loss is exactly the bytes the recipient gained.
  EXPECT_EQ(engine.ShiftSplit(1, 0, 5 * kDraftPage), kTargetPage);
  EXPECT_EQ(engine.manager(1).allocator().lcm().num_pages(), draft_pages - 4);
  EXPECT_EQ(engine.manager(0).allocator().lcm().num_pages(), target_pages + 1);
  const EngineMetrics& m = engine.metrics();
  EXPECT_EQ(m.pool_shrink_pages, 4);  // 5 drained − 1 remainder re-grown.
  EXPECT_EQ(m.pool_grow_pages, 1);
}

TEST(ElasticResize, ShiftSplitSmallerThanOneRecipientPageIsRestoredInFull) {
  SpecDecodeEngine engine(ManualSpecConfig(/*pool_bytes=*/1 << 21));
  const int32_t target_pages = engine.manager(0).allocator().lcm().num_pages();
  const int32_t draft_pages = engine.manager(1).allocator().lcm().num_pages();
  // One draft page (4 KiB) cannot make a 16 KiB target page: full restore, zero delta.
  EXPECT_EQ(engine.ShiftSplit(1, 0, kDraftPage), 0);
  EXPECT_EQ(engine.manager(0).allocator().lcm().num_pages(), target_pages);
  EXPECT_EQ(engine.manager(1).allocator().lcm().num_pages(), draft_pages);
  EXPECT_EQ(engine.metrics().pool_shrink_pages, 0);
  EXPECT_EQ(engine.metrics().pool_grow_pages, 0);
}

TEST(ElasticResize, ShiftSplitRollsBackOnEitherFaultSite) {
  for (const char* plan : {"pool_shrink_drain:every=1", "pool_grow:every=1"}) {
    SpecDecodeConfig config = ManualSpecConfig(/*pool_bytes=*/1 << 21);
    JENGA_CHECK(FaultPlan::Parse(plan, &config.fault.plan).ok()) << plan;
    config.fault.seed = 0xE1B;
    SpecDecodeEngine engine(std::move(config));
    const int32_t target_pages = engine.manager(0).allocator().lcm().num_pages();
    const int32_t draft_pages = engine.manager(1).allocator().lcm().num_pages();

    EXPECT_EQ(engine.ShiftSplit(0, 1, kTargetPage), 0) << plan;
    EXPECT_EQ(engine.manager(0).allocator().lcm().num_pages(), target_pages) << plan;
    EXPECT_EQ(engine.manager(1).allocator().lcm().num_pages(), draft_pages) << plan;
    const EngineMetrics& m = engine.metrics();
    EXPECT_EQ(m.pool_shrink_pages, 0) << plan;
    EXPECT_EQ(m.pool_grow_pages, 0) << plan;
    EXPECT_EQ(m.pool_shrink_rollbacks + m.pool_grow_rollbacks, 1) << plan;
  }
}

TEST(ElasticResize, ShiftSplitRefusesOutsideManualStrategy) {
  SpecDecodeConfig config = ManualSpecConfig(/*pool_bytes=*/1 << 21);
  config.strategy = SpecStrategy::kJenga;  // One shared manager: nothing to shift between.
  SpecDecodeEngine engine(std::move(config));
  EXPECT_EQ(engine.ShiftSplit(0, 1, kTargetPage), 0);
  EXPECT_EQ(engine.metrics().pool_shrink_attempts, 0);
  EXPECT_EQ(engine.metrics().pool_grow_attempts, 0);
}

TEST(ElasticResize, ManualDraftFractionOverridesTheSmartSpecSplit) {
  // SmartSpec splits ∝ per-token KV: tiny-full 1024 B/token vs tiny-draft 256 B/token → a
  // 20% draft share. An explicit 0.5 fraction must override that proportional split.
  SpecDecodeEngine smartspec(ManualSpecConfig(/*pool_bytes=*/1 << 21));
  SpecDecodeEngine even(ManualSpecConfig(/*pool_bytes=*/1 << 21, /*draft_fraction=*/0.5));
  const int64_t ss_draft = smartspec.manager(1).GetMemoryStats().pool_bytes;
  const int64_t even_draft = even.manager(1).GetMemoryStats().pool_bytes;
  EXPECT_GT(even_draft, ss_draft);
  const int64_t even_target = even.manager(0).GetMemoryStats().pool_bytes;
  // Equal split, modulo per-pool page rounding.
  EXPECT_NEAR(static_cast<double>(even_draft) / static_cast<double>(even_target), 1.0, 0.1);
}

}  // namespace
}  // namespace jenga

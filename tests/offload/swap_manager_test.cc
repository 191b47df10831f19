#include "src/offload/swap_manager.h"

#include <gtest/gtest.h>

#include "src/core/audit_events.h"
#include "src/core/types.h"

namespace jenga {
namespace {

// Round numbers so every cost below has a closed form:
//   recompute compute term = tokens × 1e-3 s (1 GFLOP/token on a 1 TFLOP/s GPU),
//   KV re-read term        = chunks × resident/2 × 1e-12 s/byte,
//   PCIe                   = 1 ms latency + bytes × 1e-10 s/byte each way (10 GB/s).
SwapCostParams TestCost(int64_t chunk_tokens = 1'000'000) {
  SwapCostParams cost;
  cost.flops_per_token = 1e9;
  cost.gpu_flops = 1e12;
  cost.gpu_mem_bandwidth = 1e12;
  cost.chunk_tokens = chunk_tokens;
  return cost;
}

OffloadConfig TestConfig(int64_t host_bytes = 1ll << 30) {
  OffloadConfig config;
  config.enabled = true;
  config.host_pool_bytes = host_bytes;
  config.pcie.h2d_bandwidth = 10e9;
  config.pcie.d2h_bandwidth = 10e9;
  config.pcie.per_transfer_latency = 1e-3;
  config.pcie.overlap_fraction = 0.5;
  return config;
}

SwapFootprint Footprint(int64_t tokens, int64_t swappable, int64_t resident = 0,
                        int64_t drop_recompute = 0) {
  SwapFootprint fp;
  fp.tokens = tokens;
  fp.swappable_bytes = swappable;
  fp.resident_bytes = resident > 0 ? resident : swappable;
  fp.drop_recompute_bytes = drop_recompute;
  fp.fingerprints = {0xFEEDu};
  return fp;
}

TEST(SwapManager, RecomputeTimeMatchesClosedForm) {
  SwapManager swap(TestConfig(), TestCost(/*chunk_tokens=*/500));
  // 1000 tokens = 2 chunks; compute 1.0 s + re-read 2 × (1e9/2) × 1e-12 = 1e-3 s.
  EXPECT_DOUBLE_EQ(swap.RecomputeTime(1000, 1'000'000'000), 1.0 + 1e-3);
  EXPECT_EQ(swap.RecomputeTime(0, 1'000'000'000), 0.0);
}

TEST(SwapManager, CrossoverPicksSwapExactlyWhenRoundTripIsCheaper) {
  SwapManager swap(TestConfig(), TestCost());
  // Round trip for 1 GB: 2 × (1 ms + 0.1 s) = 0.202 s.
  const SwapFootprint fp = Footprint(/*tokens=*/1000, /*swappable=*/1'000'000'000);
  EXPECT_DOUBLE_EQ(swap.SwapRoundTripTime(fp), 0.202);
  // Recompute of 1000 tokens ≈ 1.0005 s >> 0.202 s → swap.
  EXPECT_EQ(swap.ChoosePreemptMode(fp), PreemptMode::kSwap);
  // 100 tokens recompute ≈ 0.1 s < 0.202 s → recompute wins for the same bytes.
  EXPECT_EQ(swap.ChoosePreemptMode(Footprint(100, 1'000'000'000)), PreemptMode::kRecompute);
}

TEST(SwapManager, IneligibleGroupsChargeTheirRecomputeShare) {
  SwapManager swap(TestConfig(), TestCost());
  // Half the resident bytes are swap-ineligible: the round trip carries half the
  // compute-only recompute cost on top of the transfer.
  const SwapFootprint fp =
      Footprint(/*tokens=*/1000, /*swappable=*/500'000'000, /*resident=*/1'000'000'000,
                /*drop_recompute=*/500'000'000);
  const double transfer = 2.0 * (1e-3 + 0.05);
  EXPECT_DOUBLE_EQ(swap.SwapRoundTripTime(fp), transfer + 0.5 * swap.RecomputeTime(1000, 0));
}

TEST(SwapManager, NeverSwapsWhatCannotFit) {
  SwapManager swap(TestConfig(/*host_bytes=*/1000), TestCost());
  EXPECT_EQ(swap.ChoosePreemptMode(Footprint(100000, 2000)), PreemptMode::kRecompute);
  EXPECT_EQ(swap.ChoosePreemptMode(Footprint(100000, 0)), PreemptMode::kRecompute);
}

TEST(SwapManager, SwapPreemptionSwitchForcesRecompute) {
  OffloadConfig config = TestConfig();
  config.swap_preemption = false;
  SwapManager swap(config, TestCost());
  EXPECT_EQ(swap.ChoosePreemptMode(Footprint(100000, 1'000'000'000)),
            PreemptMode::kRecompute);
}

TEST(SwapManager, SwapSetLifecycleAccountsTransfersAndStats) {
  SwapManager swap(TestConfig(), TestCost());
  const SwapFootprint fp = Footprint(1000, 1'000'000'000);
  ASSERT_TRUE(swap.RecordSwapOut(5, fp));
  EXPECT_EQ(swap.stats().swap_out_events, 1);
  EXPECT_EQ(swap.stats().swap_out_bytes, 1'000'000'000);
  EXPECT_TRUE(swap.HasPendingTransfer());
  ASSERT_NE(swap.PeekSwapSet(5), nullptr);
  EXPECT_EQ(swap.PeekSwapSet(5)->fingerprints[0], 0xFEEDu);
  // Engines snapshot the set before restoring (the restore can churn the host pool).
  const HostSwapSet snapshot = *swap.PeekSwapSet(5);
  swap.CommitSwapIn(5, snapshot);
  EXPECT_EQ(swap.stats().swap_in_events, 1);
  EXPECT_EQ(swap.PeekSwapSet(5), nullptr);
  // D2H at swap-out + H2D at swap-in, fully stalled with no concurrent compute.
  EXPECT_DOUBLE_EQ(swap.ConsumeStall(0.0), 0.202);
  EXPECT_FALSE(swap.HasPendingTransfer());
  EXPECT_DOUBLE_EQ(swap.stats().stall_time, 0.202);
}

TEST(SwapManager, DropSwapSetAbandonsWithoutChargingH2D) {
  SwapManager swap(TestConfig(), TestCost());
  ASSERT_TRUE(swap.RecordSwapOut(5, Footprint(1000, 1'000'000'000)));
  swap.ConsumeStall(0.0);  // Drain the D2H charge.
  swap.DropSwapSet(5);
  EXPECT_EQ(swap.PeekSwapSet(5), nullptr);
  EXPECT_FALSE(swap.HasPendingTransfer());
  EXPECT_EQ(swap.stats().swap_in_events, 0);
}

TEST(SwapManager, StallOverlapsWithComputeTime) {
  SwapManager swap(TestConfig(), TestCost());
  ASSERT_TRUE(swap.RecordSwapOut(5, Footprint(1000, 1'000'000'000)));
  // Pending D2H = 0.101 s; 0.1 s of compute hides 0.05 s of it.
  EXPECT_DOUBLE_EQ(swap.ConsumeStall(0.1), 0.101 - 0.05);
  // Drained: a second step pays nothing.
  EXPECT_EQ(swap.ConsumeStall(10.0), 0.0);
}

// Delivers a capacity eviction of `hash` to a RegisterManager subscriber.
void Evict(AuditSink* sink, int group, BlockHash hash, int64_t page_bytes) {
  const CacheEviction evicted{page_bytes, /*prefix_length=*/16, /*last_access=*/1};
  sink->OnHashUnindexed(group, hash, &evicted);
}

TEST(SwapManager, SinkParksEvictionsFromEveryGroup) {
  SwapManager swap(TestConfig(), TestCost());
  // Every group parks, swap-ineligible ones (e.g. sliding window) included, because the hit
  // scan needs residency across all groups at a common boundary.
  AuditSink* sink = swap.RegisterManager(0);
  Evict(sink, /*group=*/0, /*hash=*/11, /*page_bytes=*/4096);
  Evict(sink, /*group=*/1, /*hash=*/22, /*page_bytes=*/4096);
  EXPECT_EQ(swap.stats().host_pages_stored, 2);
  const HostCachePage* parked = swap.LookupHostPage(0, 0, 11);
  ASSERT_NE(parked, nullptr);
  EXPECT_EQ(parked->bytes, 4096);
  EXPECT_EQ(parked->prefix_length, 16);
  EXPECT_EQ(parked->evicted_at, 1);
  EXPECT_NE(swap.LookupHostPage(0, 1, 22), nullptr);
  EXPECT_EQ(swap.LookupHostPage(0, 0, 22), nullptr);  // Keys are group-scoped.
}

TEST(SwapManager, UnindexWithoutEvictionParksNothing) {
  SwapManager swap(TestConfig(), TestCost());
  AuditSink* sink = swap.RegisterManager(0);
  // Release(keep_cached=false) and recompute re-hashes unindex with no payload: the content
  // was declared obsolete, not evicted.
  sink->OnHashIndexed(0, 11);
  sink->OnHashUnindexed(0, 11, /*evicted=*/nullptr);
  EXPECT_EQ(swap.stats().host_pages_stored, 0);
  EXPECT_EQ(swap.LookupHostPage(0, 0, 11), nullptr);
  EXPECT_FALSE(swap.HasPendingTransfer());
}

TEST(SwapManager, HostPrefixCacheSwitchDisablesParkingAndLookup) {
  OffloadConfig config = TestConfig();
  config.host_prefix_cache = false;
  SwapManager swap(config, TestCost());
  AuditSink* sink = swap.RegisterManager(0);
  Evict(sink, 0, 11, 4096);
  EXPECT_EQ(swap.stats().host_pages_stored, 0);
  EXPECT_EQ(swap.LookupHostPage(0, 0, 11), nullptr);
  EXPECT_FALSE(swap.HasPendingTransfer());
}

TEST(SwapManager, PromotionRemovesThePageAndChargesH2D) {
  SwapManager swap(TestConfig(), TestCost());
  AuditSink* sink = swap.RegisterManager(0);
  Evict(sink, 0, 11, 1'000'000'000);
  swap.ConsumeStall(0.0);  // Drain the D2H stream charge.
  swap.OnHostPagePromoted(0, 0, 11, 1'000'000'000);
  EXPECT_EQ(swap.LookupHostPage(0, 0, 11), nullptr);
  EXPECT_EQ(swap.stats().host_pages_promoted, 1);
  EXPECT_EQ(swap.stats().host_bytes_promoted, 1'000'000'000);
  // Streamed promotion: bandwidth only, no per-transfer latency.
  EXPECT_DOUBLE_EQ(swap.ConsumeStall(0.0), 0.1);
}

}  // namespace
}  // namespace jenga

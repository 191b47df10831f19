#include "src/metrics/metrics.h"

#include <gtest/gtest.h>

namespace jenga {
namespace {

RequestRecord MakeRecord(int64_t id, double arrival, double first_token, double finish,
                         int64_t output_len, bool failed = false) {
  RequestRecord record;
  record.id = id;
  record.prompt_len = 100;
  record.output_len = output_len;
  record.arrival_time = arrival;
  record.first_scheduled_time = arrival;
  record.first_token_time = first_token;
  record.finish_time = finish;
  record.failed = failed;
  return record;
}

TEST(RequestRecord, LatencyDerivations) {
  const RequestRecord record = MakeRecord(1, 1.0, 2.0, 12.0, 11);
  EXPECT_DOUBLE_EQ(record.E2eLatency(), 11.0);
  EXPECT_DOUBLE_EQ(record.Ttft(), 1.0);
  EXPECT_DOUBLE_EQ(record.Tpot(), 1.0);  // 10 s over 10 post-first tokens.
}

TEST(RequestRecord, SingleTokenTpotIsZero) {
  EXPECT_DOUBLE_EQ(MakeRecord(1, 0.0, 1.0, 1.0, 1).Tpot(), 0.0);
}

TEST(EngineMetrics, ThroughputExcludesFailed) {
  EngineMetrics metrics;
  metrics.RecordStep(10.0, 100, 2);
  metrics.RecordFinished(MakeRecord(1, 0, 1, 5, 50));
  metrics.RecordFinished(MakeRecord(2, 0, 2, 8, 70));
  metrics.RecordFinished(MakeRecord(3, 0, -1, 3, 0, /*failed=*/true));
  EXPECT_EQ(metrics.CompletedRequests(), 2);
  EXPECT_EQ(metrics.FailedRequests(), 1);
  EXPECT_EQ(metrics.TotalOutputTokens(), 120);
  EXPECT_DOUBLE_EQ(metrics.RequestThroughput(), 0.2);
  EXPECT_DOUBLE_EQ(metrics.TokenThroughput(), 12.0);
}

TEST(EngineMetrics, MeansOverCompleted) {
  EngineMetrics metrics;
  metrics.RecordStep(10.0, 1, 1);
  metrics.RecordFinished(MakeRecord(1, 0, 1, 5, 5));
  metrics.RecordFinished(MakeRecord(2, 2, 4, 10, 9));
  EXPECT_DOUBLE_EQ(metrics.MeanE2eLatency(), (5.0 + 8.0) / 2);
  EXPECT_DOUBLE_EQ(metrics.MeanTtft(), (1.0 + 2.0) / 2);
  EXPECT_DOUBLE_EQ(metrics.MeanTpot(), (1.0 + 0.75) / 2);
}

TEST(EngineMetrics, StepAccumulation) {
  EngineMetrics metrics;
  metrics.RecordStep(1.0, 128, 3);
  metrics.RecordStep(2.0, 64, 4);
  EXPECT_EQ(metrics.total_steps(), 2);
  EXPECT_EQ(metrics.total_scheduled_tokens(), 192);
  EXPECT_DOUBLE_EQ(metrics.last_time(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.MeanDecodeBatch(), 3.5);
  EXPECT_EQ(metrics.decode_batch_series().size(), 2u);
}

TEST(EngineMetrics, EmptyMetricsAreZero) {
  EngineMetrics metrics;
  EXPECT_EQ(metrics.CompletedRequests(), 0);
  EXPECT_DOUBLE_EQ(metrics.RequestThroughput(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.MeanE2eLatency(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.MeanTpot(), 0.0);
}

TEST(EngineMetrics, PerRequestDistributions) {
  EngineMetrics metrics;
  // TTFTs 0.01..0.10 over ten finished requests, one single-token request (no TPOT), one
  // failed request (excluded from every distribution).
  for (int i = 1; i <= 10; ++i) {
    metrics.RecordFinished(MakeRecord(i, 0.0, 0.01 * i, 1.0, 8));
  }
  metrics.RecordFinished(MakeRecord(11, 0.0, 0.05, 1.0, 1));
  RequestRecord failed = MakeRecord(12, 0.0, 9.0, 99.0, 8);
  failed.failed = true;
  metrics.RecordFinished(failed);

  EXPECT_EQ(metrics.TtftDistribution().samples().size(), 11u);
  EXPECT_EQ(metrics.TpotDistribution().samples().size(), 10u);  // output_len > 1 only.
  EXPECT_EQ(metrics.E2eDistribution().samples().size(), 11u);
  EXPECT_GT(metrics.TtftPercentile(99.0), metrics.TtftPercentile(50.0));
  EXPECT_LE(metrics.TtftPercentile(99.0), 0.10);
  EXPECT_GE(metrics.TtftPercentile(0.0), 0.01);
  EXPECT_LE(metrics.TpotPercentile(50.0), metrics.TpotPercentile(99.0));
}

TEST(EngineMetrics, DistributionsEmptyWhenNothingFinished) {
  EngineMetrics metrics;
  EXPECT_TRUE(metrics.TtftDistribution().empty());
  EXPECT_TRUE(metrics.TpotDistribution().empty());
  EXPECT_DOUBLE_EQ(metrics.TtftPercentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(metrics.TpotPercentile(99.0), 0.0);
}

TEST(EngineMetrics, MemoryTimeline) {
  EngineMetrics metrics;
  MemorySample sample;
  sample.time = 3.0;
  sample.used_bytes = 100;
  metrics.RecordMemory(sample);
  ASSERT_EQ(metrics.memory_timeline().size(), 1u);
  EXPECT_EQ(metrics.memory_timeline()[0].used_bytes, 100);
}

}  // namespace
}  // namespace jenga

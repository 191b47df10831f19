#include "src/engine/gpu.h"

#include <gtest/gtest.h>

#include "src/model/model_zoo.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

TEST(GpuSpecs, PlatformConstants) {
  const GpuSpec h100 = H100();
  const GpuSpec l4 = L4();
  EXPECT_EQ(h100.memory_bytes, 80LL * 1024 * 1024 * 1024);
  EXPECT_EQ(l4.memory_bytes, 24LL * 1024 * 1024 * 1024);
  EXPECT_GT(h100.flops, l4.flops);
  EXPECT_GT(h100.mem_bandwidth, l4.mem_bandwidth);
  EXPECT_GT(h100.max_batched_tokens, 0);
}

TEST(GpuSim, KvPoolSubtractsWeightsAndReserved) {
  const ModelConfig model = Llama31_8B();
  GpuSim sim(H100(), model);
  EXPECT_EQ(sim.KvPoolBytes(),
            H100().memory_bytes - model.WeightBytes() - H100().reserved_bytes);
}

TEST(GpuSim, ModelTooLargeDies) {
  ModelConfig model = Llama3_70B_Fp8();
  model.params_b = 300.0;  // 300 GB of weights cannot fit in 80 GB.
  EXPECT_DEATH((void)GpuSim(H100(), model).KvPoolBytes(), "does not fit");
}

TEST(GpuSim, StepTimeScalesWithTokens) {
  GpuSim sim(H100(), Llama31_8B());
  const double t1 = sim.StepTime(1024, 0);
  const double t8 = sim.StepTime(8192, 0);
  EXPECT_GT(t8, t1);
  // Large prefills are compute-bound: ~linear in tokens.
  EXPECT_NEAR(t8 / t1, 8.0, 1.5);
}

TEST(GpuSim, DecodeStepIsWeightBandwidthBound) {
  GpuSim sim(H100(), Llama31_8B());
  // A tiny decode batch costs at least the weight-streaming time.
  const double weight_stream =
      static_cast<double>(Llama31_8B().WeightBytes()) / H100().mem_bandwidth;
  EXPECT_GE(sim.StepTime(1, 0), weight_stream);
  // Small batches ride the same weight stream: near-identical step time.
  EXPECT_NEAR(sim.StepTime(8, 0), sim.StepTime(1, 0), sim.StepTime(1, 0) * 0.05);
}

TEST(GpuSim, KvReadAddsBandwidthTime) {
  GpuSim sim(H100(), Llama31_8B());
  const double without = sim.StepTime(32, 0);
  const double with = sim.StepTime(32, 28LL << 30);
  EXPECT_NEAR(with - without, static_cast<double>(28LL << 30) / H100().mem_bandwidth, 1e-6);
}

TEST(GpuSim, BiggerModelIsSlower) {
  GpuSim small(H100(), Llama31_8B());
  GpuSim large(H100(), Llama3_70B_Fp8());
  EXPECT_GT(large.StepTime(8192, 0), small.StepTime(8192, 0));
}

TEST(GpuSim, VisionEncodeTime) {
  GpuSim sim(H100(), Llama32_11B_Vision());
  EXPECT_EQ(sim.VisionEncodeTime(0), 0.0);
  EXPECT_GT(sim.VisionEncodeTime(1601), 0.0);
  EXPECT_GT(sim.VisionEncodeTime(6404), sim.VisionEncodeTime(1601));
  // Text-only models have no encoder.
  GpuSim text(H100(), Llama31_8B());
  EXPECT_EQ(text.VisionEncodeTime(1000), 0.0);
}

}  // namespace
}  // namespace jenga

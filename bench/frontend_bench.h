// Shared closed-loop load driver for the ServingFrontend scaling benchmarks (bench_frontend
// and the frontend.* keys in bench_perf). Each producer thread runs a closed loop with think
// time — submit one request, poll its stream to a terminal state, sleep a client-turnaround
// interval (network RTT + client-side processing), submit the next. A single closed-loop
// client is therefore latency-bound: the engine idles during every think interval. Adding
// producers overlaps their think times and keeps requests live for continuous batching —
// that overlap, not engine-side parallelism, is where the multi-producer throughput comes
// from (the engine core stays single-threaded by design; see DESIGN.md §9).

#ifndef JENGA_BENCH_FRONTEND_BENCH_H_
#define JENGA_BENCH_FRONTEND_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/frontend.h"
#include "src/model/model_config.h"

namespace jenga {

// Same shape as the engine tests' tiny model: 4 full-attention layers, 1 KB/token. Small on
// purpose — the bench measures frontend/scheduler overhead, not simulated FLOPs.
inline ModelConfig FrontendBenchModel() {
  ModelConfig model;
  model.name = "frontend-bench";
  model.params_b = 0.1;
  model.hidden_size = 256;
  model.max_context_len = 65536;
  model.compute_layers = 4;
  for (int i = 0; i < 4; ++i) {
    LayerSpec layer;
    layer.kind = LayerKind::kFullAttention;
    layer.num_kv_heads = 1;
    layer.head_dim = 64;
    layer.dtype_bytes = 2;
    model.layers.push_back(layer);
  }
  return model;
}

inline EngineConfig FrontendBenchConfig() {
  EngineConfig config;
  config.model = FrontendBenchModel();
  GpuSpec gpu;
  gpu.name = "bench-gpu";
  gpu.memory_bytes = 4LL << 30;  // Ample pool: no preemptions; pure throughput.
  gpu.flops = 1e13;
  gpu.mem_bandwidth = 1e11;
  gpu.max_batched_tokens = 4096;
  gpu.max_num_seqs = 64;
  gpu.reserved_bytes = 0;
  config.gpu = gpu;
  config.jenga = true;
  config.enable_prefix_caching = false;  // Every request pays full allocation.
  config.memory_sample_every = 0;
  return config;
}

struct FrontendLoadResult {
  int64_t completed = 0;
  double wall_seconds = 0.0;
  double requests_per_s = 0.0;
  double first_token_p50_ms = 0.0;
  double first_token_p95_ms = 0.0;
};

// Runs `producers` closed-loop client threads of `per_producer` requests each (prompt 256,
// output 8, `think_us` of client turnaround between completion and the next submit) against
// a started frontend and reports sustained completion throughput plus submit→first-token
// latency percentiles.
inline FrontendLoadResult RunClosedLoop(int producers, int per_producer, int64_t think_us = 200) {
  ServingFrontend::Options options;
  options.queue_capacity = 256;
  ServingFrontend frontend(FrontendBenchConfig(), options);
  frontend.Start();

  std::mutex latencies_mu;
  std::vector<double> first_token_ms;
  first_token_ms.reserve(static_cast<size_t>(producers) * static_cast<size_t>(per_producer));

  const auto begin = std::chrono::steady_clock::now();
  frontend.RunClients(producers, [&](int client) {
    std::vector<double> local;
    local.reserve(static_cast<size_t>(per_producer));
    for (int i = 0; i < per_producer; ++i) {
      Prompt prompt;
      prompt.tokens.reserve(256);
      for (int t = 0; t < 256; ++t) {
        prompt.tokens.push_back(client * 100000 + i * 256 + t);  // No shared prefixes.
      }
      const RequestId id = frontend.NextRequestId();
      StreamHandle stream = frontend.SubmitAsync(MakeRequest(id, std::move(prompt), 8, 0.0));
      while (!stream->Done()) {
        std::this_thread::yield();
      }
      const double submit = stream->submit_wall.load(std::memory_order_acquire);
      const double first = stream->first_token_wall.load(std::memory_order_acquire);
      if (first >= 0.0 && submit >= 0.0) {
        local.push_back((first - submit) * 1e3);
      }
      if (think_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(think_us));
      }
    }
    std::lock_guard<std::mutex> lock(latencies_mu);
    first_token_ms.insert(first_token_ms.end(), local.begin(), local.end());
  });
  const auto end = std::chrono::steady_clock::now();
  frontend.Shutdown();

  FrontendLoadResult result;
  result.completed = frontend.counters().finished;
  result.wall_seconds = std::chrono::duration<double>(end - begin).count();
  result.requests_per_s = static_cast<double>(result.completed) / result.wall_seconds;
  if (!first_token_ms.empty()) {
    std::sort(first_token_ms.begin(), first_token_ms.end());
    const auto pct = [&first_token_ms](double q) {
      const size_t at =
          static_cast<size_t>(q * static_cast<double>(first_token_ms.size() - 1));
      return first_token_ms[at];
    };
    result.first_token_p50_ms = pct(0.50);
    result.first_token_p95_ms = pct(0.95);
  }
  return result;
}

}  // namespace jenga

#endif  // JENGA_BENCH_FRONTEND_BENCH_H_

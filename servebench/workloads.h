// The benchmark's three serving workloads and their seeded request traces. Traces are
// generated here, from the seed alone, so the simulator under test only ever receives the
// finished Requests; NOTES.md records why each workload exists and how its rate was placed.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/model/model_config.h"

namespace servebench {

struct TraceItem {
  std::vector<int32_t> prompt;
  int64_t output_len = 0;
  double arrival_time = 0.0;
};
using Trace = std::vector<TraceItem>;

struct Workload {
  std::string_view name;
  // true: SpecDecodeEngine (kJenga, target + draft); false: Engine with the Jenga profile.
  bool spec = false;
  jenga::ModelConfig (*model)() = nullptr;
  jenga::ModelConfig (*draft)() = nullptr;  // Spec only.
  double memory_fraction = 1.0;             // Engine only: scales the KV pool.
  // Open loop: Poisson arrivals (the knee guard applies). Otherwise all arrive at t = 0.
  bool open_loop = false;
  // Latency limits behind sim_slo_pct: a request meets the SLO when both hold.
  double ttft_limit_s = 0.0;
  double tpot_limit_ms = 0.0;
  // Knee guard (open loops): the mean simulated TTFT of the last tenth of arrivals may be at
  // most this multiple of the first tenth's.
  double knee_ratio = 0.0;
  // Independent traces one run simulates and pools. Tail latencies of a single trace move
  // with its few largest bursts; pooling several keeps the simulated metrics steady from
  // seed to seed without holding one huge trace in memory.
  int traces_per_run = 1;
  Trace (*generate)(uint64_t seed) = nullptr;
};

// nullptr for an unknown name.
[[nodiscard]] const Workload* FindWorkload(std::string_view name);

// Trace `index` (0 <= index < traces_per_run) of the run with this seed.
[[nodiscard]] Trace GenerateTrace(const Workload& w, uint64_t seed, int index);

// SHA-256 over a fixed serialization of every request (arrival bits, output length, prompt).
[[nodiscard]] std::string TraceSha256(const Trace& trace);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_

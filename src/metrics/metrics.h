// Engine-side measurement: per-request latency records, per-step time series (decode batch
// size, scheduled tokens), and memory-breakdown snapshots — everything the paper's figures
// plot (Figs. 13–18).

#ifndef JENGA_SRC_METRICS_METRICS_H_
#define JENGA_SRC_METRICS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace jenga {

struct RequestRecord {
  int64_t id = 0;
  int64_t prompt_len = 0;
  int64_t output_len = 0;
  int64_t cached_prefix_tokens = 0;
  int preemptions = 0;
  double arrival_time = 0.0;
  double first_scheduled_time = 0.0;
  double first_token_time = 0.0;
  double finish_time = 0.0;
  bool failed = false;
  // Aborted via CancelRequest (client cancel, deadline expiry, or load shed). Cancelled
  // requests are always also `failed`.
  bool cancelled = false;

  [[nodiscard]] double E2eLatency() const { return finish_time - arrival_time; }
  [[nodiscard]] double Ttft() const { return first_token_time - arrival_time; }
  // Time per output token after the first.
  [[nodiscard]] double Tpot() const {
    return output_len > 1 ? (finish_time - first_token_time) / static_cast<double>(output_len - 1)
                          : 0.0;
  }
};

// One memory snapshot (Fig. 16's stacked areas).
struct MemorySample {
  double time = 0.0;
  int64_t weight_bytes = 0;
  int64_t reserved_bytes = 0;
  int64_t used_bytes = 0;    // KV required by running requests (needed).
  int64_t wasted_bytes = 0;  // Allocated but not needed.
  int64_t cached_bytes = 0;
  int64_t unallocated_bytes = 0;
  int64_t host_bytes = 0;  // Host offload tier occupancy (0 when disabled).
};

class EngineMetrics {
 public:
  void RecordStep(double time, int64_t scheduled_tokens, int decode_batch);
  void RecordMemory(const MemorySample& sample) { memory_timeline_.push_back(sample); }
  void RecordFinished(const RequestRecord& record) { finished_.push_back(record); }

  [[nodiscard]] const std::vector<RequestRecord>& finished() const { return finished_; }
  [[nodiscard]] const std::vector<MemorySample>& memory_timeline() const {
    return memory_timeline_;
  }
  [[nodiscard]] const TimeSeries& decode_batch_series() const { return decode_batch_; }
  [[nodiscard]] int64_t total_steps() const { return total_steps_; }
  [[nodiscard]] int64_t total_scheduled_tokens() const { return total_scheduled_tokens_; }
  [[nodiscard]] double last_time() const { return last_time_; }

  // Aggregates over finished, non-failed requests.
  [[nodiscard]] int64_t CompletedRequests() const;
  [[nodiscard]] int64_t FailedRequests() const;
  // Records aborted via CancelRequest (a subset of FailedRequests). The fleet recovery
  // ledger cross-checks these against the drivers' death_cancels counters.
  [[nodiscard]] int64_t CancelledRecords() const;
  [[nodiscard]] int64_t TotalOutputTokens() const;
  [[nodiscard]] double RequestThroughput() const;  // requests / s over the busy interval.
  [[nodiscard]] double TokenThroughput() const;    // output tokens / s.
  [[nodiscard]] double MeanE2eLatency() const;
  [[nodiscard]] double MeanTtft() const;
  [[nodiscard]] double MeanTpot() const;
  [[nodiscard]] double MeanDecodeBatch() const { return decode_batch_.MeanValue(); }

  // Per-request latency distributions over finished, non-failed requests — the real-percentile
  // inputs ClusterMetrics and the fleet benches aggregate (step averages hide tail latency).
  // TpotDistribution only includes requests with more than one output token (Tpot is undefined
  // otherwise, matching MeanTpot).
  [[nodiscard]] Summary TtftDistribution() const;
  [[nodiscard]] Summary TpotDistribution() const;
  [[nodiscard]] Summary E2eDistribution() const;
  // Convenience percentile queries (`p` in [0, 100]); 0.0 when no request qualifies.
  [[nodiscard]] double TtftPercentile(double p) const;
  [[nodiscard]] double TpotPercentile(double p) const;

  // Counters of events that happen in the scheduler core or an engine's step. Each counter
  // has one owner: the host tier's swap, stall and retry counters live in
  // SwapManager::Stats, injector fires in FaultInjector, and the governor's ladder
  // engagements in MemoryGovernor::Stats.
  int64_t vision_encoder_runs = 0;
  double vision_encode_time = 0.0;
  int64_t cache_hit_tokens = 0;
  int64_t prefill_tokens_computed = 0;
  // Preemption outcomes.
  int64_t swap_fallback_events = 0;  // Held a swap set but recomputed (0 without offload).
  int64_t recomputed_tokens = 0;     // Computed tokens discarded by recompute preemptions.
  // Recovery and admission control.
  int64_t gpu_step_faults = 0;        // Steps whose results were discarded and recomputed.
  int64_t shed_requests = 0;          // Requests failed by the admission shed gate.
  int64_t cancelled_requests = 0;     // CancelRequest() aborts (incl. deadline expiries).
  int64_t deadline_expirations = 0;   // Subset of cancellations caused by deadlines.
  // Elastic memory governor (all zero when no governor is attached). The resize ledger
  // identity, checked by the pressure-chaos oracle (DESIGN.md §11):
  //   pool_grow_pages − pool_shrink_pages == current pool pages − initial pool pages,
  //   pool_grow_attempts == grows committed + pool_grow_rollbacks, and likewise for
  //   shrink/repartition — a rolled-back transition contributes zero net delta.
  int64_t pool_grow_attempts = 0;
  int64_t pool_shrink_attempts = 0;
  int64_t repartition_attempts = 0;
  int64_t pool_grow_pages = 0;        // Large pages added by committed grows.
  int64_t pool_shrink_pages = 0;      // Large pages removed by committed shrinks.
  int64_t repartitions = 0;           // Committed pool repartitions (model hot-swaps).
  int64_t pool_grow_rollbacks = 0;    // pool_grow fault fired; nothing changed.
  int64_t pool_shrink_rollbacks = 0;  // pool_shrink_drain fault fired; nothing removed.
  int64_t repartition_rollbacks = 0;  // repartition_commit fired; old layout kept.
  int64_t elastic_parked = 0;         // Pressure-ladder rung 1: preempt-to-host parks.
  int64_t elastic_shed = 0;           // Pressure-ladder rung 2: governor-driven sheds.

 private:
  std::vector<RequestRecord> finished_;
  std::vector<MemorySample> memory_timeline_;
  TimeSeries decode_batch_;
  int64_t total_steps_ = 0;
  int64_t total_scheduled_tokens_ = 0;
  double last_time_ = 0.0;
};

}  // namespace jenga

#endif  // JENGA_SRC_METRICS_METRICS_H_

// Fleet-level measurement: aggregates each replica's per-request records (EngineMetrics)
// into cluster percentiles — TTFT/TPOT p50/p99 over the pooled request population — plus
// per-replica prefix-cache hit rate and pool occupancy. Used by bench_fleet and the fleet
// examples; pure aggregation, no engine coupling beyond the metrics structs.

#ifndef JENGA_SRC_CLUSTER_CLUSTER_METRICS_H_
#define JENGA_SRC_CLUSTER_CLUSTER_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/metrics/metrics.h"

namespace jenga {

class FleetRouter;
struct FleetCounters;

struct ReplicaStats {
  int replica = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  // Prefix-cache hit rate over prompt tokens: hits / (hits + prefill computed).
  double hit_rate = 0.0;
  // Pool occupancy at snapshot time: used bytes / pool bytes.
  double occupancy = 0.0;
  double ttft_p50 = 0.0;
  double ttft_p99 = 0.0;
  double tpot_p50 = 0.0;
  double tpot_p99 = 0.0;
};

struct FleetStats {
  int64_t completed = 0;
  int64_t failed = 0;
  // Recovery ledger, filled from the driver's FleetCounters (AddFleetCounters). The
  // conservation identity — submitted requests are never lost across replica deaths —
  // reads: Σ replica finished records (completed + failed) == submitted + rerouted, with
  // death_cancels == rerouted when every harvested request found a survivor.
  int64_t submitted = 0;
  int64_t replica_deaths = 0;
  int64_t replica_stalls = 0;
  int64_t death_cancels = 0;
  int64_t rerouted = 0;
  int64_t cancelled = 0;  // Client cancels routed through the driver.
  // Pooled over every replica's finished, non-failed requests.
  double ttft_p50 = 0.0;
  double ttft_p99 = 0.0;
  double tpot_p50 = 0.0;
  double tpot_p99 = 0.0;
  // Cluster-level hit rate: Σ hits / Σ (hits + prefill computed) across replicas.
  double hit_rate = 0.0;
  std::vector<ReplicaStats> replicas;

  [[nodiscard]] std::string DebugString() const;
};

class ClusterMetrics {
 public:
  // Folds one replica's engine metrics (plus its occupancy snapshot) into the aggregate.
  // Replicas are indexed in the order they are added.
  void AddReplica(const EngineMetrics& metrics, double occupancy);

  // Folds the driver's routing/recovery counters into the ledger fields.
  void AddFleetCounters(const FleetCounters& counters);

  [[nodiscard]] FleetStats Summarize() const;

  // Convenience: snapshots every replica of `router` (metrics + live occupancy).
  [[nodiscard]] static FleetStats FromRouter(const FleetRouter& router);

 private:
  Summary ttft_;
  Summary tpot_;
  int64_t hit_tokens_ = 0;
  int64_t prefill_tokens_ = 0;
  FleetStats stats_;  // Accumulates totals and per-replica rows; percentiles fill on Summarize.
};

}  // namespace jenga

#endif  // JENGA_SRC_CLUSTER_CLUSTER_METRICS_H_

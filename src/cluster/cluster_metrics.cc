#include "src/cluster/cluster_metrics.h"

#include <sstream>

#include "src/cluster/fleet_router.h"

namespace jenga {

void ClusterMetrics::AddReplica(const EngineMetrics& metrics, double occupancy) {
  ReplicaStats row;
  row.replica = static_cast<int>(stats_.replicas.size());
  row.completed = metrics.CompletedRequests();
  row.failed = metrics.FailedRequests();
  const int64_t prompt_tokens = metrics.cache_hit_tokens + metrics.prefill_tokens_computed;
  row.hit_rate = prompt_tokens > 0
                     ? static_cast<double>(metrics.cache_hit_tokens) /
                           static_cast<double>(prompt_tokens)
                     : 0.0;
  row.occupancy = occupancy;
  const Summary ttft = metrics.TtftDistribution();
  const Summary tpot = metrics.TpotDistribution();
  if (!ttft.empty()) {
    row.ttft_p50 = ttft.Percentile(50.0);
    row.ttft_p99 = ttft.Percentile(99.0);
  }
  if (!tpot.empty()) {
    row.tpot_p50 = tpot.Percentile(50.0);
    row.tpot_p99 = tpot.Percentile(99.0);
  }
  stats_.replicas.push_back(row);

  stats_.completed += row.completed;
  stats_.failed += row.failed;
  hit_tokens_ += metrics.cache_hit_tokens;
  prefill_tokens_ += metrics.prefill_tokens_computed;
  for (const double sample : ttft.samples()) {
    ttft_.Add(sample);
  }
  for (const double sample : tpot.samples()) {
    tpot_.Add(sample);
  }
}

void ClusterMetrics::AddFleetCounters(const FleetCounters& counters) {
  stats_.submitted += counters.submitted;
  stats_.replica_deaths += counters.replica_deaths;
  stats_.replica_stalls += counters.replica_stalls;
  stats_.death_cancels += counters.death_cancels;
  stats_.rerouted += counters.rerouted;
  stats_.cancelled += counters.cancelled;
}

FleetStats ClusterMetrics::Summarize() const {
  FleetStats stats = stats_;
  const int64_t prompt_tokens = hit_tokens_ + prefill_tokens_;
  stats.hit_rate = prompt_tokens > 0
                       ? static_cast<double>(hit_tokens_) / static_cast<double>(prompt_tokens)
                       : 0.0;
  if (!ttft_.empty()) {
    stats.ttft_p50 = ttft_.Percentile(50.0);
    stats.ttft_p99 = ttft_.Percentile(99.0);
  }
  if (!tpot_.empty()) {
    stats.tpot_p50 = tpot_.Percentile(50.0);
    stats.tpot_p99 = tpot_.Percentile(99.0);
  }
  return stats;
}

FleetStats ClusterMetrics::FromRouter(const FleetRouter& router) {
  ClusterMetrics metrics;
  for (int i = 0; i < router.num_replicas(); ++i) {
    const Engine& replica = router.replica(i);
    metrics.AddReplica(replica.metrics(), FleetCore::LoadOf(replica).occupancy);
  }
  metrics.AddFleetCounters(router.counters());
  return metrics.Summarize();
}

std::string FleetStats::DebugString() const {
  std::ostringstream os;
  os << "fleet: completed=" << completed << " failed=" << failed << " hit_rate=" << hit_rate
     << " ttft_p50=" << ttft_p50 << " ttft_p99=" << ttft_p99 << " tpot_p50=" << tpot_p50
     << " tpot_p99=" << tpot_p99 << "\n";
  if (replica_deaths > 0 || replica_stalls > 0) {
    // Printed only when recovery happened, so fault-free output is unchanged.
    os << "recovery: deaths=" << replica_deaths << " stalls=" << replica_stalls
       << " death_cancels=" << death_cancels << " rerouted=" << rerouted
       << " submitted=" << submitted << " records=" << completed + failed << "\n";
  }
  for (const ReplicaStats& row : replicas) {
    os << "  replica " << row.replica << ": completed=" << row.completed
       << " failed=" << row.failed << " hit_rate=" << row.hit_rate
       << " occupancy=" << row.occupancy << " ttft_p50=" << row.ttft_p50
       << " ttft_p99=" << row.ttft_p99 << "\n";
  }
  return os.str();
}

}  // namespace jenga

#include "src/metrics/metrics.h"

#include <algorithm>

namespace jenga {

void EngineMetrics::RecordStep(double time, int64_t scheduled_tokens, int decode_batch) {
  total_steps_ += 1;
  total_scheduled_tokens_ += scheduled_tokens;
  last_time_ = time;
  decode_batch_.Add(time, static_cast<double>(decode_batch));
}

int64_t EngineMetrics::CompletedRequests() const {
  int64_t count = 0;
  for (const RequestRecord& record : finished_) {
    if (!record.failed) {
      ++count;
    }
  }
  return count;
}

int64_t EngineMetrics::FailedRequests() const {
  return static_cast<int64_t>(finished_.size()) - CompletedRequests();
}

int64_t EngineMetrics::CancelledRecords() const {
  int64_t count = 0;
  for (const RequestRecord& record : finished_) {
    if (record.cancelled) {
      ++count;
    }
  }
  return count;
}

int64_t EngineMetrics::TotalOutputTokens() const {
  int64_t total = 0;
  for (const RequestRecord& record : finished_) {
    if (!record.failed) {
      total += record.output_len;
    }
  }
  return total;
}

double EngineMetrics::RequestThroughput() const {
  if (last_time_ <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(CompletedRequests()) / last_time_;
}

double EngineMetrics::TokenThroughput() const {
  if (last_time_ <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(TotalOutputTokens()) / last_time_;
}

double EngineMetrics::MeanE2eLatency() const {
  Summary summary;
  for (const RequestRecord& record : finished_) {
    if (!record.failed) {
      summary.Add(record.E2eLatency());
    }
  }
  return summary.Mean();
}

double EngineMetrics::MeanTtft() const {
  Summary summary;
  for (const RequestRecord& record : finished_) {
    if (!record.failed) {
      summary.Add(record.Ttft());
    }
  }
  return summary.Mean();
}

double EngineMetrics::MeanTpot() const {
  Summary summary;
  for (const RequestRecord& record : finished_) {
    if (!record.failed && record.output_len > 1) {
      summary.Add(record.Tpot());
    }
  }
  return summary.Mean();
}

Summary EngineMetrics::TtftDistribution() const {
  Summary summary;
  for (const RequestRecord& record : finished_) {
    if (!record.failed) {
      summary.Add(record.Ttft());
    }
  }
  return summary;
}

Summary EngineMetrics::TpotDistribution() const {
  Summary summary;
  for (const RequestRecord& record : finished_) {
    if (!record.failed && record.output_len > 1) {
      summary.Add(record.Tpot());
    }
  }
  return summary;
}

Summary EngineMetrics::E2eDistribution() const {
  Summary summary;
  for (const RequestRecord& record : finished_) {
    if (!record.failed) {
      summary.Add(record.E2eLatency());
    }
  }
  return summary;
}

double EngineMetrics::TtftPercentile(double p) const {
  const Summary summary = TtftDistribution();
  return summary.empty() ? 0.0 : summary.Percentile(p);
}

double EngineMetrics::TpotPercentile(double p) const {
  const Summary summary = TpotDistribution();
  return summary.empty() ? 0.0 : summary.Percentile(p);
}

}  // namespace jenga

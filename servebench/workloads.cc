#include "servebench/workloads.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/common/sha256.h"
#include "src/model/model_zoo.h"

namespace servebench {
namespace {

constexpr int32_t kVocab = 50000;

// SplitMix64. Kept local, not the simulator's Rng, so that a change to the code under test
// can never change the inputs it is measured on.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Exponential(double rate) { return -std::log1p(-Unit()) / rate; }
  double Normal(double mean, double stddev) {
    const double u1 = std::max(Unit(), 1e-300);
    return mean + stddev * std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * Unit());
  }

 private:
  uint64_t state_;
};

std::vector<int32_t> Tokens(int64_t count, Rng& rng) {
  std::vector<int32_t> tokens(static_cast<size_t>(count));
  for (int32_t& t : tokens) {
    t = static_cast<int32_t>(rng.Uniform(0, kVocab - 1));
  }
  return tokens;
}

// Poisson arrival times rescaled so the last arrival lands at exactly count / rate: the
// burst pattern varies with the seed, the offered load does not.
std::vector<double> PoissonArrivals(int count, double rate, Rng& rng) {
  std::vector<double> times(static_cast<size_t>(count));
  double t = 0.0;
  for (double& at : times) {
    t += rng.Exponential(rate);
    at = t;
  }
  const double scale = (static_cast<double>(count) / rate) / t;
  for (double& at : times) {
    at *= scale;
  }
  return times;
}

// Short questions about a pool of shared long articles (arXiv-QA shape). Article lengths
// are stratified over [6000, 12000] so the working set is the same size for every seed.
Trace ArxivEvict(uint64_t seed) {
  constexpr int kRequests = 750;
  constexpr double kRate = 1.2;
  constexpr int kArticles = 20;
  Rng rng(seed ^ 0xA7C1E5ull);
  std::vector<std::vector<int32_t>> articles;
  for (int a = 0; a < kArticles; ++a) {
    const int64_t len = 6000 + static_cast<int64_t>(6000.0 * (a + rng.Unit()) / kArticles);
    articles.push_back(Tokens(len, rng));
  }
  const std::vector<double> arrivals = PoissonArrivals(kRequests, kRate, rng);
  Trace trace(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    TraceItem& item = trace[static_cast<size_t>(i)];
    item.prompt = articles[static_cast<size_t>(rng.Uniform(0, kArticles - 1))];
    const std::vector<int32_t> question = Tokens(rng.Uniform(32, 192), rng);
    item.prompt.insert(item.prompt.end(), question.begin(), question.end());
    item.output_len = rng.Uniform(32, 128);
    item.arrival_time = arrivals[static_cast<size_t>(i)];
  }
  return trace;
}

// Unshared MMLU-pro prompts with chain-of-thought-length outputs: decode-bound, no hits.
Trace MmluDecode(uint64_t seed) {
  constexpr int kRequests = 2000;
  constexpr double kRate = 1.9;
  Rng rng(seed ^ 0x3A3B1Dull);
  const std::vector<double> arrivals = PoissonArrivals(kRequests, kRate, rng);
  Trace trace(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    TraceItem& item = trace[static_cast<size_t>(i)];
    const int64_t len = std::clamp<int64_t>(std::llround(rng.Normal(1200, 600)), 64, 3076);
    item.prompt = Tokens(len, rng);
    item.output_len = rng.Uniform(256, 1024);
    item.arrival_time = arrivals[static_cast<size_t>(i)];
  }
  return trace;
}

// Distinct long documents, all submitted at t = 0 (offline batch).
Trace SpecBatch(uint64_t seed) {
  constexpr int kRequests = 600;
  Rng rng(seed ^ 0x5BEC0Dull);
  Trace trace(kRequests);
  for (TraceItem& item : trace) {
    item.prompt = Tokens(rng.Uniform(10000, 14000), rng);
    item.output_len = rng.Uniform(256, 512);
  }
  return trace;
}

const Workload kWorkloads[] = {
    {.name = "arxiv-evict",
     .model = jenga::Gemma2_9B,
     .memory_fraction = 0.4,
     .open_loop = true,
     .ttft_limit_s = 1.0,
     .tpot_limit_ms = 25.0,
     .knee_ratio = 3.0,
     .traces_per_run = 16,
     .generate = ArxivEvict},
    {.name = "mmlu-decode",
     .model = jenga::Jamba52B_Fp8,
     .open_loop = true,
     .ttft_limit_s = 1.5,
     .tpot_limit_ms = 55.0,
     .knee_ratio = 3.0,
     .traces_per_run = 12,
     .generate = MmluDecode},
    {.name = "spec-batch",
     .spec = true,
     .model = jenga::Gemma2_27B,
     .draft = jenga::Gemma2_2B,
     .ttft_limit_s = 900.0,
     .tpot_limit_ms = 30.0,
     .traces_per_run = 1,
     .generate = SpecBatch},
};

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

Trace GenerateTrace(const Workload& w, uint64_t seed, int index) {
  Rng rng(seed);
  uint64_t trace_seed = rng.Next();
  for (int i = 0; i < index; ++i) {
    trace_seed = rng.Next();
  }
  return w.generate(trace_seed);
}

std::string TraceSha256(const Trace& trace) {
  std::string bytes;
  const auto put = [&bytes](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  for (const TraceItem& item : trace) {
    const uint64_t prompt_len = item.prompt.size();
    put(&item.arrival_time, sizeof(item.arrival_time));
    put(&item.output_len, sizeof(item.output_len));
    put(&prompt_len, sizeof(prompt_len));
    put(item.prompt.data(), item.prompt.size() * sizeof(int32_t));
  }
  return jenga::Sha256Hex(bytes);
}

}  // namespace servebench

// Serving benchmark driver. One process runs one workload in one mode and prints one JSON
// line; servebench/run.py builds this binary and turns those lines into the benchmark result.
// A run covers the workload's `traces_per_run` traces, all derived from --seed.
//
//   servebench --workload <name> --seed <n> --mode measure --seconds <s>
//       Untraced passes (no observer attached), cycling over the traces until <s> seconds
//       have elapsed: host-cost metrics are medians over passes at reference host speed, the
//       simulated metrics are pooled over one pass per trace (later passes must replay it).
//   servebench --workload <name> --seed <n> --mode mem
//       One untraced pass of the first trace: the peak RSS it adds over the generated inputs.
//   servebench --workload <name> --seed <n> --mode trace --seconds <s> --trace-out <file>
//       Untraced and traced passes of every trace: per-layer metrics, the tracing overhead,
//       and the check that observers leave the trajectory unchanged. The first traced
//       pass's spans go to <file> at exit.
//   servebench --workload <name> --seed <n> --mode sha
//       Prints the SHA-256 of the run's traces only.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "servebench/workloads.h"
#include "src/common/sha256.h"
#include "src/core/audit_events.h"
#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "src/metrics/step_profiler.h"

namespace servebench {
namespace {

using jenga::Engine;
using jenga::RequestRecord;
using jenga::SpecDecodeEngine;
using jenga::StepPhase;
using jenga::StepProfiler;

// Passes a run repeats at least, whatever --seconds says.
constexpr int kMinMeasurePasses = 3;
// Traced passes sample pool occupancy and the memory breakdown every this many steps.
constexpr int64_t kSampleEvery = 64;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (`p` in (0, 100]) of an unsorted sample; 0 for an empty one.
template <typename T>
double Percentile(std::vector<T> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t at = std::clamp<size_t>(static_cast<size_t>(rank), 1, values.size()) - 1;
  return static_cast<double>(values[at]);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Host speed calibration ---

// On a shared host, speed can drift by up to a third between runs, and a slow phase can last
// a whole run, which no median over passes can remove. So every measured pass is bracketed by a fixed kernel that does not touch the
// simulator, and the host-cost metrics are reported at reference speed: scaled by
// CalibrationNs() / kReferenceCalibrationNs, the kernel's time on the same host just then.
constexpr double kReferenceCalibrationNs = 12.5e6;

// The calibration kernel's result lands here so the compiler cannot drop the work.
volatile uint64_t calibration_sink = 0;

// Hash-map churn, a sort and a dependent-load walk: the kinds of work a simulator step does.
// kReferenceCalibrationNs is its time on the 4-vCPU Xeon VM of NOTES.md when that VM runs fast.
double CalibrationNs() {
  const int64_t start = NowNs();
  uint64_t x = 0x243F6A8885A308D3ull;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 17;
  };
  std::unordered_map<uint64_t, uint64_t> map;
  map.reserve(1 << 15);
  uint64_t acc = 0;
  for (int i = 0; i < 300000; ++i) {
    const uint64_t key = next() & 0xFFFF;
    const auto it = map.find(key);
    if (it == map.end()) {
      map.emplace(key, x);
    } else {
      acc += it->second;
      if (i % 3 == 0) {
        map.erase(it);
      }
    }
  }
  std::vector<uint64_t> values(1 << 16);
  for (uint64_t& v : values) {
    v = next();
  }
  std::sort(values.begin(), values.end());
  for (size_t i = 0, at = 0; i < values.size(); ++i) {
    at = static_cast<size_t>(values[at] + acc) % values.size();
    acc += at;
  }
  calibration_sink = acc;
  return static_cast<double>(NowNs() - start);
}

// --- Observers of the traced pass ---

// Counts the allocator transitions the per-layer `core.*` metrics report.
class CountingSink final : public jenga::AuditSink {
 public:
  void OnPageClaimed(int, jenga::SmallPageId, jenga::RequestId) override { ++claimed; }
  void OnPageRevived(int, jenga::SmallPageId) override { ++revived; }
  void OnPageCached(int, jenga::SmallPageId, jenga::BlockHash) override { ++cached; }
  void OnPageEvicted(int, jenga::SmallPageId) override { ++evicted; }
  void OnEvictorPop(int, jenga::SmallPageId) override { ++evictor_pops; }
  void OnReclaimPushed(int, jenga::LargePageId, jenga::Tick) override { ++reclaim_pushes; }
  void OnLargeReclaimed(int, jenga::LargePageId) override { ++large_reclaims; }

  int64_t claimed = 0;
  int64_t revived = 0;
  int64_t cached = 0;
  int64_t evicted = 0;
  int64_t evictor_pops = 0;
  int64_t reclaim_pushes = 0;
  int64_t large_reclaims = 0;
};

struct SubmitSpan {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t request = 0;
};

struct StepSpan {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t tokens = 0;  // Tokens the step scheduled.
  std::array<int64_t, jenga::kNumStepPhases> phase_ns{};  // Self time per phase.
};

// Everything a traced pass records; spans stay in memory until the process writes them out.
struct Tracer {
  CountingSink sink;
  StepProfiler profiler;
  std::vector<SubmitSpan> submits;
  std::vector<StepSpan> steps;
  int64_t origin_ns = 0;
  double occupancy_sum = 0.0;
  int64_t samples = 0;
  double wasted_bytes_sum = 0.0;
  // Bytes held for running requests: used pages plus the empty slots of held large pages.
  double held_bytes_sum = 0.0;
};

// --- Engine adapters (the two engines expose the same attach points differently) ---

template <typename E>
struct Ops;

template <>
struct Ops<Engine> {
  static std::unique_ptr<Engine> Make(const Workload& w) {
    jenga::EngineConfig config = jenga::JengaProfile(w.model(), jenga::H100());
    config.memory_fraction = w.memory_fraction;
    config.memory_sample_every = 0;  // The engine's own per-step sampler is an observer too.
    return std::make_unique<Engine>(std::move(config));
  }
  static void AttachAudit(Engine& e, jenga::AuditSink* sink) {
    e.kv().allocator_mutable().SetAuditSink(sink);
  }
  static void Sample(const Engine& e, Tracer& t) {
    const jenga::KvManager::MemoryStats stats = e.kv().GetMemoryStats();
    t.occupancy_sum += e.PoolOccupancy();
    t.wasted_bytes_sum += static_cast<double>(stats.wasted_bytes);
    t.held_bytes_sum += static_cast<double>(stats.used_bytes + stats.internal_frag_bytes);
    t.samples += 1;
  }
  static int64_t HitTokens(const Engine& e) { return e.metrics().cache_hit_tokens; }
  static int64_t PrefillTokens(const Engine& e, int64_t /*generated*/) {
    return e.metrics().prefill_tokens_computed;
  }
};

template <>
struct Ops<SpecDecodeEngine> {
  static std::unique_ptr<SpecDecodeEngine> Make(const Workload& w) {
    jenga::SpecDecodeConfig config;
    config.target = w.model();
    config.draft = w.draft();
    config.gpu = jenga::H100();
    config.strategy = jenga::SpecStrategy::kJenga;
    config.seed = 0xF19;  // Acceptance draws; fixed so only the trace varies with --seed.
    return std::make_unique<SpecDecodeEngine>(std::move(config));
  }
  static void AttachAudit(SpecDecodeEngine& e, jenga::AuditSink* sink) {
    for (int m = 0; m < e.num_managers(); ++m) {
      e.manager_mutable(m).allocator_mutable().SetAuditSink(sink);
    }
  }
  static void Sample(const SpecDecodeEngine& e, Tracer& t) {
    for (int m = 0; m < e.num_managers(); ++m) {
      const jenga::KvManager::MemoryStats stats = e.manager(m).GetMemoryStats();
      t.occupancy_sum += e.PoolOccupancyOf(m) / e.num_managers();
      t.wasted_bytes_sum += static_cast<double>(stats.wasted_bytes);
      t.held_bytes_sum += static_cast<double>(stats.used_bytes + stats.internal_frag_bytes);
    }
    t.samples += 1;
  }
  // The spec engine never adds to EngineMetrics::cache_hit_tokens; the managers count hits.
  static int64_t HitTokens(const SpecDecodeEngine& e) {
    int64_t hits = 0;
    for (int m = 0; m < e.num_managers(); ++m) {
      hits += e.manager(m).total_cache_hit_tokens();
    }
    return hits;
  }
  // Nor does it count prefill tokens: every scheduled token is prefill or an emitted one.
  static int64_t PrefillTokens(const SpecDecodeEngine& e, int64_t generated) {
    return e.metrics().total_scheduled_tokens() - generated;
  }
};

// --- One pass: build the engine, submit the trace, step to completion ---

struct PassResult {
  double setup_s = 0.0;  // Engine construction + submitting the trace.
  double loop_s = 0.0;   // First StepOnce to the last.
  std::vector<int64_t> step_ns;  // Untraced passes: wall time of every StepOnce.
  std::vector<RequestRecord> records;
  int64_t steps = 0;  // StepOnce calls that did work (returned true).
  int64_t scheduled_tokens = 0;
  int64_t hit_tokens = 0;
  int64_t prefill_tokens = 0;
  int64_t recomputed_tokens = 0;
  double decode_batch_mean = 0.0;

  [[nodiscard]] int64_t OutputTokens() const {
    int64_t total = 0;
    for (const RequestRecord& r : records) {
      total += r.failed ? 0 : r.output_len;
    }
    return total;
  }
};

template <typename E>
PassResult RunPass(const Workload& w, const Trace& trace, Tracer* tracer) {
  PassResult out;
  const int64_t setup_begin = NowNs();
  std::unique_ptr<E> engine = Ops<E>::Make(w);
  if (tracer != nullptr) {
    tracer->origin_ns = setup_begin;
    Ops<E>::AttachAudit(*engine, &tracer->sink);
    engine->set_step_profiler(&tracer->profiler);
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    jenga::Prompt prompt;
    prompt.tokens = trace[i].prompt;
    jenga::Request request = jenga::MakeRequest(static_cast<jenga::RequestId>(i), std::move(prompt),
                                                trace[i].output_len, trace[i].arrival_time);
    if (tracer == nullptr) {
      engine->Submit(std::move(request));
    } else {
      const int64_t start = NowNs();
      engine->Submit(std::move(request));
      tracer->submits.push_back({start, NowNs() - start, static_cast<int64_t>(i)});
    }
  }
  const int64_t loop_begin = NowNs();
  out.setup_s = static_cast<double>(loop_begin - setup_begin) * 1e-9;

  if (tracer == nullptr) {
    out.step_ns.reserve(1 << 17);
    int64_t last = loop_begin;
    while (engine->StepOnce()) {
      const int64_t now = NowNs();
      out.step_ns.push_back(now - last);
      last = now;
    }
    out.steps = static_cast<int64_t>(out.step_ns.size());
  } else {
    std::array<int64_t, jenga::kNumStepPhases> phase_before{};
    int64_t tokens_before = 0;
    while (true) {
      const int64_t start = NowNs();
      const bool more = engine->StepOnce();
      const int64_t end = NowNs();
      if (!more) {
        break;
      }
      StepSpan span;
      span.start_ns = start;
      span.dur_ns = end - start;
      const int64_t tokens = engine->metrics().total_scheduled_tokens();
      span.tokens = tokens - tokens_before;
      tokens_before = tokens;
      for (int p = 0; p < jenga::kNumStepPhases; ++p) {
        const int64_t ns = tracer->profiler.phase(static_cast<StepPhase>(p)).ns;
        span.phase_ns[static_cast<size_t>(p)] = ns - phase_before[static_cast<size_t>(p)];
        phase_before[static_cast<size_t>(p)] = ns;
      }
      tracer->steps.push_back(span);
      out.steps += 1;
      if (out.steps % kSampleEvery == 0) {
        Ops<E>::Sample(*engine, *tracer);
      }
    }
  }
  out.loop_s = static_cast<double>(NowNs() - loop_begin) * 1e-9;

  const jenga::EngineMetrics& metrics = engine->metrics();
  out.records = metrics.finished();
  out.scheduled_tokens = metrics.total_scheduled_tokens();
  out.hit_tokens = Ops<E>::HitTokens(*engine);
  out.prefill_tokens = Ops<E>::PrefillTokens(*engine, out.OutputTokens());
  out.recomputed_tokens = metrics.recomputed_tokens;
  out.decode_batch_mean = metrics.MeanDecodeBatch();
  return out;
}

PassResult Pass(const Workload& w, const Trace& trace, Tracer* tracer) {
  return w.spec ? RunPass<SpecDecodeEngine>(w, trace, tracer) : RunPass<Engine>(w, trace, tracer);
}

// --- Metrics and checks over one trajectory ---

using Metrics = std::map<std::string, double>;

// The simulated metrics of a run, pooled over the trajectories of its traces (one pass
// each); the identity checks compare these too.
Metrics SimMetrics(const Workload& w, const std::vector<const PassResult*>& passes,
                   size_t submitted) {
  std::vector<double> ttft;
  std::vector<double> tpot_ms;
  double makespan = 0.0;
  double output_tokens = 0.0;
  int64_t slo_met = 0;
  int64_t completed = 0;
  for (const PassResult* pass : passes) {
    double last_finish = 0.0;
    for (const RequestRecord& r : pass->records) {
      last_finish = std::max(last_finish, r.finish_time);
      if (r.failed) {
        continue;
      }
      ++completed;
      ttft.push_back(r.Ttft());
      const bool has_tpot = r.output_len > 1;
      if (has_tpot) {
        tpot_ms.push_back(r.Tpot() * 1e3);
      }
      if (r.Ttft() <= w.ttft_limit_s && (!has_tpot || r.Tpot() * 1e3 <= w.tpot_limit_ms)) {
        ++slo_met;
      }
    }
    makespan += last_finish;
    output_tokens += static_cast<double>(pass->OutputTokens());
  }
  const double n = static_cast<double>(submitted);
  Metrics m;
  m["sim_tok_per_s"] = Ratio(output_tokens, makespan);
  m["sim_ttft_p50_s"] = Percentile(ttft, 50);
  m["sim_ttft_p99_s"] = Percentile(ttft, 99);
  m["sim_tpot_p50_ms"] = Percentile(tpot_ms, 50);
  m["sim_tpot_p99_ms"] = Percentile(tpot_ms, 99);
  m["sim_slo_pct"] = 100.0 * Ratio(static_cast<double>(slo_met), n);
  m["completed_pct"] = 100.0 * Ratio(static_cast<double>(completed), n);
  return m;
}

// Digest of every field of every per-request record, in finish order.
std::string RecordsDigest(const PassResult& pass) {
  std::string bytes;
  for (const RequestRecord& r : pass.records) {
    const double times[] = {r.arrival_time, r.first_scheduled_time, r.first_token_time,
                            r.finish_time};
    const int64_t ints[] = {r.id, r.prompt_len, r.output_len, r.cached_prefix_tokens,
                            r.preemptions, r.failed ? 1 : 0, r.cancelled ? 1 : 0};
    bytes.append(reinterpret_cast<const char*>(times), sizeof(times));
    bytes.append(reinterpret_cast<const char*>(ints), sizeof(ints));
  }
  return jenga::Sha256Hex(bytes);
}

void AddFailure(std::vector<std::string>& failed, const std::string& check) {
  if (std::find(failed.begin(), failed.end(), check) == failed.end()) {
    failed.push_back(check);
  }
}

// Output checks on one pass; appends the name of each broken check to `failed`.
void CheckPass(const Workload& w, const Trace& trace, const PassResult& pass,
               std::vector<std::string>& failed) {
  const auto fail = [&failed](const std::string& check) { AddFailure(failed, check); };
  std::vector<int> seen(trace.size(), 0);
  int64_t ok = 0;
  int64_t bad = 0;
  for (const RequestRecord& r : pass.records) {
    if (r.id < 0 || static_cast<size_t>(r.id) >= trace.size() || seen[static_cast<size_t>(r.id)]++) {
      fail("ledger");
      continue;
    }
    if (r.failed) {
      ++bad;
      continue;
    }
    ++ok;
    if (r.Ttft() < 0.0) {
      fail("ttft_nonnegative");
    }
    if (r.finish_time < r.first_token_time) {
      fail("finish_after_first_token");
    }
    if (r.output_len != trace[static_cast<size_t>(r.id)].output_len) {
      fail("output_lengths");
    }
  }
  // submitted == finished + failed.
  if (ok + bad != static_cast<int64_t>(trace.size())) {
    fail("ledger");
  }
  if (w.open_loop) {
    // Arrivals are in id order. A failed request has no TTFT: it counts as infinitely late.
    std::vector<double> ttft(trace.size(), INFINITY);
    for (const RequestRecord& r : pass.records) {
      if (!r.failed && r.id >= 0 && static_cast<size_t>(r.id) < trace.size()) {
        ttft[static_cast<size_t>(r.id)] = r.Ttft();
      }
    }
    // Means, not medians: TTFT is bimodal (prefix hit or miss), and a decile's median can
    // flip between the modes without any backlog.
    const size_t decile = std::max<size_t>(1, trace.size() / 10);
    double first = 0.0;
    double last = 0.0;
    for (size_t i = 0; i < decile; ++i) {
      first += ttft[i];
      last += ttft[trace.size() - 1 - i];
    }
    if (!(last <= w.knee_ratio * first)) {
      std::fprintf(stderr, "knee_guard: last-decile mean TTFT %.4g s > %.3g x first-decile %.4g s\n",
                   last / static_cast<double>(decile), w.knee_ratio,
                   first / static_cast<double>(decile));
      fail("knee_guard");
    }
  }
}

// --- Per-layer metrics: totals over the traced passes of one set (one per trace) ---

struct LayerTotals {
  CountingSink counts;
  std::array<StepProfiler::PhaseStats, jenga::kNumStepPhases> phases{};
  int64_t steps = 0;
  int64_t scheduled_tokens = 0;
  int64_t hit_tokens = 0;
  int64_t prefill_tokens = 0;
  int64_t recomputed_tokens = 0;
  int64_t preemptions = 0;
  double decode_batch_steps = 0.0;  // Sum of decode_batch_mean * steps.
  double occupancy_sum = 0.0;
  int64_t samples = 0;
  double wasted_bytes_sum = 0.0;
  double held_bytes_sum = 0.0;
  std::vector<double> queue_wait_s;
  // Host ns and scheduled tokens of the first and second half of each pass's steps.
  std::array<double, 2> half_ns{};
  std::array<double, 2> half_tokens{};
  double traced_s = 0.0;
  double untraced_s = 0.0;

  void Add(const PassResult& traced, const Tracer& t, const PassResult& untraced) {
    counts.claimed += t.sink.claimed;
    counts.revived += t.sink.revived;
    counts.cached += t.sink.cached;
    counts.evicted += t.sink.evicted;
    counts.evictor_pops += t.sink.evictor_pops;
    counts.reclaim_pushes += t.sink.reclaim_pushes;
    counts.large_reclaims += t.sink.large_reclaims;
    for (int p = 0; p < jenga::kNumStepPhases; ++p) {
      const StepProfiler::PhaseStats& s = t.profiler.phase(static_cast<StepPhase>(p));
      phases[static_cast<size_t>(p)].ns += s.ns;
      phases[static_cast<size_t>(p)].calls += s.calls;
    }
    steps += traced.steps;
    scheduled_tokens += traced.scheduled_tokens;
    hit_tokens += traced.hit_tokens;
    prefill_tokens += traced.prefill_tokens;
    recomputed_tokens += traced.recomputed_tokens;
    decode_batch_steps += traced.decode_batch_mean * static_cast<double>(traced.steps);
    occupancy_sum += t.occupancy_sum;
    samples += t.samples;
    wasted_bytes_sum += t.wasted_bytes_sum;
    held_bytes_sum += t.held_bytes_sum;
    for (const RequestRecord& r : traced.records) {
      preemptions += r.preemptions;
      if (!r.failed) {
        queue_wait_s.push_back(r.first_scheduled_time - r.arrival_time);
      }
    }
    const size_t half = t.steps.size() / 2;
    for (size_t i = 0; i < t.steps.size(); ++i) {
      half_ns[i < half ? 0 : 1] += static_cast<double>(t.steps[i].dur_ns);
      half_tokens[i < half ? 0 : 1] += static_cast<double>(t.steps[i].tokens);
    }
    traced_s += traced.setup_s + traced.loop_s;
    untraced_s += untraced.setup_s + untraced.loop_s;
  }

  [[nodiscard]] Metrics Finish() const {
    const auto phase = [this](StepPhase p) { return phases[static_cast<size_t>(p)]; };
    const auto per_call = [](const StepProfiler::PhaseStats& s) {
      return Ratio(static_cast<double>(s.ns), static_cast<double>(s.calls));
    };
    const auto per_step = [this](const StepProfiler::PhaseStats& s) {
      return Ratio(static_cast<double>(s.ns), static_cast<double>(steps));
    };
    const auto count = [](int64_t v) { return static_cast<double>(v); };
    Metrics m;
    m["core.pages_claimed"] = count(counts.claimed);
    m["core.pages_revived"] = count(counts.revived);
    m["core.pages_cached"] = count(counts.cached);
    m["core.pages_evicted"] = count(counts.evicted);
    m["core.large_reclaims"] = count(counts.large_reclaims);
    m["core.reclaim_pushes"] = count(counts.reclaim_pushes);
    m["core.reclaim_push_per_reclaim"] =
        Ratio(count(counts.reclaim_pushes), count(counts.large_reclaims));
    m["core.evictor_pops"] = count(counts.evictor_pops);
    m["core.occupancy_mean_pct"] = 100.0 * Ratio(occupancy_sum, count(samples));
    m["core.waste_pct"] = 100.0 * Ratio(wasted_bytes_sum, held_bytes_sum);

    const StepProfiler::PhaseStats hit = phase(StepPhase::kHitScan);
    const StepProfiler::PhaseStats alloc = phase(StepPhase::kAllocate);
    const StepProfiler::PhaseStats commit = phase(StepPhase::kCommit);
    const StepProfiler::PhaseStats preempt = phase(StepPhase::kEvictPreempt);
    m["kv.hit_scan_ns_per_call"] = per_call(hit);
    m["kv.hit_scan_calls"] = count(hit.calls);
    m["kv.allocate_ns_per_call"] = per_call(alloc);
    m["kv.allocate_calls"] = count(alloc.calls);
    m["kv.commit_ns_per_step"] = per_step(commit);
    m["kv.commit_calls"] = count(commit.calls);
    m["kv.evict_preempt_ns"] = count(preempt.ns);
    m["kv.evict_preempt_calls"] = count(preempt.calls);
    m["kv.hit_token_pct"] = 100.0 * Ratio(count(hit_tokens), count(hit_tokens + prefill_tokens));
    m["kv.prefill_tokens"] = count(prefill_tokens);

    m["engine.steps"] = count(steps);
    m["engine.schedule_ns_per_step"] = per_step(phase(StepPhase::kSchedule));
    m["engine.hook_ns_per_step"] = per_step(phase(StepPhase::kHookDispatch));
    m["engine.decode_batch_mean"] = Ratio(decode_batch_steps, count(steps));
    m["engine.queue_wait_p50_s"] = Percentile(queue_wait_s, 50);
    m["engine.preemptions"] = count(preemptions);
    m["engine.recomputed_tokens"] = count(recomputed_tokens);
    m["engine.late_over_early_ns_per_tok"] =
        Ratio(Ratio(half_ns[1], half_tokens[1]), Ratio(half_ns[0], half_tokens[0]));

    m["gpu.sim_ns_per_step"] = per_step(phase(StepPhase::kGpuSim));
    m["gpu.prefill_token_share"] = Ratio(count(prefill_tokens), count(scheduled_tokens));

    m["trace.overhead_pct"] = 100.0 * (Ratio(traced_s, untraced_s) - 1.0);
    return m;
  }
};

// Chrome trace-event JSON (chrome://tracing, Perfetto): one span per Submit and per StepOnce;
// a step's args carry the self time of every phase that ran in it.
bool WriteTrace(const Tracer& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const auto us = [&t](int64_t ns) { return static_cast<double>(ns - t.origin_ns) * 1e-3; };
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const SubmitSpan& s : t.submits) {
    std::fprintf(f, "%s{\"name\":\"Submit\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"request\":%lld}}",
                 first ? "" : ",\n", us(s.start_ns), static_cast<double>(s.dur_ns) * 1e-3,
                 static_cast<long long>(s.request));
    first = false;
  }
  for (size_t i = 0; i < t.steps.size(); ++i) {
    const StepSpan& s = t.steps[i];
    std::fprintf(f, "%s{\"name\":\"StepOnce\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"step\":%zu,\"tokens\":%lld",
                 first ? "" : ",\n", us(s.start_ns), static_cast<double>(s.dur_ns) * 1e-3, i,
                 static_cast<long long>(s.tokens));
    first = false;
    for (int p = 0; p < jenga::kNumStepPhases; ++p) {
      const int64_t ns = s.phase_ns[static_cast<size_t>(p)];
      if (ns != 0) {
        std::fprintf(f, ",\"%s_ns\":%lld", jenga::StepPhaseName(static_cast<StepPhase>(p)),
                     static_cast<long long>(ns));
      }
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- Output ---

void PrintResult(const Metrics& metrics, const std::vector<std::string>& failed_checks,
                 const std::map<std::string, std::string>& info) {
  std::printf("{");
  for (const auto& [key, value] : info) {
    std::printf("\"%s\": %s, ", key.c_str(), value.c_str());
  }
  std::printf("\"checks_failed\": [");
  for (size_t i = 0; i < failed_checks.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", failed_checks[i].c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [key, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", key.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

int64_t FailedCount(const PassResult& pass) {
  int64_t failed = 0;
  for (const RequestRecord& r : pass.records) {
    failed += r.failed ? 1 : 0;
  }
  return failed;
}

int64_t MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload <arxiv-evict|mmlu-decode|spec-batch> --seed <n> "
               "--mode <measure|mem|trace|sha> [--seconds <s>] [--trace-out <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string mode;
  std::string trace_out;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload_name);
  if (w == nullptr || !have_seed || argc % 2 == 0) {
    return Usage();
  }

  const int traces = w->traces_per_run;
  const auto trace_of = [w, seed](int index) { return GenerateTrace(*w, seed, index); };
  std::map<std::string, std::string> info;

  if (mode == "mem") {
    const Trace trace = trace_of(0);
    // Inputs are generated; everything the pass allocates beyond them raises the peak.
    const int64_t before_kb = MaxRssKb();
    const PassResult pass = Pass(*w, trace, nullptr);
    const int64_t after_kb = MaxRssKb();
    info["attempted"] = std::to_string(trace.size());
    info["failed"] = std::to_string(FailedCount(pass));
    PrintResult({{"mem_peak_mb", static_cast<double>(after_kb - before_kb) / 1024.0}}, {}, info);
    return 0;
  }

  // Traces are regenerated for every pass rather than held: one at a time keeps memory flat.
  // The first pass over each one hashes it, checks its outputs and pins its trajectory.
  std::string trace_shas;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failed_checks;
  const auto first_visit = [&](const Trace& trace, const PassResult& pass) {
    trace_shas += TraceSha256(trace);
    attempted += static_cast<int64_t>(trace.size());
    failed += FailedCount(pass);
    CheckPass(*w, trace, pass, failed_checks);
  };
  const auto finish = [&](const Metrics& metrics) {
    info["attempted"] = std::to_string(attempted);
    info["failed"] = std::to_string(failed);
    info["trace_sha256"] = Quote(jenga::Sha256Hex(trace_shas));
    PrintResult(metrics, failed_checks, info);
    return failed_checks.empty() ? 0 : 1;
  };
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);

  if (mode == "sha") {
    for (int i = 0; i < traces; ++i) {
      const Trace trace = trace_of(i);
      trace_shas += TraceSha256(trace);
      attempted += static_cast<int64_t>(trace.size());
    }
    return finish({});
  }

  if (mode == "measure") {
    std::vector<double> setup_s;
    std::vector<double> tok_per_s;
    std::vector<double> p50_us;
    std::vector<double> p99_us;
    std::vector<PassResult> firsts;  // The first pass over each trace.
    std::vector<std::string> digests;
    double calibration_ns = CalibrationNs();
    for (int pass_index = 0;; ++pass_index) {
      const int index = pass_index % traces;
      const Trace trace = trace_of(index);
      PassResult pass = Pass(*w, trace, nullptr);
      const double calibration_after_ns = CalibrationNs();
      // > 1 while the host runs faster than the reference speed.
      const double speed = kReferenceCalibrationNs / (0.5 * (calibration_ns + calibration_after_ns));
      calibration_ns = calibration_after_ns;
      setup_s.push_back(pass.setup_s * speed);
      tok_per_s.push_back(Ratio(static_cast<double>(pass.OutputTokens()), pass.loop_s) / speed);
      p50_us.push_back(Percentile(pass.step_ns, 50) * 1e-3 * speed);
      p99_us.push_back(Percentile(pass.step_ns, 99) * 1e-3 * speed);
      if (pass_index < traces) {
        first_visit(trace, pass);
        digests.push_back(RecordsDigest(pass));
        pass.step_ns = {};
        firsts.push_back(std::move(pass));
      } else if (RecordsDigest(pass) != digests[static_cast<size_t>(index)]) {
        AddFailure(failed_checks, "replay_identity");
      }
      if (pass_index + 1 >= std::max(traces, kMinMeasurePasses) && NowNs() >= deadline) {
        break;
      }
    }
    std::vector<const PassResult*> pooled;
    for (const PassResult& pass : firsts) {
      pooled.push_back(&pass);
    }
    Metrics m = SimMetrics(*w, pooled, static_cast<size_t>(attempted));
    m["host_tok_per_s"] = Median(tok_per_s);
    m["step_p50_us"] = Median(p50_us);
    m["step_p99_us"] = Median(p99_us);
    m["setup_s"] = Median(setup_s);
    info["passes"] = std::to_string(setup_s.size());
    return finish(m);
  }

  if (mode == "trace") {
    // Warm-up, discarded: a process's first pass pays page faults that later ones do not,
    // which would otherwise land on the untraced side of the overhead ratio.
    (void)Pass(*w, trace_of(0), nullptr);
    std::vector<Metrics> per_set;
    std::unique_ptr<Tracer> kept;  // The first traced pass's spans, written at exit.
    for (int set = 0;; ++set) {
      LayerTotals totals;
      for (int i = 0; i < traces; ++i) {
        const Trace trace = trace_of(i);
        const PassResult untraced = Pass(*w, trace, nullptr);
        auto tracer = std::make_unique<Tracer>();
        const PassResult traced = Pass(*w, trace, tracer.get());
        if (set == 0) {
          first_visit(trace, untraced);
        }
        // Observers must not change the trajectory.
        if (RecordsDigest(traced) != RecordsDigest(untraced) ||
            SimMetrics(*w, {&traced}, trace.size()) != SimMetrics(*w, {&untraced}, trace.size()) ||
            traced.steps != untraced.steps ||
            traced.scheduled_tokens != untraced.scheduled_tokens) {
          AddFailure(failed_checks, "observer_identity");
        }
        totals.Add(traced, *tracer, untraced);
        if (kept == nullptr) {
          kept = std::move(tracer);
        }
      }
      per_set.push_back(totals.Finish());
      if (NowNs() >= deadline) {
        break;
      }
    }
    Metrics m;
    for (const auto& [key, value] : per_set.front()) {
      std::vector<double> values;
      for (const Metrics& set : per_set) {
        values.push_back(set.at(key));
      }
      m[key] = Median(values);
    }
    info["passes"] = std::to_string(per_set.size() * static_cast<size_t>(traces));
    if (!trace_out.empty() && !WriteTrace(*kept, trace_out)) {
      AddFailure(failed_checks, "trace_file");
    }
    return finish(m);
  }
  return Usage();
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }

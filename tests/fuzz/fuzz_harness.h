// Shared scaffolding for the seeded fuzz tiers (engine_fuzz_test, engine_chaos_test): the
// schedule model drawn from a single uint64 seed, prompt construction, pool sizing, and one
// harness interface over Engine and SpecDecodeEngine.
//
// The chaos tier extends the base schedule with fault-injection fields (a FaultPlan + seed,
// the shed gate, per-request deadlines, and mid-run CancelRequest events); all of them
// default to "off", so the plain fuzz tier draws byte-identical schedules to the pre-chaos
// harness.

#ifndef JENGA_TESTS_FUZZ_FUZZ_HARNESS_H_
#define JENGA_TESTS_FUZZ_FUZZ_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/common/random.h"
#include "src/engine/engine.h"
#include "src/engine/kv_manager.h"
#include "src/engine/spec_decode.h"
#include "src/fault/fault_injector.h"
#include "src/model/kv_spec.h"
#include "tests/common/test_env.h"
#include "tests/engine/test_models.h"

namespace jenga {

// ---------------------------------------------------------------------------------------
// Schedule model

enum class FuzzModel { kFull, kSliding, kPyramid, kMamba, kVision, kUnevenSliding };

inline const char* FuzzModelName(FuzzModel model) {
  switch (model) {
    case FuzzModel::kFull:
      return "full";
    case FuzzModel::kSliding:
      return "sliding";
    case FuzzModel::kPyramid:
      return "pyramid";
    case FuzzModel::kMamba:
      return "mamba";
    case FuzzModel::kVision:
      return "vision";
    case FuzzModel::kUnevenSliding:
      return "uneven-sliding";
  }
  return "?";
}

inline ModelConfig MakeFuzzModel(FuzzModel model) {
  switch (model) {
    case FuzzModel::kFull:
      return TinyFullModel();
    case FuzzModel::kSliding:
      return TinySlidingModel();
    case FuzzModel::kPyramid:
      return TinyPyramidModel();
    case FuzzModel::kMamba:
      return TinyMambaModel();
    case FuzzModel::kVision:
      return TinyVisionModel();
    case FuzzModel::kUnevenSliding:
      return TinyUnevenSlidingModel();
  }
  return TinyFullModel();
}

struct FuzzRequestSpec {
  int64_t prompt_len = 0;
  int64_t output_len = 1;
  double arrival = 0.0;
  int family = 0;  // Requests in one family share a token prefix of min(prompt_len).
  int images = 0;  // > 0 only for the vision model.
  bool oversized = false;  // Built to exceed the pool: must end as a failed record.
  double deadline = -1.0;  // Absolute sim-time deadline (< 0 = none; chaos tier only).
};

// A chaos cancel event: abort the request at index `request_index` once the engine has
// executed `step` steps. Indices refer to schedule order, so the minimizer can remap them
// when it drops requests.
struct FuzzCancelSpec {
  int step = 0;
  int request_index = 0;
};

// Chaos elastic events (all default-off; the plain fuzz tier never sets them). Engine
// combinations get a net-zero transient resize (grow `delta_pages` at `grow_step`, shrink
// them back from `shrink_step` on), an optional mid-run repartition (same model, schedule
// pool bytes — the quiesce/rebuild/commit path with its fault site armed), and an optional
// pressure governor (park/shed ladder only; no fallback repartition, so pool capacity always
// returns to the schedule's fit-alone sizing). kVllmManual spec combinations get a one-shot
// draft/target ShiftSplit with a reversing shift later; the schedule doubles the pool when
// this is armed so the transient imbalance cannot break the sizing guarantee.
struct FuzzElasticSpec {
  bool armed = false;
  // Engine combinations.
  int32_t delta_pages = 0;
  int grow_step = -1;
  int shrink_step = -1;
  int repartition_step = -1;
  bool governor = false;
  double high_watermark = 2.0;
  double low_watermark = 1.5;
  int cooldown_steps = 4;
  // kVllmManual spec combinations.
  int shift_from = 0;  // Donor manager: 0 = target, 1 = draft.
  int shift_step = -1;
  int shift_back_step = -1;
};

struct FuzzSchedule {
  uint64_t seed = 0;
  bool spec_engine = false;
  FuzzModel model = FuzzModel::kFull;
  bool jenga = true;                             // Engine only.
  SpecStrategy strategy = SpecStrategy::kJenga;  // SpecDecodeEngine only.
  int64_t pool_bytes = 0;
  int max_num_seqs = 2;
  int max_batched_tokens = 64;
  bool offload = false;
  bool swap_preemption = true;
  bool host_prefix_cache = false;
  int64_t host_pool_bytes = 0;
  double pcie_bandwidth = 1e15;
  std::vector<FuzzRequestSpec> requests;
  // --- Chaos extensions (all default-off; the plain fuzz tier never sets them) ---
  FaultPlan fault_plan;
  uint64_t fault_seed = 1;
  int shed_after_blocked_steps = 0;
  double shed_occupancy_watermark = 0.95;
  std::vector<FuzzCancelSpec> cancels;
  FuzzElasticSpec elastic;
};

inline Prompt BuildFuzzPrompt(const FuzzRequestSpec& r) {
  if (r.images > 0) {
    const int64_t image_tokens = static_cast<int64_t>(r.images) * 8;
    const int64_t text = std::max<int64_t>(2, r.prompt_len - image_tokens);
    return MixedPrompt(text / 2 + r.family, r.images, 8, text - text / 2);
  }
  Prompt prompt;
  prompt.tokens.reserve(static_cast<size_t>(r.prompt_len));
  // Family streams never collide (disjoint id ranges, all < 50000 so generated pseudo-tokens
  // cannot alias a prompt), and two requests of one family share exactly min(len) tokens.
  for (int64_t i = 0; i < r.prompt_len; ++i) {
    prompt.tokens.push_back(static_cast<int32_t>(1 + r.family * 1000 + i % 997));
  }
  return prompt;
}

// Worst-case bytes of per-token KV a request pays across the engine's allocators.
inline int64_t FuzzWorstBytesPerToken(const FuzzSchedule& s, const ModelConfig& target,
                                      const ModelConfig& draft) {
  if (!s.spec_engine) {
    return std::max<int64_t>(1, target.KvBytesPerTokenAllLayers());
  }
  const int64_t t = target.KvBytesPerTokenAllLayers();
  const int64_t d = draft.KvBytesPerTokenAllLayers();
  return std::max<int64_t>(1, 2 * std::max(t, d));  // kVllmMax pays the max size twice.
}

inline int64_t FuzzMambaStateBytes(const ModelConfig& model) {
  int64_t total = 0;
  for (const LayerSpec& layer : model.layers) {
    total += layer.mamba_state_bytes;
  }
  return total;
}

inline FuzzSchedule DrawFuzzSchedule(uint64_t seed, bool spec_engine, bool offload) {
  Rng rng(seed);
  rng.NextU64();  // Decorrelate adjacent seeds.
  FuzzSchedule s;
  s.seed = seed;
  s.spec_engine = spec_engine;
  s.offload = offload;

  if (spec_engine) {
    // SpecDecodeEngine has no vision scheduling; the Engine combinations cover it.
    const FuzzModel kinds[] = {FuzzModel::kFull, FuzzModel::kSliding, FuzzModel::kPyramid,
                               FuzzModel::kMamba};
    s.model = kinds[rng.UniformInt(0, 3)];
    const SpecStrategy strategies[] = {SpecStrategy::kJenga, SpecStrategy::kVllmMax,
                                       SpecStrategy::kVllmManual};
    s.strategy = strategies[rng.UniformInt(0, 2)];
  } else {
    const FuzzModel kinds[] = {FuzzModel::kFull, FuzzModel::kSliding, FuzzModel::kPyramid,
                               FuzzModel::kMamba, FuzzModel::kVision};
    s.model = kinds[rng.UniformInt(0, 4)];
    // The homogeneous baseline reserves Mamba state statically; keep the Mamba stack on the
    // Jenga allocator where the fuzzer's pool sizing model is exact.
    s.jenga = s.model == FuzzModel::kMamba ? true : rng.Bernoulli(0.75);
  }

  s.max_num_seqs = static_cast<int>(rng.UniformInt(2, 5));
  const int64_t chunks[] = {32, 48, 64, 96, 128};
  s.max_batched_tokens = static_cast<int>(chunks[rng.UniformInt(0, 4)]);

  const ModelConfig model = MakeFuzzModel(s.model);
  const ModelConfig draft = TinyDraftModel();

  // Pool sizing: every regular request must be able to finish *alone* (else FCFS livelocks by
  // design), while 2-4 concurrent requests overflow it and force eviction/preemption churn.
  const int64_t max_prompt = rng.UniformInt(64, 288);
  const double headroom = rng.UniformDouble(1.5, 3.0);
  const int64_t per_token = FuzzWorstBytesPerToken(s, model, draft);
  // Running Mamba state (a few per-sequence pages) and vision-embedding slack.
  const int64_t state_margin =
      (FuzzMambaStateBytes(model) + (spec_engine ? FuzzMambaStateBytes(draft) : 0)) * 4 +
      (s.model == FuzzModel::kVision ? 32768 : 0);
  int64_t pool = static_cast<int64_t>(static_cast<double>((max_prompt + 48) * per_token) *
                                      headroom) +
                 state_margin;
  int64_t lcm = MakeJengaSpec(model, 16, /*vision_cache=*/model.vision.present).LcmPageBytes();
  if (spec_engine) {
    // The vLLM-style strategies subtract a static Mamba reservation from their (share of
    // the) pool before sizing the allocator; compensate so the biggest request still fits
    // alone in whatever slice survives.
    const int64_t reservation = StaticMambaReservationBytes(model, s.max_num_seqs) +
                                StaticMambaReservationBytes(draft, s.max_num_seqs);
    pool += reservation;
    if (s.strategy == SpecStrategy::kVllmManual) {
      // SmartSpec splits the pool proportionally to per-token KV size; each manager's share
      // minus its own reservation must still hold one full request of *its* model.
      const int64_t wt = std::max<int64_t>(1, model.KvBytesPerTokenAllLayers());
      const int64_t wd = std::max<int64_t>(1, draft.KvBytesPerTokenAllLayers());
      const int64_t sum = wt + wd;
      const auto need_for = [&](const ModelConfig& m, int64_t w) {
        const int64_t need =
            static_cast<int64_t>(static_cast<double>((max_prompt + 48) * w) * headroom) +
            FuzzMambaStateBytes(m) * 4 + StaticMambaReservationBytes(m, s.max_num_seqs);
        return need * sum / w;
      };
      pool = std::max({pool, need_for(model, wt), need_for(draft, wd)});
    }
    lcm = std::max({lcm, MakeJengaSpec(draft, 16, false).LcmPageBytes(),
                    MakeHomogeneousSpec(model, 16).LcmPageBytes(),
                    MakeHomogeneousSpec(draft, 16).LcmPageBytes()});
  } else {
    // The homogeneous Engine also subtracts the Mamba reservation, but Mamba stacks are
    // forced onto the Jenga allocator above, so no correction term is needed here.
    lcm = std::max(lcm, MakeHomogeneousSpec(model, 16).LcmPageBytes());
  }
  // Round up to large pages (worst case across the alloc specs the engine may build) and add
  // slack for per-group rounding.
  pool = (pool / lcm + 3) * lcm;
  s.pool_bytes = pool;

  if (offload) {
    s.swap_preemption = rng.Bernoulli(0.8);
    s.host_prefix_cache = rng.Bernoulli(0.5);
    // Sometimes a tiny host pool, so swap sets get LRU-evicted and the fallback
    // (recompute-after-swap) path runs.
    s.host_pool_bytes = rng.Bernoulli(0.3) ? (1 << 16) : (1ll << 28);
    // A free link makes the crossover always choose swap; a slow one mixes both modes.
    s.pcie_bandwidth = rng.Bernoulli(0.6) ? 1e15 : 3e9;
  }

  const int num_requests = static_cast<int>(rng.UniformInt(3, 8));
  const int num_families = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < num_requests; ++i) {
    FuzzRequestSpec r;
    r.family = static_cast<int>(rng.UniformInt(0, num_families - 1));
    r.prompt_len = rng.UniformInt(16, max_prompt);
    r.output_len = rng.UniformInt(2, 40);
    r.arrival = rng.Bernoulli(0.6) ? 0.0 : rng.UniformDouble(0.0, 0.2);
    if (s.model == FuzzModel::kVision) {
      r.images = static_cast<int>(rng.UniformInt(1, 3));
      r.prompt_len = std::max<int64_t>(r.prompt_len, r.images * 8 + 4);
    }
    s.requests.push_back(r);
  }
  if (rng.Bernoulli(0.25)) {
    // One request whose very first admission chunk cannot fit: must fail, not deadlock.
    // Widen the chunk so the admission check sees far more than the whole pool at once:
    // every model keeps at least one full-attention layer (>= 256 B/token), so an
    // 8192-token chunk costs >= 2 MiB against pools that top out well below that.
    s.max_batched_tokens = 8192;
    FuzzRequestSpec r;
    r.family = 99;
    r.prompt_len = 16384;
    r.output_len = 1;
    r.arrival = 0.0;
    r.oversized = true;
    s.requests.push_back(r);
  }
  return s;
}

// The spec-batch shape: SpecDecodeEngine with the Jenga strategy over a target whose two
// multi-slot groups sit next to the draft's, 4-10 long unshared prompts that all arrive at
// t=0, prefill-sized chunks, and a pool only a little larger than the longest request needs
// alone. The spec engine never caches, so nothing is ever evictable, and a prefill grow that
// passes the bound can still fail in the claim walk: the target's groups take fresh large
// pages the draft's group then lacks.
inline FuzzSchedule DrawSpecBatchSchedule(uint64_t seed) {
  Rng rng(seed);
  rng.NextU64();  // Decorrelate adjacent seeds.
  FuzzSchedule s;
  s.seed = seed;
  s.spec_engine = true;
  s.model = FuzzModel::kUnevenSliding;
  s.strategy = SpecStrategy::kJenga;
  s.max_num_seqs = static_cast<int>(rng.UniformInt(4, 8));
  const int64_t chunks[] = {128, 256, 512};
  s.max_batched_tokens = static_cast<int>(chunks[rng.UniformInt(0, 2)]);

  const ModelConfig model = MakeFuzzModel(s.model);
  const ModelConfig draft = TinyDraftModel();
  const KvSpec spec = MergeKvSpecs({{"target", MakeJengaSpec(model, 16, false)},
                                    {"draft", MakeJengaSpec(draft, 16, false)}});
  const int num_requests = static_cast<int>(rng.UniformInt(4, 10));
  int64_t longest = 0;
  for (int i = 0; i < num_requests; ++i) {
    FuzzRequestSpec r;
    r.family = i;  // Unshared prompts.
    r.prompt_len = rng.UniformInt(256, 1024);
    r.output_len = rng.UniformInt(2, 40);
    longest = std::max(longest, r.prompt_len + r.output_len);
    s.requests.push_back(r);
  }
  // Every request must finish alone: the longest one's KV in both models plus draft lookahead,
  // a little headroom, and a spare large page per group for partly filled ones.
  const int64_t per_token =
      model.KvBytesPerTokenAllLayers() + draft.KvBytesPerTokenAllLayers();
  const double headroom = rng.UniformDouble(1.05, 1.5);
  const int64_t lcm = spec.LcmPageBytes();
  const auto pool =
      static_cast<int64_t>(static_cast<double>((longest + 64) * per_token) * headroom);
  s.pool_bytes = (pool / lcm + 1 + static_cast<int64_t>(spec.groups.size())) * lcm;
  return s;
}

inline std::string DescribeFuzzSchedule(const FuzzSchedule& s) {
  std::ostringstream out;
  out << "seed=0x" << std::hex << s.seed << std::dec
      << " engine=" << (s.spec_engine ? "spec_decode" : "engine")
      << " model=" << FuzzModelName(s.model);
  if (s.spec_engine) {
    out << " strategy=" << SpecStrategyName(s.strategy);
  } else {
    out << " jenga=" << (s.jenga ? 1 : 0);
  }
  out << " pool_bytes=" << s.pool_bytes << " max_num_seqs=" << s.max_num_seqs
      << " max_batched_tokens=" << s.max_batched_tokens;
  if (s.offload) {
    out << " offload{swap=" << (s.swap_preemption ? 1 : 0)
        << " host_cache=" << (s.host_prefix_cache ? 1 : 0)
        << " host_bytes=" << s.host_pool_bytes << " pcie=" << s.pcie_bandwidth << "}";
  }
  if (!s.fault_plan.empty()) {
    out << " fault{plan=\"" << s.fault_plan.ToString() << "\" seed=0x" << std::hex
        << s.fault_seed << std::dec << "}";
  }
  if (s.shed_after_blocked_steps > 0) {
    out << " shed{after=" << s.shed_after_blocked_steps
        << " watermark=" << s.shed_occupancy_watermark << "}";
  }
  if (s.elastic.armed) {
    out << " elastic{";
    if (s.spec_engine) {
      out << "shift_from=" << s.elastic.shift_from << " at=" << s.elastic.shift_step
          << " back=" << s.elastic.shift_back_step;
    } else {
      out << "delta=" << s.elastic.delta_pages << " grow_at=" << s.elastic.grow_step
          << " shrink_at=" << s.elastic.shrink_step
          << " repartition_at=" << s.elastic.repartition_step;
      if (s.elastic.governor) {
        out << " governor{hi=" << s.elastic.high_watermark
            << " lo=" << s.elastic.low_watermark
            << " cooldown=" << s.elastic.cooldown_steps << "}";
      }
    }
    out << "}";
  }
  out << "\n";
  for (size_t i = 0; i < s.requests.size(); ++i) {
    const FuzzRequestSpec& r = s.requests[i];
    out << "  req[" << i << "] prompt=" << r.prompt_len << " output=" << r.output_len
        << " arrival=" << r.arrival << " family=" << r.family;
    if (r.images > 0) {
      out << " images=" << r.images;
    }
    if (r.deadline >= 0.0) {
      out << " deadline=" << r.deadline;
    }
    if (r.oversized) {
      out << " (oversized: must fail)";
    }
    out << "\n";
  }
  for (const FuzzCancelSpec& c : s.cancels) {
    out << "  cancel req[" << c.request_index << "] at step " << c.step << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------------------
// Engine harness: one interface over Engine and SpecDecodeEngine.

class FuzzHarness {
 public:
  virtual ~FuzzHarness() = default;
  virtual bool Step() = 0;
  virtual bool Cancel(RequestId id) = 0;
  [[nodiscard]] virtual const Request& Req(RequestId id) const = 0;
  [[nodiscard]] virtual const EngineMetrics& Metrics() const = 0;
  [[nodiscard]] virtual const SwapManager* Swap() const = 0;
  // The engine as its scheduler core, for counters owned outside EngineMetrics.
  [[nodiscard]] virtual const SchedulerCore& Core() const = 0;
  virtual void AttachAudit(AllocatorAuditor* auditor) = 0;
  virtual void Dump(std::ostream& os) const = 0;
  // Engine only: KvManager's own running hit total (cross-layer consistency check); -1 = n/a.
  [[nodiscard]] virtual int64_t KvCacheHitTokens() const { return -1; }
  // Chaos elastic events need the concrete engine (resize/repartition/shift are not part of
  // the shared interface); nullptr when the harness wraps the other kind.
  [[nodiscard]] virtual Engine* ElasticEngine() { return nullptr; }
  [[nodiscard]] virtual SpecDecodeEngine* ElasticSpecEngine() { return nullptr; }
};

class EngineFuzzHarness final : public FuzzHarness {
 public:
  explicit EngineFuzzHarness(const FuzzSchedule& s) {
    EngineConfig config;
    config.model = MakeFuzzModel(s.model);
    config.gpu = TestGpu();
    config.jenga = s.jenga;
    config.vision_cache = s.jenga;
    config.pool_bytes_override = s.pool_bytes;
    config.max_num_seqs_override = s.max_num_seqs;
    config.max_batched_tokens_override = s.max_batched_tokens;
    config.memory_sample_every = 4;
    if (s.offload) {
      config.offload.enabled = true;
      config.offload.swap_preemption = s.swap_preemption;
      config.offload.host_prefix_cache = s.host_prefix_cache;
      config.offload.host_pool_bytes = s.host_pool_bytes;
      config.offload.pcie.h2d_bandwidth = s.pcie_bandwidth;
      config.offload.pcie.d2h_bandwidth = s.pcie_bandwidth;
      config.offload.pcie.per_transfer_latency = 0.0;
    }
    config.fault.plan = s.fault_plan;
    config.fault.seed = s.fault_seed;
    config.shed_after_blocked_steps = s.shed_after_blocked_steps;
    config.shed_occupancy_watermark = s.shed_occupancy_watermark;
    engine_ = std::make_unique<Engine>(std::move(config));
    for (size_t i = 0; i < s.requests.size(); ++i) {
      Request request = MakeRequest(static_cast<RequestId>(i), BuildFuzzPrompt(s.requests[i]),
                                    s.requests[i].output_len, s.requests[i].arrival);
      request.deadline = s.requests[i].deadline;
      engine_->Submit(std::move(request));
    }
  }

  bool Step() override { return engine_->StepOnce(); }
  bool Cancel(RequestId id) override { return engine_->CancelRequest(id); }
  const Request& Req(RequestId id) const override { return engine_->request(id); }
  const EngineMetrics& Metrics() const override { return engine_->metrics(); }
  const SwapManager* Swap() const override { return engine_->swap(); }
  const SchedulerCore& Core() const override { return *engine_; }
  void AttachAudit(AllocatorAuditor* auditor) override {
    auditor->AttachAllocator(&engine_->kv().allocator_mutable());
    if (engine_->swap_mutable() != nullptr) {
      auditor->AttachSwapManager(engine_->swap_mutable());
    }
  }
  void Dump(std::ostream& os) const override { engine_->DumpStateForDebug(os); }
  int64_t KvCacheHitTokens() const override { return engine_->kv().total_cache_hit_tokens(); }
  Engine* ElasticEngine() override { return engine_.get(); }

 private:
  std::unique_ptr<Engine> engine_;
};

class SpecFuzzHarness final : public FuzzHarness {
 public:
  explicit SpecFuzzHarness(const FuzzSchedule& s) {
    SpecDecodeConfig config;
    config.target = MakeFuzzModel(s.model);
    config.draft = TinyDraftModel();
    config.gpu = TestGpu();
    config.gpu.max_batched_tokens = s.max_batched_tokens;
    config.strategy = s.strategy;
    config.pool_bytes_override = s.pool_bytes;
    config.max_num_seqs_override = s.max_num_seqs;
    config.seed = s.seed;
    if (s.offload) {
      config.offload.enabled = true;
      config.offload.swap_preemption = s.swap_preemption;
      config.offload.host_prefix_cache = s.host_prefix_cache;
      config.offload.host_pool_bytes = s.host_pool_bytes;
      config.offload.pcie.h2d_bandwidth = s.pcie_bandwidth;
      config.offload.pcie.d2h_bandwidth = s.pcie_bandwidth;
      config.offload.pcie.per_transfer_latency = 0.0;
    }
    config.fault.plan = s.fault_plan;
    config.fault.seed = s.fault_seed;
    config.shed_after_blocked_steps = s.shed_after_blocked_steps;
    config.shed_occupancy_watermark = s.shed_occupancy_watermark;
    engine_ = std::make_unique<SpecDecodeEngine>(std::move(config));
    for (size_t i = 0; i < s.requests.size(); ++i) {
      Request request = MakeRequest(static_cast<RequestId>(i), BuildFuzzPrompt(s.requests[i]),
                                    s.requests[i].output_len, s.requests[i].arrival);
      request.deadline = s.requests[i].deadline;
      engine_->Submit(std::move(request));
    }
  }

  bool Step() override { return engine_->StepOnce(); }
  bool Cancel(RequestId id) override { return engine_->CancelRequest(id); }
  const Request& Req(RequestId id) const override { return engine_->request(id); }
  const EngineMetrics& Metrics() const override { return engine_->metrics(); }
  const SwapManager* Swap() const override { return engine_->swap(); }
  const SchedulerCore& Core() const override { return *engine_; }
  void AttachAudit(AllocatorAuditor* auditor) override {
    for (int m = 0; m < engine_->num_managers(); ++m) {
      auditor->AttachAllocator(&engine_->manager_mutable(m).allocator_mutable());
    }
    if (engine_->swap_mutable() != nullptr) {
      auditor->AttachSwapManager(engine_->swap_mutable());
    }
  }
  void Dump(std::ostream& os) const override { engine_->DumpStateForDebug(os); }
  SpecDecodeEngine* ElasticSpecEngine() override { return engine_.get(); }

 private:
  std::unique_ptr<SpecDecodeEngine> engine_;
};

inline std::unique_ptr<FuzzHarness> MakeFuzzHarness(const FuzzSchedule& s) {
  if (s.spec_engine) {
    return std::make_unique<SpecFuzzHarness>(s);
  }
  return std::make_unique<EngineFuzzHarness>(s);
}

}  // namespace jenga

#endif  // JENGA_TESTS_FUZZ_FUZZ_HARNESS_H_

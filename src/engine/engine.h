// The serving-engine simulator: vLLM-style continuous batching with chunked prefill,
// admission control, preemption-by-recomputation, prefix caching, and (for multimodal models)
// vision-encoder scheduling. The engine is deterministic: logical ticks order LRU decisions
// and the GPU cost model advances simulated wall-clock time.

#ifndef JENGA_SRC_ENGINE_ENGINE_H_
#define JENGA_SRC_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/engine/gpu.h"
#include "src/engine/kv_manager.h"
#include "src/engine/request.h"
#include "src/engine/scheduler_core.h"
#include "src/model/model_config.h"

namespace jenga {

// Engine-only configuration; the fields both engines share live in SchedulerConfig.
struct EngineConfig : SchedulerConfig {
  ModelConfig model;
  bool enable_prefix_caching = true;
  // Admission fast path: memoize per-request prompt hash chains across re-admissions
  // (KvManager::Options::memoize_admission). Off = rebuild-from-scratch reference behavior,
  // which the memoized path must match bit for bit (differential tests).
  bool memoize_admission = true;
  // True → Jenga memory management; false → PagedAttention-style homogeneous baseline.
  bool jenga = true;
  // Vision-embedding cache (Jenga only). Engines without it re-run the vision encoder on
  // every chunked-prefill step that consumes image tokens (§7.4).
  bool vision_cache = true;
  // Fraction of the requested output an engine actually generates (TGI lacks --ignore-eos
  // and stops early, Fig. 15).
  double output_fraction = 1.0;
  // Scales the KV pool (engine profiles differ slightly in reserved memory).
  double memory_fraction = 1.0;
  // Test override (0 = use the GPU default).
  int max_batched_tokens_override = 0;
  // Record a memory sample every N steps (0 disables).
  int memory_sample_every = 1;
};

// Named engine profiles used in the Fig. 15 comparison.
[[nodiscard]] EngineConfig VllmProfile(ModelConfig model, GpuSpec gpu);
[[nodiscard]] EngineConfig SglangProfile(ModelConfig model, GpuSpec gpu);
[[nodiscard]] EngineConfig TgiProfile(ModelConfig model, GpuSpec gpu);
[[nodiscard]] EngineConfig JengaProfile(ModelConfig model, GpuSpec gpu);

// The single-model engine: one KvManager (Jenga or the homogeneous baseline) under the
// shared scheduler core. Its step policy is chunked prefill with vision encoding.
class Engine final : public SchedulerCore {
 public:
  explicit Engine(EngineConfig config);

  bool StepOnce() override;

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] KvManager& kv() { return *managers_[0]; }
  [[nodiscard]] const KvManager& kv() const { return *managers_[0]; }
  [[nodiscard]] int64_t weight_bytes() const { return config_.model.WeightBytes(); }
  [[nodiscard]] int64_t reserved_bytes() const { return reserved_bytes_; }

  // --- Elastic pool operations (MemoryGovernor entry points; see src/elastic) ---

  // Pool occupancy in [0, 1]: 1 − unallocated/pool (0 on an empty pool).
  [[nodiscard]] double PoolOccupancy() const { return PoolOccupancyOf(0); }
  [[nodiscard]] int32_t PoolPages() const { return kv().allocator().lcm().num_pages(); }
  // Audited grow: appends `pages` large pages to the pool. The pool_grow fault site is
  // consulted BEFORE any mutation, so a fire rolls the attempt back with zero net change.
  // Returns pages added (0 on rollback).
  int32_t GrowKvPool(int32_t pages);
  // Audited shrink: drains up to `pages` trailing large pages (cached content parks in the
  // offload tier) and removes them. Consults pool_shrink_drain before mutating.
  // Returns pages removed (0 on rollback or a pinned tail).
  int32_t ShrinkKvPool(int32_t pages);
  // LCM repartition for a model hot-swap: quiesce (preempt every running request via the
  // recompute path — swap-set fingerprints are tied to the old layout), build the new
  // layout's KvManager, consult repartition_commit, then either commit (install the new
  // manager, flush host-tier state, rebuild the GPU cost model for the new weights) or roll
  // back (the old layout stays live and the quiesced requests simply re-admit). No request
  // is aborted on either path. `new_pool_bytes` 0 derives the pool from the GPU spec and
  // the new model's weights. Returns true on commit.
  bool RepartitionKvPool(const ModelConfig& new_model, int64_t new_pool_bytes = 0);

 private:
  struct Scheduled {
    Request* request = nullptr;
    int64_t tokens = 0;
    bool was_prefill = false;
  };

  // Builds the KvManager for `model` the way the config asks (Jenga or homogeneous spec,
  // static Mamba reservation for the baseline). `pool_bytes` 0 derives the pool from the GPU
  // spec and the model's weights; `reserved_bytes` receives the resulting reservation.
  [[nodiscard]] std::unique_ptr<KvManager> BuildKvManager(const ModelConfig& model,
                                                          int64_t pool_bytes,
                                                          int64_t* reserved_bytes) const;
  [[nodiscard]] int64_t EffectiveOutputLen(const Request& r) const;
  [[nodiscard]] double MaybeEncodeVision(Request& r, int64_t chunk_begin, int64_t chunk_end);

  EngineConfig config_;
  GpuSim gpu_;
  int64_t reserved_bytes_ = 0;
  // Scratch for StepOnce's schedule (cleared each step; capacity reused).
  std::vector<Scheduled> scheduled_buf_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_ENGINE_H_

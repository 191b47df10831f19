// Speculative decoding (§6.1, Fig. 19): a draft model proposes `propose_len` tokens per macro
// step and the target model verifies them in one pass. Both models keep KV for every sequence
// token, so the memory manager must serve two different per-token sizes at once. Three
// strategies are compared:
//
//   kJenga      — one two-level allocator over the merged per-group spec of both models,
//   kVllmMax    — PagedAttention with a uniform page sized for the large model; draft KV
//                 wastes (target − draft) bytes per token,
//   kVllmManual — SmartSpec's static pool split, one homogeneous allocator per model:
//                 optimal for pure self-attention, blind to per-layer freeing.

#ifndef JENGA_SRC_ENGINE_SPEC_DECODE_H_
#define JENGA_SRC_ENGINE_SPEC_DECODE_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/engine/gpu.h"
#include "src/engine/scheduler_core.h"
#include "src/model/model_config.h"

namespace jenga {

enum class SpecStrategy { kJenga, kVllmMax, kVllmManual };

[[nodiscard]] const char* SpecStrategyName(SpecStrategy strategy);

// Spec-decode-only configuration; the fields both engines share live in SchedulerConfig.
struct SpecDecodeConfig : SchedulerConfig {
  ModelConfig target;
  ModelConfig draft;
  SpecStrategy strategy = SpecStrategy::kJenga;
  int propose_len = 4;
  double acceptance_rate = 0.7;
  uint64_t seed = 1;
  // kVllmManual only: fraction of the (post-reservation) pool given to the draft model's
  // manager. Negative (default) uses the SmartSpec byte-proportional split; the adaptive
  // governor (src/elastic) starts from whichever split is configured and rebalances at run
  // time via ShiftSplit.
  double manual_draft_fraction = -1.0;
};

// The speculative-decoding engine: the shared scheduler core over one merged manager
// (kJenga / kVllmMax) or a [target, draft] manager pair (kVllmManual). Its step policy is the
// draft/verify macro step.
class SpecDecodeEngine final : public SchedulerCore {
 public:
  explicit SpecDecodeEngine(SpecDecodeConfig config);

  bool StepOnce() override;

  [[nodiscard]] const SpecDecodeConfig& config() const { return config_; }

  // --- Elastic split operation (MemoryGovernor entry point; see src/elastic) ---

  // Moves roughly `bytes` of pool capacity from manager `from` to manager `to` by draining
  // trailing large pages from one homogeneous pool and appending them to the other (the
  // audited adaptive draft/target rebalance, kVllmManual only). Both fault sites
  // (pool_shrink_drain for the donor, pool_grow for the recipient) are consulted before any
  // mutation, so a fire rolls the whole transfer back with zero net change. Page sizes
  // differ between the pools; the recipient gains ⌊freed / its page size⌋ pages and the
  // sub-page remainder is re-grown back onto the donor rather than stranded. Returns the
  // bytes actually transferred (0 on rollback, a pinned donor tail, or a non-manual split).
  int64_t ShiftSplit(int from, int to, int64_t bytes);

 private:
  // A decode emission of the macro step: `tokens` accepted tokens of `request`.
  struct Emit {
    Request* request = nullptr;
    int64_t tokens = 0;
  };

  SpecDecodeConfig config_;
  GpuSim target_gpu_;
  GpuSim draft_gpu_;
  Rng rng_;
  // Scratch for StepOnce (cleared each step; capacity reused).
  std::vector<Request*> prefilled_buf_;
  std::vector<Emit> emits_buf_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_SPEC_DECODE_H_

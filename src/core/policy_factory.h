// Maps a KV group's kind to its layer policy (§5.3's customizations).

#ifndef JENGA_SRC_CORE_POLICY_FACTORY_H_
#define JENGA_SRC_CORE_POLICY_FACTORY_H_

#include <memory>
#include <vector>

#include "src/core/layer_policy.h"
#include "src/model/kv_spec.h"

namespace jenga {

// Checkpoint spacing for Mamba-state prefix caching (§5.3).
inline constexpr int kMambaCheckpointInterval = 512;
// Attention-sink count for the PyramidKV policy's retained set.
inline constexpr int kPyramidNumSinks = 4;

// Creates the policy matching `spec.kind`. `tokens_per_image` is required for image groups
// (cross-attention KV and the vision-embedding cache) and ignored otherwise.
[[nodiscard]] std::unique_ptr<LayerPolicy> MakeLayerPolicy(const KvGroupSpec& spec,
                                                           int tokens_per_image = 0);

// One policy per group of a spec, in group order.
using LayerPolicies = std::vector<std::unique_ptr<LayerPolicy>>;

// Jenga's policy set: MakeLayerPolicy for every group of `spec`.
[[nodiscard]] LayerPolicies MakeLayerPolicies(const KvSpec& spec, int tokens_per_image = 0);

// The PagedAttention baselines' policy set (vLLM v0.6.3): full-prefix rules for every group,
// so nothing is dropped mid-request.
[[nodiscard]] LayerPolicies MakeFullPrefixPolicies(const KvSpec& spec);

}  // namespace jenga

#endif  // JENGA_SRC_CORE_POLICY_FACTORY_H_

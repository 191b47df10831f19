#include "src/core/policy_factory.h"

#include "src/common/check.h"

namespace jenga {

std::unique_ptr<LayerPolicy> MakeLayerPolicy(const KvGroupSpec& spec, int tokens_per_image) {
  switch (spec.kind) {
    case GroupKind::kFullAttention:
      return std::make_unique<FullPrefixPolicy>();
    case GroupKind::kSlidingWindow:
      return std::make_unique<SlidingWindowPolicy>(spec.sliding_window);
    case GroupKind::kMamba:
      return std::make_unique<MambaPolicy>(kMambaCheckpointInterval);
    case GroupKind::kSparsePyramid:
      return std::make_unique<PyramidPolicy>(spec.token_budget, kPyramidNumSinks);
    case GroupKind::kCrossAttention:
    case GroupKind::kVisionEmbed:
      JENGA_CHECK_GT(tokens_per_image, 0)
          << "image groups need tokens_per_image for whole-image eviction";
      return std::make_unique<ImageCachePolicy>(tokens_per_image);
  }
  JENGA_CHECK(false) << "unhandled group kind";
}

LayerPolicies MakeLayerPolicies(const KvSpec& spec, int tokens_per_image) {
  LayerPolicies policies;
  for (const KvGroupSpec& group : spec.groups) {
    policies.push_back(MakeLayerPolicy(group, tokens_per_image));
  }
  return policies;
}

LayerPolicies MakeFullPrefixPolicies(const KvSpec& spec) {
  LayerPolicies policies;
  for (size_t g = 0; g < spec.groups.size(); ++g) {
    policies.push_back(std::make_unique<FullPrefixPolicy>());
  }
  return policies;
}

}  // namespace jenga

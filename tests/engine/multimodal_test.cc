// Multimodal-specific manager and engine behaviour: text-token scope for cross-attention
// models (§3.2's T·32 + I·8 ideal), cross-request vision reuse, and the Fig.-18 encoder
// scheduling modes.

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/engine/kv_manager.h"
#include "src/model/model_zoo.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

constexpr int kBs = 16;

std::unique_ptr<KvManager> Manager(const ModelConfig& model, int64_t pool, bool jenga,
                                   bool caching) {
  KvManager::Options options;
  options.tokens_per_page = kBs;
  options.enable_prefix_caching = caching;
  options.tokens_per_image = model.vision.tokens_per_image;
  const KvSpec alloc = jenga ? MakeJengaSpec(model, kBs, model.vision.present)
                             : MakeHomogeneousSpec(model, kBs);
  const KvSpec accounting = MakeJengaSpec(model, kBs, jenga && model.vision.present);
  return std::make_unique<KvManager>(
      alloc, accounting, pool, options,
      jenga ? MakeLayerPolicies(alloc, options.tokens_per_image) : MakeFullPrefixPolicies(alloc));
}

void Compute(KvManager& kv, Request& r, int64_t n, Tick now) {
  ASSERT_TRUE(kv.AllocateForTokens(r, n, now));
  r.num_computed_tokens += n;
  kv.OnStepComputed(r, now);
}

TEST(MultimodalKv, SelfAttentionCoversTextTokensOnly) {
  // TinyVisionModel: 2 self-attention (text scope) + 2 cross-attention layers, 8 tok/image.
  const ModelConfig model = TinyVisionModel();
  auto kv = Manager(model, 1 << 22, /*jenga=*/true, /*caching=*/false);
  // 16 text + 4 images × 8 + 16 text = 64 tokens, of which 32 text.
  Request r = MakeRequest(1, MixedPrompt(16, 4, 8, 16), 4, 0.0);
  kv->OnAdmit(r, 1);
  Compute(*kv, r, 64, 1);
  int full = -1;
  for (int g = 0; g < static_cast<int>(kv->alloc_spec().groups.size()); ++g) {
    if (kv->alloc_spec().groups[g].kind == GroupKind::kFullAttention) {
      full = g;
    }
  }
  ASSERT_GE(full, 0);
  EXPECT_EQ(kv->alloc_spec().groups[static_cast<size_t>(full)].scope, GroupScope::kTextTokens);
  // 32 text tokens → 2 blocks, NOT 4: image tokens do not enter the decoder sequence.
  EXPECT_EQ(kv->allocator().group(full).GetStats().used_pages, 2);
}

TEST(MultimodalKv, MllamaNeededBytesMatchPaperIdeal) {
  // §3.2: ideal memory = T·32·E + I·8·E for 43 text + 6193 image tokens.
  const ModelConfig model = Llama32_11B_Vision();
  auto kv = Manager(model, 64LL << 30, true, /*caching=*/false);
  Prompt prompt;
  for (int i = 0; i < 43; ++i) {
    prompt.tokens.push_back(i);
    prompt.kinds.push_back(TokenKind::kText);
  }
  for (int i = 0; i < 6193; ++i) {
    prompt.tokens.push_back(100 + i);
    prompt.kinds.push_back(TokenKind::kImage);
  }
  Request r = MakeRequest(1, prompt, 2, 0.0);
  kv->OnAdmit(r, 1);
  Compute(*kv, r, r.prompt_len(), 1);
  const int64_t e = 4096;  // Per-layer per-token KV bytes.
  // All image embeddings consumed (prompt fully computed) → vision needed is 0.
  EXPECT_EQ(kv->NeededBytesFor(r), 43 * 32 * e + 6193 * 8 * e);
}

TEST(MultimodalKv, VisionEmbeddingsReusedAcrossRequests) {
  // Two requests with the same images: the second hits the cached cross-attention KV and
  // vision embeddings (block-aligned image runs).
  const ModelConfig model = TinyVisionModel();
  auto kv = Manager(model, 1 << 22, true, /*caching=*/true);
  // 16 text + 2 images × 8 + 16 text: image tokens occupy [16, 32) — block-aligned.
  Request a = MakeRequest(1, MixedPrompt(16, 2, 8, 16), 4, 0.0);
  kv->OnAdmit(a, 1);
  Compute(*kv, a, 48, 1);
  kv->Release(a);
  Request b = MakeRequest(2, MixedPrompt(16, 2, 8, 16), 4, 0.0);
  kv->OnAdmit(b, 3);
  // 48 tokens → boundary capped below the prompt: 32 tokens hit.
  EXPECT_EQ(b.cached_prefix_tokens, 32);
  ExpectConsistent(*kv);
}

TEST(MultimodalKv, HomogeneousBaselineChargesAllTokensAllLayers) {
  const ModelConfig model = TinyVisionModel();
  auto kv = Manager(model, 1 << 22, /*jenga=*/false, false);
  Request r = MakeRequest(1, MixedPrompt(16, 4, 8, 16), 4, 0.0);
  kv->OnAdmit(r, 1);
  Compute(*kv, r, 64, 1);
  // (T+I) tokens × all 4 layers: 64 tokens → 4 blocks of the degenerate group.
  EXPECT_EQ(kv->allocator().group(0).GetStats().used_pages, 4);
  const auto stats = kv->GetMemoryStats();
  // Needed (true architecture): text 32×2 layers + image 32×2 layers, at 256 B each.
  EXPECT_EQ(stats.needed_bytes, 32LL * 2 * 256 + 32LL * 2 * 256);
  EXPECT_GT(stats.wasted_bytes, 0);
}

TEST(MultimodalEngine, EncoderOncePerAdmissionEvenAcrossChunks) {
  EngineConfig config;
  config.model = TinyVisionModel();
  config.gpu = TestGpu();
  config.jenga = true;
  config.vision_cache = true;
  config.pool_bytes_override = 1 << 24;
  config.max_batched_tokens_override = 8;  // Many chunks per request.
  Engine engine(std::move(config));
  engine.Submit(MakeRequest(0, MixedPrompt(16, 4, 8, 16), 4, 0.0));
  engine.Submit(MakeRequest(1, MixedPrompt(16, 4, 8, 16), 4, 0.0));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().vision_encoder_runs, 2);  // Exactly one per request.
}

TEST(MultimodalEngine, TextOnlyRequestNeverEncodes) {
  EngineConfig config;
  config.model = TinyVisionModel();
  config.gpu = TestGpu();
  config.jenga = true;
  config.pool_bytes_override = 1 << 24;
  Engine engine(std::move(config));
  engine.Submit(MakeRequest(0, TextPrompt(64), 4, 0.0));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().vision_encoder_runs, 0);
}

}  // namespace
}  // namespace jenga

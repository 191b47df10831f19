// Small synthetic models and GPU specs for fast engine tests.

#ifndef JENGA_TESTS_ENGINE_TEST_MODELS_H_
#define JENGA_TESTS_ENGINE_TEST_MODELS_H_

#include <cstdint>

#include "src/engine/gpu.h"
#include "src/engine/request.h"
#include "src/engine/scheduler_core.h"
#include "src/model/model_config.h"

namespace jenga {

// 4 full-attention layers, 1 KV head × 64 dims → 256 B/token/layer, 1 KB/token total.
inline ModelConfig TinyFullModel() {
  ModelConfig model;
  model.name = "tiny-full";
  model.params_b = 0.1;
  model.hidden_size = 256;
  model.max_context_len = 65536;
  model.compute_layers = 4;
  for (int i = 0; i < 4; ++i) {
    LayerSpec layer;
    layer.kind = LayerKind::kFullAttention;
    layer.num_kv_heads = 1;
    layer.head_dim = 64;
    layer.dtype_bytes = 2;
    model.layers.push_back(layer);
  }
  return model;
}

// Half sliding-window (64 tokens), half full attention.
inline ModelConfig TinySlidingModel(int window = 64) {
  ModelConfig model = TinyFullModel();
  model.name = "tiny-sliding";
  for (size_t i = 0; i < model.layers.size(); i += 2) {
    model.layers[i].kind = LayerKind::kSlidingWindow;
    model.layers[i].sliding_window = window;
  }
  return model;
}

// Half full attention, half PyramidKV-style sparse layers (token budget 48).
inline ModelConfig TinyPyramidModel(int budget = 48) {
  ModelConfig model = TinyFullModel();
  model.name = "tiny-pyramid";
  for (size_t i = 1; i < model.layers.size(); i += 2) {
    model.layers[i].kind = LayerKind::kSparsePyramid;
    model.layers[i].token_budget = budget;
  }
  return model;
}

// 2 small full-attention layers (256 B/token total): a speculative-decoding draft model.
inline ModelConfig TinyDraftModel() {
  ModelConfig model;
  model.name = "tiny-draft";
  model.params_b = 0.02;
  model.hidden_size = 128;
  model.max_context_len = 65536;
  model.compute_layers = 2;
  for (int i = 0; i < 2; ++i) {
    LayerSpec layer;
    layer.kind = LayerKind::kFullAttention;
    layer.num_kv_heads = 1;
    layer.head_dim = 32;
    layer.dtype_bytes = 2;
    model.layers.push_back(layer);
  }
  return model;
}

// 1 full-attention layer + 3 Mamba layers (state 8 KB each).
inline ModelConfig TinyMambaModel() {
  ModelConfig model;
  model.name = "tiny-mamba";
  model.params_b = 0.1;
  model.hidden_size = 256;
  model.max_context_len = 65536;
  model.compute_layers = 4;
  LayerSpec attn;
  attn.kind = LayerKind::kFullAttention;
  attn.num_kv_heads = 1;
  attn.head_dim = 64;
  attn.dtype_bytes = 2;
  model.layers.push_back(attn);
  for (int i = 0; i < 3; ++i) {
    LayerSpec mamba;
    mamba.kind = LayerKind::kMamba;
    mamba.mamba_state_bytes = 8192;
    model.layers.push_back(mamba);
  }
  return model;
}

// 2 self-attention + 2 cross-attention layers, 8 tokens per image.
inline ModelConfig TinyVisionModel() {
  ModelConfig model;
  model.name = "tiny-vision";
  model.params_b = 0.1;
  model.hidden_size = 256;
  model.max_context_len = 65536;
  model.compute_layers = 4;
  for (int i = 0; i < 4; ++i) {
    LayerSpec layer;
    layer.kind = i < 2 ? LayerKind::kFullAttention : LayerKind::kCrossAttention;
    layer.num_kv_heads = 1;
    layer.head_dim = 64;
    layer.dtype_bytes = 2;
    model.layers.push_back(layer);
  }
  model.vision.present = true;
  model.vision.tokens_per_image = 8;
  model.vision.embed_bytes_per_token = 512;
  model.vision.encoder_params_b = 0.02;
  return model;
}

inline GpuSpec TestGpu() {
  GpuSpec gpu;
  gpu.name = "test-gpu";
  gpu.memory_bytes = 1LL << 30;
  gpu.flops = 1e13;
  gpu.mem_bandwidth = 1e11;
  gpu.max_batched_tokens = 512;
  gpu.max_num_seqs = 16;
  gpu.reserved_bytes = 0;
  return gpu;
}

inline Prompt TextPrompt(int64_t len, int32_t base = 100) {
  Prompt prompt;
  for (int64_t i = 0; i < len; ++i) {
    prompt.tokens.push_back(base + static_cast<int32_t>(i % 1000));
  }
  return prompt;
}

// `layout` example: "ttiiit" — t = text token, i = image token.
inline Prompt MixedPrompt(int64_t text_prefix, int num_images, int tokens_per_image,
                          int64_t text_suffix) {
  Prompt prompt;
  auto push = [&](TokenKind kind, int32_t id) {
    prompt.tokens.push_back(id);
    prompt.kinds.push_back(kind);
  };
  int32_t next = 1;
  for (int64_t i = 0; i < text_prefix; ++i) {
    push(TokenKind::kText, next++);
  }
  for (int img = 0; img < num_images; ++img) {
    for (int i = 0; i < tokens_per_image; ++i) {
      push(TokenKind::kImage, 10000 + next++);
    }
  }
  for (int64_t i = 0; i < text_suffix; ++i) {
    push(TokenKind::kText, next++);
  }
  prompt.num_images = num_images;
  return prompt;
}

// The host tier's counters, read from their owner: all zero when the tier is disabled.
inline SwapManager::Stats SwapStats(const SchedulerCore& engine) {
  return engine.swap() != nullptr ? engine.swap()->stats() : SwapManager::Stats{};
}

// Injector fires across all sites: 0 when no faults are configured.
inline int64_t FaultsInjected(const SchedulerCore& engine) {
  return engine.fault_injector() != nullptr ? engine.fault_injector()->total_fires() : 0;
}

}  // namespace jenga

#endif  // JENGA_TESTS_ENGINE_TEST_MODELS_H_

// §3.2: memory waste of PagedAttention on heterogeneous models — the 79.6 % (mllama on
// MMMU-pro), up-to-25 % (Gemma-2), and 56.25 % (Ministral) numbers, both in closed form (the
// paper's own arithmetic) and measured by replaying a request through the two managers.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/engine/kv_manager.h"
#include "src/model/model_zoo.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

// Measured waste: run one request of the given shape through the homogeneous manager and
// report wasted / (needed + wasted).
double MeasuredWaste(const ModelConfig& model, const Prompt& prompt) {
  const int bs = 16;
  KvManager::Options options;
  options.tokens_per_page = bs;
  options.enable_prefix_caching = false;
  const int64_t pool = 256LL * 1024 * 1024 * 1024;  // Large enough to never evict.
  const KvSpec spec = MakeHomogeneousSpec(model, bs);
  KvManager kv(spec, MakeJengaSpec(model, bs, false), pool, options,
               MakeFullPrefixPolicies(spec));
  Request r = MakeRequest(1, prompt, 2, 0.0);
  kv.OnAdmit(r, 1);
  const bool ok = kv.AllocateForTokens(r, r.prompt_len(), 1);
  if (!ok) {
    return -1.0;
  }
  r.num_computed_tokens = r.prompt_len();
  kv.OnStepComputed(r, 1);
  const KvManager::MemoryStats stats = kv.GetMemoryStats();
  return static_cast<double>(stats.wasted_bytes) /
         static_cast<double>(stats.used_bytes + stats.internal_frag_bytes);
}

Prompt MllamaPrompt() {
  // The MMMU-pro averages: 43 text + 6193 image tokens.
  Prompt prompt;
  for (int i = 0; i < 43; ++i) {
    prompt.tokens.push_back(i);
    prompt.kinds.push_back(TokenKind::kText);
  }
  for (int i = 0; i < 6193; ++i) {
    prompt.tokens.push_back(1000 + i);
    prompt.kinds.push_back(TokenKind::kImage);
  }
  prompt.num_images = 4;
  return prompt;
}

void Run() {
  PrintHeader("Sec 3.2: PagedAttention memory waste on heterogeneous models");
  PrintRow({{28, "Model / workload"},
            {18, "Paper (formula)"},
            {18, "Closed form"},
            {18, "Measured"}});
  PrintRule();

  // mllama: (T+I)·40·E allocated vs T·32·E + I·8·E needed.
  {
    const double t = 43.0;
    const double i = 6193.0;
    const double closed = 1.0 - (t * 32 + i * 8) / ((t + i) * 40);
    const double measured = MeasuredWaste(Llama32_11B_Vision(), MllamaPrompt());
    PrintRow({{28, "mllama 11B / MMMU-pro"},
              {18, "79.6%"},
              {18, Pct(closed)},
              {18, Pct(measured)}});
  }
  // Gemma-2: half the layers sliding (4096) at max context 8192.
  {
    const ModelConfig model = Gemma2_27B();
    const double closed = 0.5 * (1.0 - 4096.0 / model.max_context_len);
    Prompt prompt;
    for (int i = 0; i < model.max_context_len - 64; ++i) {
      prompt.tokens.push_back(i % 50000);
    }
    const double measured = MeasuredWaste(model, prompt);
    PrintRow({{28, "Gemma-2 27B / max context"},
              {18, "25%"},
              {18, Pct(closed)},
              {18, Pct(measured)}});
  }
  // Ministral: 27/36 layers sliding (32768) at max context 131072.
  {
    const ModelConfig model = Ministral8B();
    const double closed = (27.0 / 36.0) * (1.0 - 32768.0 / model.max_context_len);
    Prompt prompt;
    for (int i = 0; i < model.max_context_len - 64; ++i) {
      prompt.tokens.push_back(i % 50000);
    }
    const double measured = MeasuredWaste(model, prompt);
    PrintRow({{28, "Ministral 8B / max context"},
              {18, "56.25%"},
              {18, Pct(closed)},
              {18, Pct(measured)}});
  }
  std::printf(
      "\nMeasured values replay one request through the homogeneous (PagedAttention-style)\n"
      "manager and report wasted/(needed+wasted); small deltas vs the closed form come from\n"
      "block-granularity padding.\n");
}

}  // namespace
}  // namespace jenga

int main() {
  jenga::Run();
  return 0;
}

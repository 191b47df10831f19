// §4.4 ablation: choices of the compatible page size — GCD vs MAX vs LCM. Closed-form
// pathologies (GCD's kernel fallback, MAX's Jamba 1344-tokens-per-page requirement) plus the
// LCM scheme's *measured* internal fragmentation from running the real allocator on a
// ShareGPT-length workload (the paper's 1085-token average).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/page_scheme.h"
#include "src/common/random.h"
#include "src/core/jenga_allocator.h"
#include "src/engine/kv_manager.h"
#include "src/model/model_zoo.h"
#include "src/workload/datasets.h"

namespace jenga {
namespace {

void AnalyzeModel(const ModelConfig& model, int64_t avg_request_tokens) {
  const KvSpec spec = MakeJengaSpec(model, 16, /*vision_cache=*/true);
  std::printf("\n[%s, avg request %lld tokens]\n", model.name.c_str(),
              static_cast<long long>(avg_request_tokens));
  PrintRow({{8, "Scheme"},
            {18, "compatible page"},
            {14, "kernel eff"},
            {18, "worst tok/page"},
            {20, "internal frag"}});
  PrintRule();
  for (const PageSchemeAnalysis& a : AnalyzePageSchemes(spec, avg_request_tokens)) {
    PrintRow({{8, a.scheme},
              {18, FmtI(a.compatible_page_bytes) + " B"},
              {14, Fmt("%.2f", a.kernel_efficiency)},
              {18, a.worst_tokens_per_page > 0 ? FmtI(a.worst_tokens_per_page) : "-"},
              {20, Pct(a.internal_frag_fraction)}});
  }
}

// Measured LCM internal fragmentation: run a ShareGPT-length mix through the Jenga manager
// and report the empty-small-page fraction at peak occupancy. Under an abundant pool each
// request parks on its own large pages (empties idle but reclaimable); under a tight pool
// step 4 of §5.4 fills them with other requests' pages.
double MeasuredLcmFrag(const ModelConfig& model, int64_t pool_bytes) {
  const KvSpec spec = MakeJengaSpec(model, 16, true);
  KvManager::Options options;
  options.tokens_per_page = 16;
  options.enable_prefix_caching = false;
  options.jenga = true;
  options.tokens_per_image = std::max(model.vision.tokens_per_image, 1);
  KvManager kv(spec, spec, pool_bytes, options);

  ShareGptDataset dataset;
  Rng rng(0x44);
  std::vector<Request> live;
  double worst = 0.0;
  for (int i = 0; i < 64; ++i) {
    WorkloadItem item = dataset.Sample(rng);
    Request r = MakeRequest(i, std::move(item.prompt), item.output_len, 0.0);
    kv.OnAdmit(r, i);
    if (!kv.AllocateForTokens(r, r.prompt_len(), i)) {
      kv.Release(r);
      continue;
    }
    r.num_computed_tokens = r.prompt_len();
    kv.OnStepComputed(r, i);
    live.push_back(std::move(r));
    // Steady churn: occasionally retire the oldest request.
    if (live.size() > 12) {
      kv.Release(live.front());
      live.erase(live.begin());
    }
    const KvManager::MemoryStats stats = kv.GetMemoryStats();
    const int64_t allocated = stats.used_bytes + stats.internal_frag_bytes;
    if (allocated > 0) {
      worst = std::max(worst, static_cast<double>(stats.internal_frag_bytes) /
                                  static_cast<double>(allocated));
    }
  }
  return worst;
}

void Run() {
  PrintHeader("Sec 4.4: Compatible-page-size ablation — GCD vs MAX vs LCM");
  AnalyzeModel(Jamba52B_Fp8(), /*avg_request_tokens=*/1085);  // ShareGPT average (§4.4).
  AnalyzeModel(Llama32_11B_Vision(), 6236);                   // MMMU-pro average.
  AnalyzeModel(Ministral8B(), 92408);                         // arXiv-QA average (§7.2).

  std::printf("\n[measured LCM internal fragmentation under ShareGPT churn]\n");
  PrintRow({{24, "Model"}, {26, "abundant pool (worst)"}, {26, "tight pool (worst)"}});
  PrintRule();
  for (const ModelConfig& model :
       {Jamba52B_Fp8(), Llama32_11B_Vision(), Gemma2_27B()}) {
    const KvSpec spec = MakeJengaSpec(model, 16, true);
    PrintRow({{24, model.name},
              {26, Pct(MeasuredLcmFrag(model, 64LL << 30))},
              {26, Pct(MeasuredLcmFrag(model, spec.LcmPageBytes() * 14))}});
  }
  std::printf(
      "\nShape checks vs paper: GCD needs fallback kernels whenever group pages differ; MAX\n"
      "forces Jamba's self-attention to 1344 tokens per page (more than the 1085-token\n"
      "ShareGPT average request, i.e. >1 page of waste per request); LCM keeps native\n"
      "kernels and its measured internal fragmentation stays small thanks to request-aware\n"
      "allocation.\n");
}

}  // namespace
}  // namespace jenga

int main() {
  jenga::Run();
  return 0;
}

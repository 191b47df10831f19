// Perf-regression harness: measures allocator hot-path ops/sec (micro) and end-to-end
// engine steps/sec (macro, across heterogeneous zoo models), and emits a machine-readable
// JSON trajectory file. Run with --baseline <prior.json> to embed the prior run's numbers
// and per-metric speedups in the output — that file is committed as BENCH_perf.json so every
// change carries the perf history of the §5.4 allocation path. Every micro.* also runs at four
// times its length and reports length.<name>.pct_at_4n, which --gate holds at >= 85%.
//
// Flags:
//   --quick            smaller iteration counts (CI-friendly; ratios remain meaningful)
//   --out <path>       output JSON path (default: BENCH_perf.json in the working directory)
//   --baseline <path>  prior bench_perf JSON; its "current" section becomes our "baseline"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fleet_bench.h"
#include "bench/frontend_bench.h"
#include "src/common/random.h"
#include "src/core/evictor.h"
#include "src/core/jenga_allocator.h"
#include "src/engine/engine.h"
#include "src/engine/kv_manager.h"
#include "src/engine/spec_decode.h"
#include "src/metrics/step_profiler.h"
#include "src/model/kv_spec.h"
#include "src/model/model_zoo.h"
#include "src/offload/swap_manager.h"
#include "src/workload/datasets.h"

namespace jenga {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// Prevents the compiler from eliding a measured computation.
volatile int64_t g_sink = 0;

// Width of the key column of the tables: the longest micro.* key plus a gap, so no key runs
// into its value. The baseline comparison widens it to its own longest key.
constexpr int kKeyWidth = 42;

// Two heterogeneous groups whose page sizes share a 12 KiB large page, the shape every
// micro.* allocator case runs on.
KvSpec TwoGroupSpec() {
  KvSpec spec;
  KvGroupSpec a;
  a.name = "a";
  a.kind = GroupKind::kFullAttention;
  a.num_layers = 2;
  a.bytes_per_token_per_layer = 128;
  a.tokens_per_page = 16;
  a.page_bytes = 4096;
  KvGroupSpec b = a;
  b.name = "b";
  b.num_layers = 3;
  b.page_bytes = 6144;
  spec.groups = {a, b};
  return spec;
}

// --- Micro: allocator hot paths (§5.4) ---

double MicroAllocRelease(int64_t iters) {
  JengaAllocator alloc(TwoGroupSpec(), 64LL << 20);
  Tick now = 0;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    ++now;
    const auto page = alloc.group(0).Allocate(now % 8, now);
    alloc.group(0).Release(*page, false);
  }
  const auto end = Clock::now();
  return static_cast<double>(iters) / Seconds(begin, end);
}

double MicroAllocBurstFree(int64_t bursts) {
  constexpr int kBurst = 1024;
  JengaAllocator alloc(TwoGroupSpec(), 256LL << 20);
  std::vector<SmallPageId> pages;
  pages.reserve(kBurst);
  Tick now = 0;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < bursts; ++i) {
    ++now;
    for (int j = 0; j < kBurst; ++j) {
      pages.push_back(*alloc.group(0).Allocate(now % 4, now));
    }
    for (const SmallPageId p : pages) {
      alloc.group(0).Release(p, false);
    }
    pages.clear();
  }
  const auto end = Clock::now();
  return static_cast<double>(bursts * kBurst) / Seconds(begin, end);
}

// A finished request's release, the spec-batch shape: one request's 2k-page block table in a
// multi-slot group (three pages per large page), claimed in one AllocateN and released in one
// ReleaseN with its deferred last-access tick. Every large page but the last goes back to the
// LCM whole. Times the releases only and counts pages released per second.
double MicroFinishRelease(int64_t cycles) {
  constexpr int64_t kPages = 2048;
  JengaAllocator alloc(TwoGroupSpec(), 64LL << 20);
  SmallPageAllocator& group = alloc.group(0);
  std::vector<SmallPageId> table;
  Tick now = 0;
  Clock::duration released{};
  for (int64_t c = 0; c < cycles; ++c) {
    ++now;
    table.clear();
    if (!group.AllocateN(/*request=*/c % 8, kPages, now, &table)) {
      return 0.0;
    }
    const auto begin = Clock::now();
    group.ReleaseN(table, /*keep_cached=*/false, now, kPages);
    released += Clock::now() - begin;
  }
  return static_cast<double>(cycles * kPages) / std::chrono::duration<double>(released).count();
}

// Prefix-cache churn under a bounded pool: hash, release-to-cache, revive, rekey — the
// evictor-heavy path (Insert/Remove plus UpdateLastAccess/SetPrefixLength rekeys).
double MicroCacheChurn(int64_t iters) {
  JengaAllocator alloc(TwoGroupSpec(), 8LL << 20);
  Tick now = 0;
  BlockHash hash = 1;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    ++now;
    const auto page = alloc.group(0).Allocate(now % 8, now);
    alloc.group(0).SetContentHash(*page, hash);
    alloc.group(0).UpdateLastAccess(*page, now);
    alloc.group(0).SetPrefixLength(*page, static_cast<int64_t>(hash % 512) * 16);
    alloc.group(0).Release(*page, /*keep_cached=*/true);
    if (i % 4 == 3) {
      // Revive a recently cached block (prefix hit) and drop it again.
      if (const auto hit = alloc.group(0).LookupCached(hash - 1)) {
        alloc.group(0).AddRef(*hit);
        alloc.group(0).UpdateLastAccess(*hit, ++now);
        alloc.group(0).Release(*hit, /*keep_cached=*/true);
      }
    }
    ++hash;
  }
  const auto end = Clock::now();
  return static_cast<double>(iters) / Seconds(begin, end);
}

// Step-3 reclaims under equal-timestamp ties, the arxiv-evict shape: two one-slot groups
// (Gemma-2's groups share one page size, so a large page is one small page) fill the pool,
// and half of it stays cached. Each cycle caches a batch of held pages at one tick in
// shuffled large-id order, which appends one run of tied entries to the reclaim queue, then
// claims as many pages, each reclaiming the oldest cached large page. Counts claims per
// second.
double MicroReclaimTies(int64_t cycles) {
  constexpr int kLarges = 4096;
  constexpr int kBatch = 64;
  KvSpec spec = TwoGroupSpec();
  spec.groups[1].num_layers = spec.groups[0].num_layers;
  spec.groups[1].page_bytes = spec.groups[0].page_bytes;
  JengaAllocator alloc(spec, kLarges * spec.groups[0].page_bytes);
  std::vector<std::pair<int, SmallPageId>> held;
  held.reserve(kLarges);
  BlockHash hash = 1;
  Tick now = 0;
  const auto claim = [&](int group) {
    const SmallPageId page = *alloc.group(group).Allocate(1, now);
    alloc.group(group).SetContentHash(page, hash++);
    held.emplace_back(group, page);
  };
  const auto cache = [&](const std::pair<int, SmallPageId>& page) {
    alloc.group(page.first).Release(page.second, /*keep_cached=*/true);
  };
  for (int i = 0; i < kLarges; ++i) {
    claim(i % 2);
  }
  // A fixed shuffle: claims come back in queue order, so releasing a batch through it caches
  // the batch's large pages out of id order.
  Rng rng(0x7135);
  std::vector<size_t> shuffle(kBatch);
  for (size_t i = 0; i < shuffle.size(); ++i) {
    shuffle[i] = i;
  }
  for (size_t i = shuffle.size() - 1; i > 0; --i) {
    std::swap(shuffle[i], shuffle[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  for (int i = 0; i < kLarges / 2; ++i) {
    cache(held.back());
    held.pop_back();
  }
  const auto begin = Clock::now();
  for (int64_t c = 0; c < cycles; ++c) {
    ++now;
    const size_t base = held.size() - kBatch;
    for (const size_t at : shuffle) {
      cache(held[base + at]);
    }
    held.resize(base);
    for (int i = 0; i < kBatch; ++i) {
      claim(i % 2);
    }
  }
  const auto end = Clock::now();
  g_sink = g_sink + static_cast<int64_t>(alloc.reclaim_heap_entries());
  return static_cast<double>(cycles * kBatch) / Seconds(begin, end);
}

// Prompt with deterministic all-text tokens; `tag` separates prefix classes.
Prompt ChurnPrompt(int tag, int len) {
  Prompt prompt;
  prompt.tokens.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    prompt.tokens.push_back(tag * 100000 + i);
  }
  return prompt;
}

// Cache churn seen through the full manager with the host offload tier attached: admission
// (§5.2 hit scan), allocation, hash registration, release-to-cache, with evictions spilling
// to the host pool and later admissions promoting host-resident pages back (PromoteHostHits).
// Counts admission cycles per second.
double MicroCacheChurnOffload(int64_t cycles) {
  const KvSpec spec = TwoGroupSpec();
  KvManager::Options options;
  options.tokens_per_page = 16;
  KvManager kv(spec, spec, 8LL << 20, options, MakeLayerPolicies(spec));
  OffloadConfig offload;
  offload.enabled = true;
  offload.host_pool_bytes = 4LL << 20;
  SwapCostParams cost;
  cost.flops_per_token = 1e9;
  cost.gpu_flops = 1e15;
  cost.gpu_mem_bandwidth = 3e12;
  cost.chunk_tokens = 512;
  SwapManager swap(offload, cost);
  kv.AttachOffload(&swap, 0);

  constexpr int kPrompts = 8;   // Shared prefix classes cycling through a pool ~3 requests wide.
  constexpr int kLen = 512;
  std::vector<Prompt> prompts;
  prompts.reserve(kPrompts);
  for (int p = 0; p < kPrompts; ++p) {
    prompts.push_back(ChurnPrompt(p, kLen));
  }
  Tick now = 0;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < cycles; ++i) {
    Request r = MakeRequest(static_cast<RequestId>(i), prompts[static_cast<size_t>(i % kPrompts)],
                            /*output_len=*/1, 0.0);
    ++now;
    kv.OnAdmit(r, now);
    if (kv.AllocateForTokens(r, kLen - r.num_computed_tokens, now)) {
      r.num_computed_tokens = kLen;
      kv.OnStepComputed(r, now);
    }
    kv.Release(r, /*finished=*/true);
  }
  const auto end = Clock::now();
  return static_cast<double>(cycles) / Seconds(begin, end);
}

// The admission fast path itself: preempt → re-admit cycles of one long-prompt request.
// Memoized hash chains make each re-admission O(blocks) lookups instead of re-hashing the
// whole prompt per group. Counts re-admission cycles per second.
double MicroAdmissionReadmit(int64_t cycles) {
  const KvSpec spec = TwoGroupSpec();
  KvManager::Options options;
  options.tokens_per_page = 16;
  KvManager kv(spec, spec, 64LL << 20, options, MakeLayerPolicies(spec));
  constexpr int kLen = 4096;
  Request r = MakeRequest(/*id=*/7, ChurnPrompt(0, kLen), /*output_len=*/1, 0.0);
  Tick now = 0;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < cycles; ++i) {
    ++now;
    kv.OnAdmit(r, now);
    if (kv.AllocateForTokens(r, kLen - r.num_computed_tokens, now)) {
      r.num_computed_tokens = kLen;
      kv.OnStepComputed(r, now);
    }
    kv.Release(r, /*finished=*/false);  // Preemption: the request id stays live.
  }
  const auto end = Clock::now();
  kv.OnRequestRetired(7);
  return static_cast<double>(cycles) / Seconds(begin, end);
}

// Admissions of questions over a few shared long documents, each with its own suffix (the
// arXiv-QA shape). The shared-prefix table hands each prompt its document's chains, so an
// admission hashes only its suffix before the hit scan finds the document cached. Counts
// admissions per second.
double MicroAdmissionSharedPrefix(int64_t cycles) {
  const KvSpec spec = TwoGroupSpec();
  KvManager::Options options;
  options.tokens_per_page = 16;
  KvManager kv(spec, spec, 64LL << 20, options, MakeLayerPolicies(spec));
  constexpr int kDocs = 4;
  constexpr int kDocLen = 4096;
  constexpr int kSuffixLen = 24;
  std::vector<Prompt> docs;
  for (int d = 0; d < kDocs; ++d) {
    docs.push_back(ChurnPrompt(d, kDocLen));
  }
  Tick now = 0;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < cycles; ++i) {
    Prompt prompt = docs[static_cast<size_t>(i % kDocs)];
    for (int k = 0; k < kSuffixLen; ++k) {
      prompt.tokens.push_back(static_cast<int32_t>(1000000 + (i * kSuffixLen + k) % 1000000000));
    }
    const int64_t len = prompt.size();
    Request r = MakeRequest(static_cast<RequestId>(i), std::move(prompt), /*output_len=*/1, 0.0);
    ++now;
    kv.OnAdmit(r, now);
    if (kv.AllocateForTokens(r, len - r.num_computed_tokens, now)) {
      r.num_computed_tokens = len;
      kv.OnStepComputed(r, now);
    }
    kv.Release(r, /*finished=*/true);
  }
  const auto end = Clock::now();
  return static_cast<double>(cycles) / Seconds(begin, end);
}

// Serves requests with unshared `prompt_len`-token prompts on `kv` as the engine would: each
// is admitted, prefilled, run `decode_steps` decode steps and finished. `warmup` requests fill
// the pool with cached pages first, so every timed one runs at the steady state. Returns the
// timed requests per second, or 0 when the pool cannot hold one.
double ServeUnsharedPerSecond(KvManager& kv, int prompt_len, int decode_steps, int warmup,
                              int64_t ops) {
  Tick now = 0;
  const auto serve = [&](int64_t id) {
    Prompt prompt;
    prompt.tokens.reserve(static_cast<size_t>(prompt_len));
    for (int i = 0; i < prompt_len; ++i) {
      prompt.tokens.push_back(static_cast<int32_t>((id * prompt_len + i) % 2000000000));
    }
    Request r = MakeRequest(id, std::move(prompt), decode_steps + 1, 0.0);
    kv.OnAdmit(r, ++now);
    if (!kv.AllocateForTokens(r, prompt_len - r.num_computed_tokens, now)) {
      return false;
    }
    r.num_computed_tokens = prompt_len;
    kv.OnStepComputed(r, now);
    for (int k = 0; k < decode_steps; ++k) {
      r.AppendGenerated(static_cast<int32_t>(id + k));
      if (!kv.AllocateForTokens(r, 1, ++now)) {
        return false;
      }
      r.num_computed_tokens += 1;
      kv.OnStepComputed(r, now);
    }
    kv.Release(r, /*finished=*/true);
    return true;
  };
  int64_t id = 0;
  for (; id < warmup; ++id) {
    if (!serve(id)) {
      return 0.0;
    }
  }
  const auto begin = Clock::now();
  for (int64_t i = 0; i < ops; ++i) {
    if (!serve(id++)) {
      return 0.0;
    }
  }
  const auto end = Clock::now();
  return static_cast<double>(ops) / Seconds(begin, end);
}

// Prefix-cache upkeep where nothing is ever hit, the mmlu-decode shape: a Jamba-like manager
// (multi-slot attention group, one-slot Mamba group) over a pool full of cached pages. Each op
// admits an unshared 768-token prompt, commits it, decodes 32 tokens and finishes, so it hashes
// the prompt, registers its blocks, releases them to the cache and reclaims whole large pages
// for the next request; no claim reaches step 5. Counts requests per second.
double MicroCacheUpkeepMultislot(int64_t ops) {
  const ModelConfig model = Jamba52B_Fp8();
  const KvSpec spec = MakeJengaSpec(model, /*tokens_per_page=*/16, /*vision_cache=*/false);
  KvManager::Options options;
  options.tokens_per_page = 16;
  KvManager kv(spec, spec, spec.LcmPageBytes() * 40, options, MakeLayerPolicies(spec));
  // About three large pages per request: the 64 warm-up requests fill the pool.
  return ServeUnsharedPerSecond(kv, /*prompt_len=*/768, /*decode_steps=*/31, /*warmup=*/64, ops);
}

// The decode path of a long unshared prompt, the spec-batch shape: a Gemma-2-9B manager whose
// pool holds about three such requests. Each op admits a fresh 12,000-token prompt, prefills
// it, decodes 64 tokens and finishes, so every generated token is appended and hashed past a
// prompt it must not copy. Counts requests per second.
double MicroDecodeLongPrompt(int64_t ops) {
  const ModelConfig model = Gemma2_9B();
  const KvSpec spec = MakeJengaSpec(model, /*tokens_per_page=*/16, /*vision_cache=*/false);
  KvManager::Options options;
  options.tokens_per_page = 16;
  constexpr int kPromptLen = 12000;
  constexpr int kDecode = 64;
  KvManager kv(spec, spec, 3 * (kPromptLen + kDecode) * model.KvBytesPerTokenAllLayers(),
               options, MakeLayerPolicies(spec));
  return ServeUnsharedPerSecond(kv, kPromptLen, kDecode, /*warmup=*/4, ops);
}

// A grow that passes the bound and then fails in the claim walk, the spec-batch shape: the
// merged Gemma-2-27B + 2B Jenga spec with prefix caching off, where every group is multi-slot.
// Sixteen filler requests hold one page per group, so each group keeps a partly empty large
// page per filler, and eight large pages stay free. Each op admits a fresh request and asks
// for a 3,200-token prefill (200 pages per group). The bound admits it: each target group
// lacks only 8 pages beyond its 192 empties. The walk would fail: the first target group takes
// all 8 free large pages before reusing the fillers' empties, so the second runs short. The
// request is then finished. Counts failed grows per second, or 0 when a grow does not fail
// that way.
double MicroFailedGrow(int64_t ops) {
  const KvSpec spec = MergeKvSpecs({{"target", MakeJengaSpec(Gemma2_27B(), 16, false)},
                                    {"draft", MakeJengaSpec(Gemma2_2B(), 16, false)}});
  KvManager::Options options;
  options.tokens_per_page = 16;
  options.enable_prefix_caching = false;
  constexpr int kFillers = 16;
  constexpr int kFreeLarges = 8;
  constexpr int kPrefill = 3200;
  const int64_t pool_larges = kFillers * static_cast<int64_t>(spec.groups.size()) + kFreeLarges;
  KvManager kv(spec, spec, spec.LcmPageBytes() * pool_larges, options, MakeLayerPolicies(spec));
  Tick now = 0;
  std::vector<Request> fillers;
  for (int i = 0; i < kFillers; ++i) {
    fillers.push_back(MakeRequest(i, ChurnPrompt(i, 16), /*output_len=*/1, 0.0));
    kv.OnAdmit(fillers.back(), ++now);
    if (!kv.AllocateForTokens(fillers.back(), 16, now)) {
      return 0.0;
    }
  }
  if (kv.allocator().lcm().num_free() != kFreeLarges) {
    return 0.0;
  }
  const Prompt prompt = ChurnPrompt(kFillers, kPrefill);
  const int64_t settled_before = kv.settled_walks();
  const auto begin = Clock::now();
  for (int64_t i = 0; i < ops; ++i) {
    Request r = MakeRequest(kFillers + i, prompt, /*output_len=*/1, 0.0);
    kv.OnAdmit(r, ++now);
    if (kv.AllocateForTokens(r, kPrefill, now)) {
      return 0.0;
    }
    kv.Release(r, /*finished=*/true);
  }
  const auto end = Clock::now();
  if (kv.settled_walks() - settled_before != ops) {
    return 0.0;
  }
  return static_cast<double>(ops) / Seconds(begin, end);
}

// The eviction queue alone: steady-state rekeys with periodic pop/reinsert, over a resident
// set of 4096 pages (the §5.1 per-token bookkeeping).
double MicroEvictorChurn(int64_t iters) {
  constexpr int kPages = 4096;
  Evictor evictor;
  Tick now = 0;
  for (SmallPageId p = 0; p < kPages; ++p) {
    evictor.Insert(p, ++now, p % 257);
  }
  const auto begin = Clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    ++now;
    evictor.UpdateLastAccess(i % kPages, now);
    if (i % 16 == 15) {
      const auto victim = evictor.PopVictim();
      evictor.Insert(*victim, now, static_cast<int64_t>(i % 509));
    }
  }
  const auto end = Clock::now();
  g_sink = g_sink + static_cast<int64_t>(evictor.size());
  return static_cast<double>(iters) / Seconds(begin, end);
}

// Pure page-metadata reads (state/last_access), the per-token lookup tax.
double MicroMetaReads(int64_t reads) {
  JengaAllocator alloc(TwoGroupSpec(), 64LL << 20);
  constexpr int kPages = 4096;
  std::vector<SmallPageId> pages;
  pages.reserve(kPages);
  Tick now = 0;
  for (int i = 0; i < kPages; ++i) {
    pages.push_back(*alloc.group(0).Allocate(i % 8, ++now));
  }
  int64_t sum = 0;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < reads; ++i) {
    const SmallPageId page = pages[static_cast<size_t>(i % kPages)];
    sum += alloc.group(0).last_access(page);
    sum += static_cast<int64_t>(alloc.group(0).state(page));
  }
  const auto end = Clock::now();
  g_sink = g_sink + sum;
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, false);
  }
  return static_cast<double>(reads) / Seconds(begin, end);
}

// One elastic resize cycle = GrowKvPool + ShrinkKvPool on a live engine — the audited
// runtime-repartitioning hot path (DESIGN.md §11): fault-site consult, LCM pool resize,
// free-tail drain, resize-ledger booking, and recovery-metric sync per call.
double MicroElasticResizeCycle(int64_t cycles) {
  EngineConfig config = FleetPerfConfig(1, RoutePolicy::kRoundRobin).engine;
  Engine engine(std::move(config));
  constexpr int32_t kPages = 8;
  const auto begin = Clock::now();
  for (int64_t i = 0; i < cycles; ++i) {
    g_sink = g_sink + engine.GrowKvPool(kPages);
    g_sink = g_sink + engine.ShrinkKvPool(kPages);
  }
  const auto end = Clock::now();
  return static_cast<double>(cycles) / Seconds(begin, end);
}

// Deadline bookkeeping alone: one long decode keeps the engine busy while 4k not-yet-
// arrived requests sit parked in the waiting queue with deadlines staggered one step
// apart (~1 expiry per step, so the heap fast path stays on). The legacy ExpireDeadlines
// rescanned both scheduler queues on every step that had any deadline in flight —
// O(requests) per step even when nothing expired; the heap is O(1) on a quiet step and
// O(log n) per expiry. Counts engine steps per second over the decode run.
double MicroDeadlineSweep(int64_t steps) {
  constexpr int kParked = 4096;
  const auto build = [steps](double horizon) {
    EngineConfig config = JengaProfile(Gemma2_9B(), H100());
    config.memory_sample_every = 0;
    auto engine = std::make_unique<Engine>(std::move(config));
    engine->Submit(MakeRequest(0, ChurnPrompt(0, 64), /*output_len=*/steps, 0.0));
    for (int i = 0; i < kParked; ++i) {
      Request r = MakeRequest(1 + i, ChurnPrompt(1 + i, 16), /*output_len=*/4,
                              /*arrival_time=*/1e9);
      // Spacing horizon/steps puts ~1 expiry per step; requests past the horizon expire in
      // one batch when the engine finally jumps toward the parked arrivals.
      r.deadline = horizon > 0
                       ? horizon * static_cast<double>(i + 1) / static_cast<double>(steps)
                       : 1e8;
      engine->Submit(std::move(r));
    }
    return engine;
  };
  // Probe pass: learn the decode run's simulated duration so the timed pass can stagger
  // deadlines across it. Deadlines sit far in the future here, so none expire mid-run.
  double horizon;
  {
    const auto probe = build(/*horizon=*/-1.0);
    probe->StepOnce();  // Admits the decode; the parked arrivals stay queued behind it.
    for (int64_t guard = 0; probe->num_running() > 0 && guard < 4 * steps + 64; ++guard) {
      probe->StepOnce();
    }
    horizon = probe->now();
  }
  const auto engine = build(horizon);
  const auto begin = Clock::now();
  engine->RunToCompletion();
  const auto end = Clock::now();
  g_sink = g_sink + engine->metrics().deadline_expirations;
  return static_cast<double>(engine->metrics().total_steps()) / Seconds(begin, end);
}

// --- Macro: end-to-end engine steps/sec across heterogeneous zoo models ---

struct E2eSpec {
  std::string key;
  ModelConfig model;
  std::vector<Request> requests;
};

std::vector<E2eSpec> MakeE2eSpecs(bool quick) {
  std::vector<E2eSpec> specs;
  {
    // Sliding-window model on long documents: window drops + heavy eviction churn.
    E2eSpec s{"ministral-8b.arxiv", Ministral8B(), {}};
    Rng rng(0xBE9C1);
    ArxivQaDataset dataset(/*articles=*/6, 30000, 60000, /*seed=*/0xBE9C1,
                           /*output_lo=*/64, /*output_hi=*/128);
    const int count = quick ? 4 : 12;
    for (int i = 0; i < count; ++i) {
      WorkloadItem item = dataset.SampleForArticle(i % 6, rng);
      s.requests.push_back(MakeRequest(i, std::move(item.prompt), item.output_len, 0.0));
    }
    specs.push_back(std::move(s));
  }
  {
    // Standard short-prompt serving with prefix caching.
    E2eSpec s{"gemma-2-9b.mmlu", Gemma2_9B(), {}};
    Rng rng(0xBE9C2);
    MmluProDataset dataset;
    s.requests = GenerateBatch(dataset, quick ? 32 : 128, rng);
    specs.push_back(std::move(s));
  }
  {
    // Multimodal: vision-embedding group + per-modality hashing.
    E2eSpec s{"mllama-11b-vision.mmmu", Llama32_11B_Vision(), {}};
    Rng rng(0xBE9C3);
    MmmuProDataset dataset(s.model.vision.tokens_per_image);
    s.requests = GenerateBatch(dataset, quick ? 12 : 48, rng);
    specs.push_back(std::move(s));
  }
  {
    // Hybrid Mamba/attention: checkpoint snapshots exercise allocate/hash/release cycles.
    E2eSpec s{"jamba-52b-fp8.mmlu", Jamba52B_Fp8(), {}};
    Rng rng(0xBE9C4);
    MmluProDataset dataset;
    s.requests = GenerateBatch(dataset, quick ? 32 : 128, rng);
    specs.push_back(std::move(s));
  }
  return specs;
}

struct E2eResult {
  int64_t steps = 0;
  double seconds = 0.0;
  double steps_per_s = 0.0;
  double step_p50_us = 0.0;
  double step_p95_us = 0.0;
};

// Times every StepOnce of `engine` over `requests`; works for either engine.
template <typename E>
E2eResult TimeE2e(E& engine, const std::vector<Request>& requests) {
  std::vector<double> step_seconds;
  step_seconds.reserve(1 << 16);
  const auto begin = Clock::now();
  for (const Request& r : requests) {
    engine.Submit(r);
  }
  // Manual step loop (vs RunToCompletion) so each scheduler step gets a latency sample.
  auto last = Clock::now();
  for (int64_t guard = 0; guard < 2000000; ++guard) {
    if (!engine.StepOnce()) {
      break;
    }
    const auto stamp = Clock::now();
    step_seconds.push_back(Seconds(last, stamp));
    last = stamp;
  }
  const auto end = Clock::now();
  E2eResult result;
  result.steps = engine.metrics().total_steps();
  result.seconds = Seconds(begin, end);
  result.steps_per_s = static_cast<double>(result.steps) / result.seconds;
  if (!step_seconds.empty()) {
    std::sort(step_seconds.begin(), step_seconds.end());
    const auto pct = [&step_seconds](double q) {
      const size_t at = static_cast<size_t>(q * static_cast<double>(step_seconds.size() - 1));
      return step_seconds[at] * 1e6;
    };
    result.step_p50_us = pct(0.50);
    result.step_p95_us = pct(0.95);
  }
  return result;
}

E2eResult RunE2e(const E2eSpec& spec) {
  EngineConfig config = JengaProfile(spec.model, H100());
  config.memory_sample_every = 0;
  // A quick run lasts a few milliseconds, so a fresh engine's first-touch page faults would
  // weigh on it as much as its steps. Two untimed engines of the same config go first: the
  // dropped one moves glibc's dynamic mmap threshold past the engine's large blocks, so they
  // come from the heap from then on, and the warm one serves the same requests, touching the
  // heap pages the timed engine then reuses.
  { const Engine dropped(config); }
  {
    Engine warm(config);
    for (const Request& r : spec.requests) {
      warm.Submit(r);
    }
    warm.RunToCompletion();
  }
  Engine engine(std::move(config));
  return TimeE2e(engine, spec.requests);
}

// Speculative decoding end to end: the Fig. 19 kJenga pair (Gemma-2-27B target, Gemma-2-2B
// draft) on distinct long documents — one merged two-model pool under the draft/verify macro
// step. Kept out of MakeE2eSpecs: it has no profiled pass, so it emits no profiler.* keys.
const char* const kSpecE2eKey = "spec-jenga.gemma-2-27b.arxiv";

E2eResult RunSpecE2e(bool quick) {
  SpecDecodeConfig config;
  config.target = Gemma2_27B();
  config.draft = Gemma2_2B();
  config.gpu = H100();
  config.strategy = SpecStrategy::kJenga;
  config.seed = 0xF19;
  const int count = quick ? 24 : 48;
  ArxivQaDataset dataset(count, 20000, 22000, /*seed=*/0x19BB, /*output_lo=*/256,
                         /*output_hi=*/512);
  Rng rng(0x19AA);
  const std::vector<Request> requests = GenerateBatch(dataset, count, rng);
  SpecDecodeEngine engine(std::move(config));
  return TimeE2e(engine, requests);
}

// --- Profiled pass: per-phase step attribution (--profile / --profile-only) ---

// Runs a spec once more with the StepProfiler attached and emits per-phase share keys.
// Shares (percent of stepped wall time) rather than absolute ns: they are stable across
// machines, which is what the check.sh profile-smoke snapshot comparison needs.
void RunE2eProfiled(const E2eSpec& spec, std::map<std::string, double>& current) {
  EngineConfig config = JengaProfile(spec.model, H100());
  config.memory_sample_every = 0;
  Engine engine(std::move(config));
  StepProfiler profiler;
  engine.set_step_profiler(&profiler);
  for (const Request& r : spec.requests) {
    engine.Submit(r);
  }
  engine.RunToCompletion();

  const int64_t total_ns = profiler.total_ns();
  PrintRow({{kKeyWidth, "profiler." + spec.key},
            {10, FmtI(profiler.steps())},
            {12, Fmt("%.2fms", static_cast<double>(total_ns) * 1e-6)},
            {16, Fmt("%.1f ns/step",
                     profiler.steps() > 0
                         ? static_cast<double>(total_ns) / static_cast<double>(profiler.steps())
                         : 0.0)}});
  for (int p = 0; p < kNumStepPhases; ++p) {
    const auto phase = static_cast<StepPhase>(p);
    const double share_pct = profiler.PhaseShare(phase) * 100.0;
    current["profiler." + spec.key + "." + StepPhaseName(phase) + ".share_pct"] = share_pct;
    const StepProfiler::PhaseStats& stats = profiler.phase(phase);
    PrintRow({{kKeyWidth, std::string("  ") + StepPhaseName(phase)},
              {10, Fmt("%.1f%%", share_pct)},
              {12, Fmt("%.2fms", static_cast<double>(stats.ns) * 1e-6)},
              {16, FmtI(stats.calls) + " calls"}});
  }
}

// --- Minimal JSON plumbing (flat string→number maps; no external deps) ---

// Returns the body of the top-level `"name": { ... }` object, or the whole text when absent
// (so a hand-written flat baseline file also works).
std::string ExtractObject(const std::string& text, const std::string& name) {
  const std::string needle = "\"" + name + "\"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) {
    return text;
  }
  const size_t open = text.find('{', at);
  if (open == std::string::npos) {
    return text;
  }
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') {
      ++depth;
    } else if (text[i] == '}') {
      --depth;
      if (depth == 0) {
        return text.substr(open + 1, i - open - 1);
      }
    }
  }
  return text;
}

std::map<std::string, double> ParseFlatNumbers(const std::string& body) {
  std::map<std::string, double> values;
  size_t pos = 0;
  while ((pos = body.find('"', pos)) != std::string::npos) {
    const size_t end_quote = body.find('"', pos + 1);
    if (end_quote == std::string::npos) {
      break;
    }
    const std::string key = body.substr(pos + 1, end_quote - pos - 1);
    size_t cursor = end_quote + 1;
    while (cursor < body.size() && (body[cursor] == ':' || body[cursor] == ' ')) {
      ++cursor;
    }
    char* parsed_end = nullptr;
    const double value = std::strtod(body.c_str() + cursor, &parsed_end);
    if (parsed_end != body.c_str() + cursor) {
      values[key] = value;
      pos = static_cast<size_t>(parsed_end - body.c_str());
    } else {
      pos = cursor;
    }
  }
  return values;
}

bool WriteJson(const std::string& path, const std::string& mode,
               const std::map<std::string, double>& baseline,
               const std::map<std::string, double>& current) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  const auto emit_map = [&out](const char* name, const std::map<std::string, double>& map) {
    out << "  \"" << name << "\": {\n";
    size_t i = 0;
    for (const auto& [key, value] : map) {
      out << "    \"" << key << "\": " << value << (++i < map.size() ? ",\n" : "\n");
    }
    out << "  }";
  };
  out << "{\n  \"bench\": \"bench_perf\",\n  \"mode\": \"" << mode << "\",\n";
  if (!baseline.empty()) {
    emit_map("baseline", baseline);
    out << ",\n";
  }
  emit_map("current", current);
  if (!baseline.empty()) {
    std::map<std::string, double> speedup;
    for (const auto& [key, value] : current) {
      const auto it = baseline.find(key);
      if (it != baseline.end() && it->second > 0) {
        speedup[key] = value / it->second;
      }
    }
    out << ",\n";
    out.precision(3);
    emit_map("speedup", speedup);
    out.precision(1);
  }
  out << "\n}\n";
  std::ofstream file(path);
  file << out.str();
  if (!file) {
    std::fprintf(stderr, "\nerror: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

// Perf gate (check.sh): every micro.*, elastic.*, frontend.*, fleet.*, and e2e steps/s
// metric present in both runs must stay within `kGateTolerance` of the baseline. The micros
// and the elastic resize cycle are tight loops whose regressions are real, the frontend and
// e2e keys ride on min-over-runs committed floors (best-of-3 in check.sh absorbs load
// spikes), and the fleet hit rates are deterministic (seeded single-threaded router). E2e
// step latency percentiles (step_p50/p95_us) are reported but never gated: they are
// lower-is-better, so the floor rule would reject improvements.
constexpr double kGateTolerance = 0.90;

// profiler.* phase shares use a separate regression rule: a phase share may not blow up past
// `kProfileShareFactor`× its snapshot (with an absolute grace of kProfileShareGracePct to
// keep sub-percent phases from tripping on noise). Shares are ratios, so the 0.90 floor rule
// does not apply — a share that *shrinks* is an improvement in whatever grew instead.
constexpr double kProfileShareFactor = 3.0;
constexpr double kProfileShareGracePct = 2.0;

bool IsGatedKey(const std::string& key) {
  if (key.rfind("e2e.", 0) == 0) {
    constexpr const char* kSuffix = ".steps_per_s";
    return key.size() > std::strlen(kSuffix) &&
           key.compare(key.size() - std::strlen(kSuffix), std::string::npos, kSuffix) == 0;
  }
  return key.rfind("micro.", 0) == 0 || key.rfind("elastic.", 0) == 0 ||
         key.rfind("frontend.", 0) == 0 || key.rfind("fleet.", 0) == 0;
}

bool IsProfileKey(const std::string& key) { return key.rfind("profiler.", 0) == 0; }

// Length-scaling gate (DESIGN.md §12, "The §5.4 reclaim path is bounded by the pool, not by
// history"): every micro.* also runs at 4n, and its ops/s there must stay at or above
// `kLengthGateFloorPct` percent of its ops/s at n. A structure that grows with history shows
// up as per-op cost climbing with run length, which a fixed-length baseline comparison cannot
// see. Absolute, so it needs no baseline value.
constexpr double kLengthGateFloorPct = 85.0;

// "micro.cache_churn.ops_per_s" -> "length.cache_churn.pct_at_4n"; empty for non-micros.
std::string LengthKeyFor(const std::string& micro_key) {
  if (micro_key.rfind("micro.", 0) != 0) {
    return "";
  }
  const size_t name_begin = std::strlen("micro.");
  return "length." + micro_key.substr(name_begin, micro_key.find('.', name_begin) - name_begin) +
         ".pct_at_4n";
}

bool IsLengthKey(const std::string& key) { return key.rfind("length.", 0) == 0; }

// Key family = prefix up to the first '.' ("micro", "e2e", "profiler", ...).
std::string KeyFamily(const std::string& key) { return key.substr(0, key.find('.')); }

bool GatePasses(const std::map<std::string, double>& baseline,
                const std::map<std::string, double>& current) {
  bool ok = true;
  for (const auto& [key, base] : baseline) {
    const auto it = current.find(key);
    if (IsProfileKey(key)) {
      // Phase-share regression: only checked when this run produced profiler keys at all
      // (the plain perf-gate stage runs without --profile; profile-smoke covers these).
      if (it == current.end()) {
        continue;
      }
      const double limit = std::max(base * kProfileShareFactor, base + kProfileShareGracePct);
      if (it->second > limit) {
        std::printf("gate: FAIL %s share %.1f%% -> %.1f%% (> %.1f%% = max(%gx, +%gpp))\n",
                    key.c_str(), base, it->second, limit, kProfileShareFactor,
                    kProfileShareGracePct);
        ok = false;
      }
      continue;
    }
    if (!IsGatedKey(key) || base <= 0) {
      continue;
    }
    if (it == current.end()) {
      std::printf("gate: MISSING %s (present in baseline)\n", key.c_str());
      ok = false;
      continue;
    }
    const double ratio = it->second / base;
    if (ratio < kGateTolerance) {
      std::printf("gate: FAIL %s %.3g -> %.3g (%.2fx < %.2fx)\n", key.c_str(), base, it->second,
                  ratio, kGateTolerance);
      ok = false;
    }
  }
  for (const auto& [key, pct] : current) {
    if (IsLengthKey(key) && pct < kLengthGateFloorPct) {
      std::printf("gate: FAIL %s: ops/s at 4n is %.1f%% of ops/s at n (< %.0f%%)\n",
                  key.c_str(), pct, kLengthGateFloorPct);
      ok = false;
    }
  }
  // Stale-schema guard: a gated metric the bench now produces but the committed baseline
  // lacks means the baseline predates the metric — the gate would silently not cover it.
  // Fail loudly with the regeneration hint instead of passing vacuously.
  for (const auto& [key, value] : current) {
    (void)value;
    if ((IsGatedKey(key) || IsProfileKey(key)) && baseline.find(key) == baseline.end()) {
      std::printf("gate: STALE baseline schema — %s is not in the baseline; regenerate it "
                  "(bench_perf --profile --quick --out BENCH_perf_quick.json) and commit\n",
                  key.c_str());
      ok = false;
    }
  }
  // Family guard: a baseline missing a whole key family the bench currently emits (e.g. a
  // hand-pruned file, or one predating the e2e./profiler. families) used to pass silently
  // because the per-key stale check above only covers gated keys. Any emitted family must
  // have at least one baseline entry.
  for (const auto& [key, value] : current) {
    (void)value;
    const std::string family = KeyFamily(key);
    bool found = false;
    for (auto it = baseline.lower_bound(family); it != baseline.end(); ++it) {
      if (KeyFamily(it->first) != family) {
        break;
      }
      found = true;
      break;
    }
    if (!found) {
      std::printf("gate: FAIL baseline has no %s.* keys but the bench emits them; regenerate "
                  "the baseline (bench_perf --profile --quick --out BENCH_perf_quick.json)\n",
                  family.c_str());
      ok = false;
    }
  }
  std::printf("gate: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

// profile: 0 = off, 1 = profiled pass after the standard suite (--profile),
//          2 = profiled pass only (--profile-only; skips micros/frontend/fleet/e2e timing).
bool Run(bool quick, bool gate, int profile, const std::string& out_path,
         const std::string& baseline_path) {
  PrintHeader(std::string("bench_perf: allocator + engine hot-path trajectory (") +
              (quick ? "quick" : "full") + " mode)");
  std::map<std::string, double> current;

  if (profile == 2) {
    PrintRow({{kKeyWidth, "step profiler (exclusive time)"},
              {10, "steps"},
              {14, "ns/step"}});
    PrintRule();
    for (const E2eSpec& spec : MakeE2eSpecs(quick)) {
      RunE2eProfiled(spec, current);
    }
    std::map<std::string, double> baseline;
    if (!baseline_path.empty()) {
      std::ifstream file(baseline_path);
      if (file) {
        std::ostringstream text;
        text << file.rdbuf();
        baseline = ParseFlatNumbers(ExtractObject(text.str(), "current"));
      }
    }
    if (!WriteJson(out_path, quick ? "quick" : "full", baseline, current)) {
      return false;
    }
    if (gate) {
      if (baseline.empty()) {
        std::printf("gate: FAIL (no readable baseline at %s)\n", baseline_path.c_str());
        return false;
      }
      // Profile-only emits a single family; the full-suite family/stale guards would demand
      // micros we deliberately skipped, so gate just the profiler share rule here.
      bool ok = true;
      for (const auto& [key, share] : current) {
        const auto it = baseline.find(key);
        if (it == baseline.end()) {
          std::printf("gate: STALE baseline schema — %s is not in the baseline; regenerate "
                      "the snapshot (bench_perf --profile --quick) and commit\n",
                      key.c_str());
          ok = false;
          continue;
        }
        const double limit =
            std::max(it->second * kProfileShareFactor, it->second + kProfileShareGracePct);
        if (share > limit) {
          std::printf("gate: FAIL %s share %.1f%% -> %.1f%% (> %.1f%%)\n", key.c_str(),
                      it->second, share, limit);
          ok = false;
        }
      }
      std::printf("gate: %s\n", ok ? "PASS" : "FAIL");
      return ok;
    }
    return true;
  }

  PrintRow({{kKeyWidth, "micro benchmark"}, {16, "ops/sec"}, {12, "4n vs n"}});
  PrintRule();
  const int64_t scale = quick ? 1 : 8;
  const struct {
    const char* key;
    double (*run)(int64_t);
    int64_t n;
  } micros[] = {
      {"micro.alloc_release.ops_per_s", MicroAllocRelease, 125000 * scale},
      {"micro.alloc_burst_free.ops_per_s", MicroAllocBurstFree, 64 * scale},
      {"micro.finish_release.ops_per_s", MicroFinishRelease, 256 * scale},
      {"micro.cache_churn.ops_per_s", MicroCacheChurn, 125000 * scale},
      {"micro.reclaim_ties.ops_per_s", MicroReclaimTies, 2000 * scale},
      {"micro.cache_churn_offload.ops_per_s", MicroCacheChurnOffload, 1500 * scale},
      {"micro.admission_readmit.ops_per_s", MicroAdmissionReadmit, 1500 * scale},
      {"micro.admission_shared_prefix.ops_per_s", MicroAdmissionSharedPrefix, 1500 * scale},
      {"micro.cache_upkeep_multislot.ops_per_s", MicroCacheUpkeepMultislot, 400 * scale},
      {"micro.decode_long_prompt.ops_per_s", MicroDecodeLongPrompt, 64 * scale},
      {"micro.failed_grow.ops_per_s", MicroFailedGrow, 4000 * scale},
      {"micro.evictor_churn.ops_per_s", MicroEvictorChurn, 250000 * scale},
      {"micro.meta_reads.ops_per_s", MicroMetaReads, 1250000 * scale},
      {"micro.deadline_sweep.steps_per_s", MicroDeadlineSweep, 512 * scale},
      {"elastic.resize_cycle.ops_per_s", MicroElasticResizeCycle, 25000 * scale},
  };
  // ops/s is the best of several fresh runs of n ops: interference on a shared host only ever
  // slows a run down. The length figure compares equal work back to back: four fresh runs of
  // n ops, then one run of 4n ops. Host speed drifts over seconds, so it cancels within such
  // a pair and only the run length differs; the best of kLengthPairs pairs is reported.
  constexpr int kLengthPairs = 3;
  for (const auto& micro : micros) {
    const std::string length_key = LengthKeyFor(micro.key);
    const int pairs = length_key.empty() ? 1 : kLengthPairs;
    double ops_per_s = 0.0;
    double pct_at_4n = 0.0;
    for (int pair = 0; pair < pairs; ++pair) {
      double short_runs_s = 0.0;
      for (int run = 0; run < 4; ++run) {
        const double ops = micro.run(micro.n);
        ops_per_s = std::max(ops_per_s, ops);
        short_runs_s += static_cast<double>(micro.n) / ops;
      }
      if (!length_key.empty()) {
        const double long_run_s = static_cast<double>(4 * micro.n) / micro.run(4 * micro.n);
        pct_at_4n = std::max(pct_at_4n, 100.0 * short_runs_s / long_run_s);
      }
    }
    current[micro.key] = ops_per_s;
    std::string ratio_column;
    if (!length_key.empty()) {
      current[length_key] = pct_at_4n;
      ratio_column = Fmt("%.1f%%", pct_at_4n);
    }
    PrintRow({{kKeyWidth, micro.key}, {16, Fmt("%.3g", ops_per_s)}, {12, ratio_column}});
  }

  std::printf("\n");
  PrintRow({{kKeyWidth, "frontend (closed loop, think 200us)"}, {16, "req/sec"}});
  PrintRule();
  {
    // Best-of-3: threaded wall-clock numbers are noisy on a loaded box; the best run is the
    // least-disturbed one. The committed quick baseline uses min-over-runs floors, so the
    // gate tolerance still has real margin.
    const int per_producer = quick ? 16 : 32;
    double rps_1p = 0.0;
    double rps_4p = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      rps_1p = std::max(rps_1p, RunClosedLoop(1, per_producer).requests_per_s);
      rps_4p = std::max(rps_4p, RunClosedLoop(4, per_producer).requests_per_s);
    }
    current["frontend.admit_1p.req_per_s"] = rps_1p;
    current["frontend.admit_4p.req_per_s"] = rps_4p;
    current["frontend.scaling_4p_over_1p"] = rps_1p > 0 ? rps_4p / rps_1p : 0.0;
    PrintRow({{kKeyWidth, "frontend.admit_1p.req_per_s"}, {16, Fmt("%.3g", rps_1p)}});
    PrintRow({{kKeyWidth, "frontend.admit_4p.req_per_s"}, {16, Fmt("%.3g", rps_4p)}});
    PrintRow({{kKeyWidth, "frontend.scaling_4p_over_1p"},
              {16, Fmt("%.2fx", current["frontend.scaling_4p_over_1p"])}});
  }

  std::printf("\n");
  PrintRow({{kKeyWidth, "fleet (4 replicas, tiny model)"}, {16, "value"}});
  PrintRule();
  {
    const double route_ops = FleetRouteOpsPerSecond(quick ? 20000 : 100000);
    const int requests = quick ? 48 : 96;
    const double affinity_hit =
        FleetPerfHitRate(4, RoutePolicy::kPrefixAffinity, requests);
    const double rr_hit = FleetPerfHitRate(4, RoutePolicy::kRoundRobin, requests);
    // Hit rates ship as percents: the JSON writer emits one decimal place, and 34.9 keeps
    // gate resolution where 0.3 would not.
    current["fleet.route_4r.ops_per_s"] = route_ops;
    current["fleet.affinity_4r.hit_pct"] = affinity_hit * 100.0;
    current["fleet.rr_4r.hit_pct"] = rr_hit * 100.0;
    current["fleet.hit_ratio_4r"] = rr_hit > 0 ? affinity_hit / rr_hit : 0.0;
    PrintRow({{kKeyWidth, "fleet.route_4r.ops_per_s"}, {16, Fmt("%.3g", route_ops)}});
    PrintRow({{kKeyWidth, "fleet.affinity_4r.hit_pct"}, {16, Pct(affinity_hit)}});
    PrintRow({{kKeyWidth, "fleet.rr_4r.hit_pct"}, {16, Pct(rr_hit)}});
    PrintRow({{kKeyWidth, "fleet.hit_ratio_4r"}, {16, Fmt("%.2fx", current["fleet.hit_ratio_4r"])}});
  }

  std::printf("\n");
  PrintRow({{kKeyWidth, "end-to-end (Jenga profile, H100)"},
            {10, "steps"},
            {12, "wall"},
            {16, "steps/sec"}});
  PrintRule();
  const auto report_e2e = [&current](const std::string& key, const E2eResult& result) {
    current["e2e." + key + ".steps_per_s"] = result.steps_per_s;
    current["e2e." + key + ".step_p50_us"] = result.step_p50_us;
    current["e2e." + key + ".step_p95_us"] = result.step_p95_us;
    PrintRow({{kKeyWidth, key},
              {10, FmtI(result.steps)},
              {12, Fmt("%.2fs", result.seconds)},
              {16, Fmt("%.1f", result.steps_per_s)},
              {20, "p50/p95 " + Fmt("%.0f/", result.step_p50_us) +
                       Fmt("%.0fus", result.step_p95_us)}});
  };
  for (const E2eSpec& spec : MakeE2eSpecs(quick)) {
    report_e2e(spec.key, RunE2e(spec));
  }
  report_e2e(kSpecE2eKey, RunSpecE2e(quick));

  if (profile == 1) {
    std::printf("\n");
    PrintRow({{kKeyWidth, "step profiler (exclusive time)"},
              {10, "steps"},
              {14, "ns/step"}});
    PrintRule();
    for (const E2eSpec& spec : MakeE2eSpecs(quick)) {
      RunE2eProfiled(spec, current);
    }
  }

  std::map<std::string, double> baseline;
  if (!baseline_path.empty()) {
    std::ifstream file(baseline_path);
    if (file) {
      std::ostringstream text;
      text << file.rdbuf();
      baseline = ParseFlatNumbers(ExtractObject(text.str(), "current"));
      std::printf("\nbaseline: %s\n", baseline_path.c_str());
      int key_width = kKeyWidth;
      for (const auto& [key, value] : current) {
        key_width = std::max(key_width, static_cast<int>(key.size()) + 2);
      }
      PrintRow({{key_width, "metric"}, {16, "baseline"}, {16, "current"}, {10, "speedup"}});
      PrintRule();
      for (const auto& [key, value] : current) {
        const auto it = baseline.find(key);
        if (it != baseline.end() && it->second > 0) {
          PrintRow({{key_width, key},
                    {16, Fmt("%.3g", it->second)},
                    {16, Fmt("%.3g", value)},
                    {10, Fmt("%.2fx", value / it->second)}});
        }
      }
    } else {
      std::printf("\nwarning: baseline file %s not readable; emitting current only\n",
                  baseline_path.c_str());
    }
  }

  if (!WriteJson(out_path, quick ? "quick" : "full", baseline, current)) {
    return false;
  }
  if (gate) {
    if (baseline.empty()) {
      std::printf("gate: FAIL (no readable baseline at %s)\n", baseline_path.c_str());
      return false;
    }
    return GatePasses(baseline, current);
  }
  return true;
}

}  // namespace
}  // namespace jenga

int main(int argc, char** argv) {
  bool quick = false;
  bool gate = false;
  int profile = 0;
  std::string out_path = "BENCH_perf.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = 1;
    } else if (std::strcmp(argv[i], "--profile-only") == 0) {
      profile = 2;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--gate] [--profile|--profile-only] [--out path] "
                   "[--baseline path]\n",
                   argv[0]);
      return 2;
    }
  }
  return jenga::Run(quick, gate, profile, out_path, baseline_path) ? 0 : 1;
}

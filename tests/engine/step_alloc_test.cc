// The steady request step allocates nothing: once every request is decoding, a scheduler step
// reuses its schedule buffers, computes needed token ranges inline, reaches each request's KV
// state through its handle, and grows block tables geometrically. This binary replaces the
// global operator new to count heap allocations, so it must stay a test binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "tests/engine/test_models.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace jenga {
namespace {

constexpr int kRequests = 8;
constexpr int kPromptLen = 300;
constexpr int kOutputLen = 4000;
constexpr int kWarmupSteps = 60;
constexpr int kMeasuredSteps = 300;
// Amortized geometric growth (block tables, generated tokens, per-step metric series) may
// allocate now and then; a per-request-step cost would show as ~1 or more.
constexpr double kMaxAllocationsPerRequestStep = 0.05;

void SubmitBatch(SchedulerCore& core, RequestId first_id) {
  for (RequestId id = first_id; id < first_id + kRequests; ++id) {
    core.Submit(MakeRequest(id, TextPrompt(kPromptLen, static_cast<int32_t>(100 + 1000 * id)),
                            kOutputLen, 0.0));
  }
}

// Runs one batch to completion so the pool is warm, then steps an identical batch past its
// prefills and returns heap allocations per scheduled request-step over kMeasuredSteps steady
// decode steps (every running request is scheduled each step).
double AllocationsPerRequestStep(SchedulerCore& core) {
  SubmitBatch(core, 0);
  core.RunToCompletion();
  SubmitBatch(core, kRequests);
  for (int i = 0; i < kWarmupSteps; ++i) {
    EXPECT_TRUE(core.StepOnce());
  }
  EXPECT_EQ(core.num_running(), kRequests);
  EXPECT_EQ(core.num_waiting(), 0);
  int64_t request_steps = 0;
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasuredSteps; ++i) {
    request_steps += core.num_running();
    core.StepOnce();
  }
  const int64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(core.num_running(), kRequests) << "a request finished or was preempted mid-window";
  return static_cast<double>(allocations) / static_cast<double>(request_steps);
}

TEST(StepAllocations, EngineSteadyDecodeDoesNotAllocate) {
  EngineConfig config = JengaProfile(TinyMambaModel(), TestGpu());
  config.pool_bytes_override = 64LL << 20;
  ASSERT_TRUE(config.enable_prefix_caching);
  Engine engine(config);
  EXPECT_LT(AllocationsPerRequestStep(engine), kMaxAllocationsPerRequestStep);
}

double SpecDecodeAllocationsPerRequestStep(SpecStrategy strategy) {
  SpecDecodeConfig config;
  config.target = TinySlidingModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.strategy = strategy;
  config.pool_bytes_override = 64LL << 20;
  config.seed = 7;
  SpecDecodeEngine engine(config);
  return AllocationsPerRequestStep(engine);
}

TEST(StepAllocations, SpecDecodeSteadyDecodeDoesNotAllocate) {
  // kVllmManual runs a [target, draft] manager pair, so every request holds two KV handles.
  EXPECT_LT(SpecDecodeAllocationsPerRequestStep(SpecStrategy::kVllmManual),
            kMaxAllocationsPerRequestStep);
}

TEST(StepAllocations, JengaSpecDecodeSteadyDecodeDoesNotAllocate) {
  // One merged pool, whose groups hand large pages to each other as the target's sliding
  // window drops pages: a group's first hold of a large page allocates nothing.
  EXPECT_LT(SpecDecodeAllocationsPerRequestStep(SpecStrategy::kJenga),
            kMaxAllocationsPerRequestStep);
}

}  // namespace
}  // namespace jenga

// Deadline-heap coverage (DESIGN.md §12): ExpireDeadlines went from a per-step scan of both
// scheduler queues to a lazy min-heap (src/engine/deadline_heap.h). These tests pin the
// contracts that make the swap safe:
//
//   - heap order: earliest deadline surfaces first, ties all drain;
//   - lazy deletion: cancelling (or finishing) a heaped request leaves a stale entry that
//     must be discarded silently when it surfaces — never a double cancel;
//   - submit-once: deadlines are immutable, so preemption, re-admission, and swap-restore
//     need no heap updates and the single Submit-time entry still fires exactly once;
//   - multi-expiry steps cancel in queue order (waiting first, then running), exactly like
//     the pre-heap scan — release order feeds eviction tie-breaks pinned by the goldens.
//
// The whole binary runs with JENGA_CHECK_DEADLINES armed, so every ExpireDeadlines call
// also cross-checks the heap-derived expired set against the brute-force queue scan.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/engine/deadline_heap.h"
#include "src/engine/engine.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

// Must run before main: the enable flag latches on the first engine step.
const bool g_arm_deadline_audit = [] {
  setenv("JENGA_CHECK_DEADLINES", "1", /*overwrite=*/0);
  return true;
}();

// Undersized pool so the batch preempts (same shape as cancel_request_test).
EngineConfig PressureConfig() {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  EngineConfig config;
  config.model = model;
  config.gpu = TestGpu();
  config.jenga = true;
  config.pool_bytes_override = spec.LcmPageBytes() * 24;
  return config;
}

EngineConfig RoomyConfig() {
  EngineConfig config = PressureConfig();
  config.pool_bytes_override = 0;  // Full test-GPU pool: no preemption pressure.
  return config;
}

// --- DeadlineHeap unit ---

TEST(DeadlineHeapUnit, PopsInDeadlineOrder) {
  DeadlineHeap heap;
  heap.Push(3.0, 30);
  heap.Push(1.0, 10);
  heap.Push(2.0, 20);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_FALSE(heap.HasExpired(0.5));
  EXPECT_TRUE(heap.HasExpired(1.0));  // Inclusive: deadline == now expires.
  EXPECT_EQ(heap.PopTop().id, 10);
  EXPECT_EQ(heap.PopTop().id, 20);
  EXPECT_EQ(heap.PopTop().id, 30);
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.HasExpired(100.0));
}

TEST(DeadlineHeapUnit, TiedDeadlinesAllSurface) {
  DeadlineHeap heap;
  heap.Push(5.0, 1);
  heap.Push(5.0, 2);
  heap.Push(5.0, 3);
  std::vector<RequestId> popped;
  while (heap.HasExpired(5.0)) {
    popped.push_back(heap.PopTop().id);
  }
  // Tie order is unspecified (the engine re-collects multi-expiry sets in queue order),
  // but every tied entry must drain.
  EXPECT_EQ(popped.size(), 3u);
}

TEST(DeadlineHeapUnit, DuplicateEntriesForOneIdAreTolerated) {
  // The engine never pushes twice for one request, but the heap itself is duplicate-
  // tolerant by design (like the allocator's reclaim queue, which skips superseded entries).
  DeadlineHeap heap;
  heap.Push(1.0, 7);
  heap.Push(2.0, 7);
  EXPECT_EQ(heap.PopTop().id, 7);
  EXPECT_EQ(heap.PopTop().id, 7);
  EXPECT_TRUE(heap.empty());
}

// --- Engine integration ---

TEST(DeadlineExpiry, CancelWhileHeapedLeavesStaleEntry) {
  Engine engine(RoomyConfig());
  engine.Submit(MakeRequest(0, TextPrompt(48), 8, 0.0));
  Request doomed = MakeRequest(1, TextPrompt(48), 8, 0.0);
  doomed.deadline = 0.0;  // Would expire on the first step...
  engine.Submit(std::move(doomed));
  ASSERT_TRUE(engine.CancelRequest(1));  // ...but the client cancels first.
  engine.RunToCompletion();
  // The stale heap entry surfaced and was discarded: no expiry, exactly one cancel.
  EXPECT_EQ(engine.metrics().deadline_expirations, 0);
  EXPECT_EQ(engine.metrics().cancelled_requests, 1);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
  int records_for_doomed = 0;
  for (const RequestRecord& record : engine.metrics().finished()) {
    records_for_doomed += record.id == 1 ? 1 : 0;
  }
  EXPECT_EQ(records_for_doomed, 1) << "stale heap entry re-cancelled a finished request";
  ExpectConsistent(engine.kv());
}

TEST(DeadlineExpiry, FinishBeforeDeadlineNeverExpires) {
  Engine engine(RoomyConfig());
  Request r = MakeRequest(0, TextPrompt(48), 4, 0.0);
  r.deadline = 1e6;  // Far beyond completion; the heap entry outlives the request.
  engine.Submit(std::move(r));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().deadline_expirations, 0);
  EXPECT_EQ(engine.metrics().cancelled_requests, 0);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
}

TEST(DeadlineExpiry, MultiExpirySameStepCancelsInQueueOrder) {
  Engine engine(RoomyConfig());
  engine.Submit(MakeRequest(0, TextPrompt(48), 8, 0.0));
  for (RequestId id = 1; id <= 3; ++id) {
    Request doomed = MakeRequest(id, TextPrompt(48), 8, 0.0);
    doomed.deadline = 0.0;  // All three expire on the same (first) step.
    engine.Submit(std::move(doomed));
  }
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().deadline_expirations, 3);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
  // The multi-expiry fallback re-collects in queue order, so the cancel records land in
  // submission order — the same order the pre-heap queue scan produced.
  const auto& finished = engine.metrics().finished();
  ASSERT_GE(finished.size(), 3u);
  EXPECT_EQ(finished[0].id, 1);
  EXPECT_EQ(finished[1].id, 2);
  EXPECT_EQ(finished[2].id, 3);
  EXPECT_TRUE(finished[0].cancelled);
  ExpectConsistent(engine.kv());
}

// Preempt → re-admit must not need a heap update: the Submit-time entry still fires, once,
// at the original deadline. The probe run (no deadline) finds a request that gets preempted
// and re-admitted plus its finish time; the timed run gives that request a deadline between
// re-admission and finish. Both runs are deterministic and identical up to the expiry.
TEST(DeadlineExpiry, FiresAfterPreemptAndReadmit) {
  constexpr int kBatch = 4;
  const auto submit_batch = [](Engine& engine, RequestId doomed, double deadline) {
    for (RequestId id = 0; id < kBatch; ++id) {
      Request r = MakeRequest(id, TextPrompt(96), 80, 0.0);
      if (id == doomed) {
        r.deadline = deadline;
      }
      engine.Submit(std::move(r));
    }
  };

  RequestId doomed = kNoRequest;
  double readmitted_at = -1.0;
  double finished_at = -1.0;
  {
    Engine probe(PressureConfig());
    submit_batch(probe, /*doomed=*/kNoRequest, -1.0);
    std::vector<double> readmit_time(kBatch, -1.0);
    std::vector<double> finish_time(kBatch, -1.0);
    while (probe.StepOnce()) {
      for (RequestId id = 0; id < kBatch; ++id) {
        const Request& r = probe.request(id);
        if (r.preemptions > 0 && r.state == RequestState::kRunning &&
            readmit_time[static_cast<size_t>(id)] < 0.0) {
          readmit_time[static_cast<size_t>(id)] = probe.now();
        }
        if (r.state == RequestState::kFinished &&
            finish_time[static_cast<size_t>(id)] < 0.0) {
          finish_time[static_cast<size_t>(id)] = probe.now();
        }
      }
    }
    for (RequestId id = 0; id < kBatch; ++id) {
      const double readmit = readmit_time[static_cast<size_t>(id)];
      const double finish = finish_time[static_cast<size_t>(id)];
      if (readmit >= 0.0 && finish > readmit) {
        doomed = id;
        readmitted_at = readmit;
        finished_at = finish;
        break;
      }
    }
  }
  ASSERT_NE(doomed, kNoRequest)
      << "pressure schedule produced no preempt+readmit; PressureConfig drifted";

  Engine engine(PressureConfig());
  submit_batch(engine, doomed, (readmitted_at + finished_at) / 2.0);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().deadline_expirations, 1);
  EXPECT_EQ(engine.metrics().cancelled_requests, 1);
  EXPECT_EQ(engine.metrics().CompletedRequests(), kBatch - 1);
  bool found = false;
  for (const RequestRecord& record : engine.metrics().finished()) {
    if (record.id != doomed) {
      continue;
    }
    found = true;
    EXPECT_TRUE(record.cancelled);
    EXPECT_TRUE(record.failed);
    EXPECT_GE(record.preemptions, 1) << "expired before the preempt+readmit it should span";
  }
  EXPECT_TRUE(found);
  ExpectConsistent(engine.kv());
}

// Same contract across a swap-out + restore cycle: the offload tier swaps the victim's KV
// to host and restores it later; the heap entry is untouched throughout and still fires.
TEST(DeadlineExpiry, FiresAfterSwapRestore) {
  constexpr int kBatch = 4;
  const auto make_config = [] {
    EngineConfig config = PressureConfig();
    config.offload.enabled = true;
    config.offload.swap_preemption = true;
    config.offload.host_prefix_cache = false;
    config.offload.host_pool_bytes = 1ll << 30;
    config.offload.pcie.h2d_bandwidth = 1e15;
    config.offload.pcie.d2h_bandwidth = 1e15;
    config.offload.pcie.per_transfer_latency = 0.0;
    return config;
  };
  const auto submit_batch = [](Engine& engine, RequestId doomed, double deadline) {
    for (RequestId id = 0; id < kBatch; ++id) {
      Request r = MakeRequest(id, TextPrompt(96), 80, 0.0);
      if (id == doomed) {
        r.deadline = deadline;
      }
      engine.Submit(std::move(r));
    }
  };

  RequestId doomed = kNoRequest;
  double restored_at = -1.0;
  double finished_at = -1.0;
  {
    Engine probe(make_config());
    submit_batch(probe, kNoRequest, -1.0);
    std::vector<bool> was_swapped(kBatch, false);
    std::vector<double> restore_time(kBatch, -1.0);
    std::vector<double> finish_time(kBatch, -1.0);
    while (probe.StepOnce()) {
      for (RequestId id = 0; id < kBatch; ++id) {
        const Request& r = probe.request(id);
        const auto at = static_cast<size_t>(id);
        if (r.swapped_out) {
          was_swapped[at] = true;
        }
        if (was_swapped[at] && !r.swapped_out && r.state == RequestState::kRunning &&
            restore_time[at] < 0.0) {
          restore_time[at] = probe.now();
        }
        if (r.state == RequestState::kFinished && finish_time[at] < 0.0) {
          finish_time[at] = probe.now();
        }
      }
    }
    for (RequestId id = 0; id < kBatch; ++id) {
      const auto at = static_cast<size_t>(id);
      if (restore_time[at] >= 0.0 && finish_time[at] > restore_time[at]) {
        doomed = id;
        restored_at = restore_time[at];
        finished_at = finish_time[at];
        break;
      }
    }
  }
  if (doomed == kNoRequest) {
    GTEST_SKIP() << "offload schedule produced no swap-restore before finish";
  }

  Engine engine(make_config());
  submit_batch(engine, doomed, (restored_at + finished_at) / 2.0);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().deadline_expirations, 1);
  EXPECT_EQ(engine.metrics().CompletedRequests(), kBatch - 1);
  ExpectConsistent(engine.kv());
}

// A parked far-future batch must cost nothing per step: the sweep shape from
// micro.deadline_sweep, shrunk. All parked deadlines sit beyond the decode run, so the
// fast path's HasExpired check is the only per-step deadline work; the parked requests
// then mass-expire when the engine jumps toward their arrival time.
TEST(DeadlineExpiry, ParkedBatchExpiresAfterDecodeDrains) {
  constexpr int kParked = 64;
  Engine engine(RoomyConfig());
  engine.Submit(MakeRequest(0, TextPrompt(48), 32, 0.0));
  for (int i = 0; i < kParked; ++i) {
    Request r = MakeRequest(1 + i, TextPrompt(16), 4, /*arrival_time=*/1e9);
    r.deadline = 1e6 + i;  // Far beyond the decode, far before the parked arrival.
    engine.Submit(std::move(r));
  }
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().deadline_expirations, kParked);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
  ExpectConsistent(engine.kv());
}

}  // namespace
}  // namespace jenga

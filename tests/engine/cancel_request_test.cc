// CancelRequest coverage: every request state (waiting, running, preempted, swapped out)
// × both engines × offload tier on/off, plus the interaction cases — cancel while retry
// backoff is pending, cancel after the shed gate already failed the request, and deadline
// expiry routing through the same path. The mid-restore regression (an aborted request must
// release its HostSwapSet, with the allocator/host-pool auditor staying green) lives here.

#include <gtest/gtest.h>

#include <string>

#include "src/audit/allocator_auditor.h"
#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "tests/audit/audit_test_util.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

FaultConfig ParsePlan(const std::string& text, uint64_t seed = 7) {
  FaultConfig config;
  JENGA_CHECK(FaultPlan::Parse(text, &config.plan).ok()) << text;
  config.seed = seed;
  return config;
}

EngineConfig PressureConfig(bool offload) {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, 16, false);
  EngineConfig config;
  config.model = model;
  config.gpu = TestGpu();
  config.jenga = true;
  config.pool_bytes_override = spec.LcmPageBytes() * 24;
  if (offload) {
    config.offload.enabled = true;
    config.offload.swap_preemption = true;
    config.offload.host_prefix_cache = false;
    config.offload.host_pool_bytes = 1ll << 30;
    config.offload.pcie.h2d_bandwidth = 1e15;
    config.offload.pcie.d2h_bandwidth = 1e15;
    config.offload.pcie.per_transfer_latency = 0.0;
  }
  return config;
}

void SubmitPressureBatch(Engine& engine) {
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96), 80, 0.0));
  }
}

SpecDecodeConfig SpecPressureConfig(bool offload) {
  SpecDecodeConfig config;
  config.target = TinyFullModel();
  config.draft = TinyDraftModel();
  config.gpu = TestGpu();
  config.strategy = SpecStrategy::kJenga;
  config.pool_bytes_override = 384 << 10;
  config.seed = 7;
  if (offload) {
    config.offload.enabled = true;
    config.offload.host_pool_bytes = 1ll << 30;
    config.offload.pcie.h2d_bandwidth = 1e15;
    config.offload.pcie.d2h_bandwidth = 1e15;
    config.offload.pcie.per_transfer_latency = 0.0;
  }
  return config;
}

void SubmitSpecBatch(SpecDecodeEngine& engine) {
  for (int i = 0; i < 4; ++i) {
    engine.Submit(MakeRequest(i, TextPrompt(96), 64, 0.0));
  }
}

// The cancelled request's finished record: failed, flagged cancelled.
void ExpectCancelledRecord(const EngineMetrics& metrics, RequestId id) {
  bool found = false;
  for (const RequestRecord& record : metrics.finished()) {
    if (record.id != id) {
      continue;
    }
    found = true;
    EXPECT_TRUE(record.failed) << "cancelled request not recorded as failed";
    EXPECT_TRUE(record.cancelled) << "cancelled request record missing the cancelled flag";
  }
  EXPECT_TRUE(found) << "no finished record for cancelled request " << id;
}

TEST(CancelRequest, UnknownOrFinishedReturnsFalse) {
  Engine engine(PressureConfig(/*offload=*/false));
  EXPECT_FALSE(engine.CancelRequest(42));
  engine.Submit(MakeRequest(0, TextPrompt(32), 4, 0.0));
  engine.RunToCompletion();
  EXPECT_FALSE(engine.CancelRequest(0)) << "finished request must not cancel again";
  EXPECT_EQ(engine.metrics().cancelled_requests, 0);
}

TEST(CancelRequest, WaitingRequestBothTiers) {
  for (const bool offload : {false, true}) {
    SCOPED_TRACE(offload ? "offload" : "gpu-only");
    Engine engine(PressureConfig(offload));
    SubmitPressureBatch(engine);
    EXPECT_TRUE(engine.CancelRequest(3));  // Never scheduled.
    EXPECT_FALSE(engine.CancelRequest(3));
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().cancelled_requests, 1);
    EXPECT_EQ(engine.metrics().CompletedRequests(), 3);
    ExpectCancelledRecord(engine.metrics(), 3);
    ExpectConsistent(engine.kv());
  }
}

TEST(CancelRequest, RunningRequestBothTiers) {
  for (const bool offload : {false, true}) {
    SCOPED_TRACE(offload ? "offload" : "gpu-only");
    Engine engine(PressureConfig(offload));
    SubmitPressureBatch(engine);
    // Step until something is mid-flight, then cancel a running request.
    RequestId victim = kNoRequest;
    for (int step = 0; step < 50 && victim == kNoRequest; ++step) {
      ASSERT_TRUE(engine.StepOnce());
      for (RequestId id = 0; id < 4; ++id) {
        if (engine.request(id).state == RequestState::kRunning) {
          victim = id;
          break;
        }
      }
    }
    ASSERT_NE(victim, kNoRequest);
    EXPECT_TRUE(engine.CancelRequest(victim));
    EXPECT_EQ(engine.request(victim).state, RequestState::kFinished);
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().CompletedRequests(), 3);
    ExpectCancelledRecord(engine.metrics(), victim);
    ExpectConsistent(engine.kv());
  }
}

TEST(CancelRequest, PreemptedRequestReclaims) {
  // GPU-only tier: preemption is always by-recompute, so the victim sits in waiting_ with
  // zero pages; cancel must still retire its allocator affinity state.
  Engine engine(PressureConfig(/*offload=*/false));
  SubmitPressureBatch(engine);
  RequestId victim = kNoRequest;
  for (int step = 0; step < 400 && victim == kNoRequest; ++step) {
    ASSERT_TRUE(engine.StepOnce());
    for (RequestId id = 0; id < 4; ++id) {
      if (engine.request(id).state == RequestState::kPreempted) {
        victim = id;
        break;
      }
    }
  }
  ASSERT_NE(victim, kNoRequest) << "pressure schedule produced no preemption";
  EXPECT_TRUE(engine.CancelRequest(victim));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests(), 3);
  ExpectCancelledRecord(engine.metrics(), victim);
  ExpectConsistent(engine.kv());
}

TEST(CancelRequest, SwappedOutRequestReleasesHostSwapSet) {
  // The mid-restore regression: abort a request while its KV sits in host memory, between
  // swap-out and restore. The HostSwapSet must be released immediately and the audited
  // shadow state (allocators + host pool) must stay green throughout.
  Engine engine(PressureConfig(/*offload=*/true));
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&engine.kv().allocator_mutable());
  auditor.AttachSwapManager(engine.swap_mutable());
  SubmitPressureBatch(engine);
  RequestId victim = kNoRequest;
  for (int step = 0; step < 400 && victim == kNoRequest; ++step) {
    ASSERT_TRUE(engine.StepOnce());
    ExpectConsistent(auditor);
    for (RequestId id = 0; id < 4; ++id) {
      if (engine.request(id).swapped_out) {
        victim = id;
        break;
      }
    }
  }
  ASSERT_NE(victim, kNoRequest) << "pressure schedule produced no swap-out";
  ASSERT_NE(engine.swap()->PeekSwapSet(victim), nullptr);
  const int64_t used_before = engine.swap()->host().used_bytes();
  EXPECT_TRUE(engine.CancelRequest(victim));
  EXPECT_EQ(engine.swap()->PeekSwapSet(victim), nullptr)
      << "cancel left the aborted request's swap set in host memory";
  EXPECT_LT(engine.swap()->host().used_bytes(), used_before);
  ExpectConsistent(auditor);
  engine.RunToCompletion();
  ExpectConsistent(auditor);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 3);
  ExpectCancelledRecord(engine.metrics(), victim);
  // Everything finished: the host pool holds no leftover swap sets.
  EXPECT_EQ(engine.swap()->host().num_sets(), 0);
  ExpectConsistent(engine.kv());
}

TEST(CancelRequest, DuringTransferBackoff) {
  // Injected D2H faults keep the retry/backoff machinery busy; cancelling mid-backoff must
  // not wedge the stall accounting or leak state.
  EngineConfig config = PressureConfig(/*offload=*/true);
  config.fault = ParsePlan("pcie_d2h:p=1.0");
  Engine engine(config);
  SubmitPressureBatch(engine);
  bool saw_backoff = false;
  for (int step = 0; step < 400 && !saw_backoff; ++step) {
    ASSERT_TRUE(engine.StepOnce());
    saw_backoff = SwapStats(engine).backoff_time > 0.0;
  }
  ASSERT_TRUE(saw_backoff) << "schedule never hit the injected-fault backoff path";
  RequestId victim = kNoRequest;
  for (RequestId id = 0; id < 4; ++id) {
    if (engine.request(id).state != RequestState::kFinished) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kNoRequest);
  EXPECT_TRUE(engine.CancelRequest(victim));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().CompletedRequests() + engine.metrics().FailedRequests(), 4);
  ExpectCancelledRecord(engine.metrics(), victim);
  ExpectConsistent(engine.kv());
}

TEST(CancelRequest, ShedGateFailsStarvingHeadAndCancelAfterShedIsFalse) {
  EngineConfig config = PressureConfig(/*offload=*/false);
  config.shed_after_blocked_steps = 1;
  config.shed_occupancy_watermark = 0.0;  // Shed on any head-of-line blocking.
  Engine engine(config);
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  ASSERT_GT(engine.metrics().shed_requests, 0);
  EXPECT_EQ(engine.metrics().cancelled_requests, engine.metrics().shed_requests);
  EXPECT_EQ(engine.metrics().CompletedRequests() + engine.metrics().FailedRequests(), 4);
  RequestId shed_id = kNoRequest;
  for (const RequestRecord& record : engine.metrics().finished()) {
    if (record.cancelled) {
      shed_id = record.id;
      EXPECT_TRUE(record.failed);
    }
  }
  ASSERT_NE(shed_id, kNoRequest);
  // Cancelling an already-shed request is a clean no-op.
  EXPECT_FALSE(engine.CancelRequest(shed_id));
  ExpectConsistent(engine.kv());
}

TEST(CancelRequest, ShedGateDisabledByDefault) {
  Engine engine(PressureConfig(/*offload=*/false));
  SubmitPressureBatch(engine);
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().shed_requests, 0);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 4);
}

TEST(CancelRequest, DeadlineExpiresThroughCancelPath) {
  Engine engine(PressureConfig(/*offload=*/false));
  engine.Submit(MakeRequest(0, TextPrompt(48), 8, 0.0));
  Request doomed = MakeRequest(1, TextPrompt(48), 8, 0.0);
  doomed.deadline = 0.0;  // Expires on the first step.
  engine.Submit(std::move(doomed));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().deadline_expirations, 1);
  EXPECT_EQ(engine.metrics().cancelled_requests, 1);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
  ExpectCancelledRecord(engine.metrics(), 1);
  ExpectConsistent(engine.kv());
}

// --- SpecDecodeEngine ---

TEST(SpecCancelRequest, WaitingAndRunningBothTiers) {
  for (const bool offload : {false, true}) {
    SCOPED_TRACE(offload ? "offload" : "gpu-only");
    SpecDecodeEngine engine(SpecPressureConfig(offload));
    SubmitSpecBatch(engine);
    EXPECT_TRUE(engine.CancelRequest(3));  // Still waiting.
    EXPECT_FALSE(engine.CancelRequest(3));
    RequestId victim = kNoRequest;
    for (int step = 0; step < 50 && victim == kNoRequest; ++step) {
      ASSERT_TRUE(engine.StepOnce());
      for (RequestId id = 0; id < 3; ++id) {
        if (engine.request(id).state == RequestState::kRunning) {
          victim = id;
          break;
        }
      }
    }
    ASSERT_NE(victim, kNoRequest);
    EXPECT_TRUE(engine.CancelRequest(victim));
    engine.RunToCompletion();
    EXPECT_EQ(engine.metrics().cancelled_requests, 2);
    EXPECT_EQ(engine.metrics().CompletedRequests(), 2);
    ExpectCancelledRecord(engine.metrics(), 3);
    ExpectCancelledRecord(engine.metrics(), victim);
    for (int m = 0; m < engine.num_managers(); ++m) {
      ExpectConsistent(engine.manager(m));
    }
  }
}

TEST(SpecCancelRequest, SwappedOutReleasesHostSwapSet) {
  SpecDecodeEngine engine(SpecPressureConfig(/*offload=*/true));
  AllocatorAuditor auditor;
  for (int m = 0; m < engine.num_managers(); ++m) {
    auditor.AttachAllocator(&engine.manager_mutable(m).allocator_mutable());
  }
  auditor.AttachSwapManager(engine.swap_mutable());
  SubmitSpecBatch(engine);
  RequestId victim = kNoRequest;
  for (int step = 0; step < 400 && victim == kNoRequest; ++step) {
    ASSERT_TRUE(engine.StepOnce());
    ExpectConsistent(auditor);
    for (RequestId id = 0; id < 4; ++id) {
      if (engine.request(id).swapped_out) {
        victim = id;
        break;
      }
    }
  }
  ASSERT_NE(victim, kNoRequest) << "spec pressure schedule produced no swap-out";
  ASSERT_NE(engine.swap()->PeekSwapSet(victim), nullptr);
  EXPECT_TRUE(engine.CancelRequest(victim));
  EXPECT_EQ(engine.swap()->PeekSwapSet(victim), nullptr);
  ExpectConsistent(auditor);
  engine.RunToCompletion();
  ExpectConsistent(auditor);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 3);
  ExpectCancelledRecord(engine.metrics(), victim);
  EXPECT_EQ(engine.swap()->host().num_sets(), 0);
}

TEST(SpecCancelRequest, ShedGateAndCancelAfterShed) {
  SpecDecodeConfig config = SpecPressureConfig(/*offload=*/false);
  config.shed_after_blocked_steps = 1;
  config.shed_occupancy_watermark = 0.0;
  SpecDecodeEngine engine(config);
  SubmitSpecBatch(engine);
  engine.RunToCompletion();
  ASSERT_GT(engine.metrics().shed_requests, 0);
  EXPECT_EQ(engine.metrics().CompletedRequests() + engine.metrics().FailedRequests(), 4);
  RequestId shed_id = kNoRequest;
  for (const RequestRecord& record : engine.metrics().finished()) {
    if (record.cancelled) {
      shed_id = record.id;
    }
  }
  ASSERT_NE(shed_id, kNoRequest);
  EXPECT_FALSE(engine.CancelRequest(shed_id));
}

TEST(SpecCancelRequest, DeadlineExpiresThroughCancelPath) {
  SpecDecodeEngine engine(SpecPressureConfig(/*offload=*/false));
  engine.Submit(MakeRequest(0, TextPrompt(48), 8, 0.0));
  Request doomed = MakeRequest(1, TextPrompt(48), 8, 0.0);
  doomed.deadline = 0.0;
  engine.Submit(std::move(doomed));
  engine.RunToCompletion();
  EXPECT_EQ(engine.metrics().deadline_expirations, 1);
  EXPECT_EQ(engine.metrics().cancelled_requests, 1);
  EXPECT_EQ(engine.metrics().CompletedRequests(), 1);
  ExpectCancelledRecord(engine.metrics(), 1);
}

}  // namespace
}  // namespace jenga

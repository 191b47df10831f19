// ServingFrontend semantics, mostly in the deterministic RunUntilIdle mode: submit→finish
// lifecycle and stream timestamps, cancel-while-queued (the annihilation path), engine-side
// cancel, deadline expiry, rejection after Shutdown, bounded TrySubmitAsync, and one
// Start()-based test racing real client threads against the live engine loop.

#include "src/engine/frontend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/engine/engine.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

EngineConfig SmallConfig() {
  EngineConfig config;
  config.model = TinyFullModel();
  config.gpu = TestGpu();
  config.jenga = true;
  return config;
}

TEST(FrontendTest, SubmitRunsToFinished) {
  ServingFrontend frontend(SmallConfig());
  const RequestId id = frontend.NextRequestId();
  StreamHandle stream = frontend.SubmitAsync(MakeRequest(id, TextPrompt(32), 12, 0.0));
  EXPECT_EQ(stream->phase.load(), StreamPhase::kQueued);
  frontend.RunUntilIdle();
  EXPECT_EQ(stream->phase.load(), StreamPhase::kFinished);
  EXPECT_EQ(stream->tokens.load(), 12);
  const auto c = frontend.counters();
  EXPECT_EQ(c.submitted, 1);
  EXPECT_EQ(c.admitted, 1);
  EXPECT_EQ(c.finished, 1);
}

TEST(FrontendTest, StreamTimestampsAreOrdered) {
  ServingFrontend frontend(SmallConfig());
  const RequestId id = frontend.NextRequestId();
  StreamHandle stream = frontend.SubmitAsync(MakeRequest(id, TextPrompt(32), 8, 0.0));
  frontend.RunUntilIdle();
  const double submit = stream->submit_wall.load();
  const double first = stream->first_token_wall.load();
  const double finish = stream->finish_wall.load();
  EXPECT_GE(submit, 0.0);
  EXPECT_GE(first, submit);
  EXPECT_GE(finish, first);
}

TEST(FrontendTest, CancelWhileQueuedNeverReachesEngine) {
  ServingFrontend frontend(SmallConfig());
  const RequestId id = frontend.NextRequestId();
  // The cancel is enqueued BEFORE the submit, so the engine thread drains it first and the
  // submit annihilates against the pending cancel.
  frontend.CancelAsync(id);
  StreamHandle stream = frontend.SubmitAsync(MakeRequest(id, TextPrompt(32), 8, 0.0));
  frontend.RunUntilIdle();
  EXPECT_EQ(stream->phase.load(), StreamPhase::kCancelled);
  EXPECT_EQ(stream->tokens.load(), 0);
  const auto c = frontend.counters();
  EXPECT_EQ(c.cancelled_queued, 1);
  EXPECT_EQ(c.admitted, 0);
  EXPECT_EQ(frontend.engine().metrics().finished().size(), 0u);
}

TEST(FrontendTest, CancelAfterAdmissionRoutesThroughEngine) {
  ServingFrontend frontend(SmallConfig());
  const RequestId id = frontend.NextRequestId();
  StreamHandle stream = frontend.SubmitAsync(MakeRequest(id, TextPrompt(64), 1000, 0.0));
  frontend.RunUntilIdle();  // Runs to completion unless cancelled... so cancel first:
  // (RunUntilIdle drains everything; to observe an engine-side cancel we enqueue both ops
  // before running — the submit drains first, is admitted, then the cancel hits live_.)
  EXPECT_EQ(stream->phase.load(), StreamPhase::kFinished);

  const RequestId id2 = frontend.NextRequestId();
  StreamHandle s2 = frontend.SubmitAsync(MakeRequest(id2, TextPrompt(64), 1000, 0.0));
  frontend.CancelAsync(id2);
  frontend.RunUntilIdle();
  EXPECT_EQ(s2->phase.load(), StreamPhase::kCancelled);
  const auto c = frontend.counters();
  EXPECT_EQ(c.admitted, 2);
  EXPECT_EQ(c.cancelled, 1);
  EXPECT_EQ(c.cancelled_queued, 0);
}

TEST(FrontendTest, CancelUnknownIdIsNoOpAfterDrain) {
  ServingFrontend frontend(SmallConfig());
  frontend.CancelAsync(777);  // No submit ever arrives; parks in pending_cancels_.
  const RequestId id = frontend.NextRequestId();
  StreamHandle stream = frontend.SubmitAsync(MakeRequest(id, TextPrompt(16), 4, 0.0));
  frontend.RunUntilIdle();
  EXPECT_EQ(stream->phase.load(), StreamPhase::kFinished);
  EXPECT_EQ(frontend.counters().cancelled_queued, 0);
}

TEST(FrontendTest, LateCancelForFinishedRequestIsNoOp) {
  ServingFrontend frontend(SmallConfig());
  const RequestId id = frontend.NextRequestId();
  StreamHandle stream = frontend.SubmitAsync(MakeRequest(id, TextPrompt(16), 4, 0.0));
  frontend.RunUntilIdle();
  EXPECT_EQ(stream->phase.load(), StreamPhase::kFinished);
  frontend.CancelAsync(id);  // Retired: must not poison pending_cancels_.
  const RequestId id2 = id;  // Same id resubmitted would be a caller bug; instead check that
  (void)id2;                 // a fresh request still completes and nothing was cancelled.
  const RequestId id3 = frontend.NextRequestId();
  StreamHandle s3 = frontend.SubmitAsync(MakeRequest(id3, TextPrompt(16), 4, 0.0));
  frontend.RunUntilIdle();
  EXPECT_EQ(s3->phase.load(), StreamPhase::kFinished);
  EXPECT_EQ(frontend.counters().cancelled, 0);
  EXPECT_EQ(frontend.counters().cancelled_queued, 0);
}

TEST(FrontendTest, DeadlineExpiryBecomesCancelled) {
  ServingFrontend frontend(SmallConfig());
  const RequestId id = frontend.NextRequestId();
  Request r = MakeRequest(id, TextPrompt(64), 100000, 0.0);
  r.deadline = 1e-9;  // Expires essentially immediately in sim time.
  StreamHandle stream = frontend.SubmitAsync(std::move(r));
  frontend.RunUntilIdle();
  EXPECT_EQ(stream->phase.load(), StreamPhase::kCancelled);
  EXPECT_EQ(frontend.counters().cancelled, 1);
}

TEST(FrontendTest, SubmitAfterShutdownIsRejected) {
  ServingFrontend frontend(SmallConfig());
  const RequestId id = frontend.NextRequestId();
  StreamHandle ok = frontend.SubmitAsync(MakeRequest(id, TextPrompt(16), 4, 0.0));
  frontend.Shutdown();  // Start() never called: drains inline, then closes.
  EXPECT_EQ(ok->phase.load(), StreamPhase::kFinished);
  const RequestId id2 = frontend.NextRequestId();
  StreamHandle late = frontend.SubmitAsync(MakeRequest(id2, TextPrompt(16), 4, 0.0));
  EXPECT_EQ(late->phase.load(), StreamPhase::kRejected);
  StreamHandle late_try;
  EXPECT_TRUE(frontend.TrySubmitAsync(MakeRequest(frontend.NextRequestId(), TextPrompt(16), 4, 0.0),
                                      &late_try));
  EXPECT_EQ(late_try->phase.load(), StreamPhase::kRejected);
  EXPECT_EQ(frontend.counters().rejected, 2);
}

TEST(FrontendTest, TrySubmitFailsWhenQueueFull) {
  ServingFrontend::Options options;
  options.queue_capacity = 2;
  ServingFrontend frontend(SmallConfig(), options);
  StreamHandle a;
  StreamHandle b;
  StreamHandle c;
  ASSERT_TRUE(frontend.TrySubmitAsync(MakeRequest(frontend.NextRequestId(), TextPrompt(16), 4, 0.0), &a));
  ASSERT_TRUE(frontend.TrySubmitAsync(MakeRequest(frontend.NextRequestId(), TextPrompt(16), 4, 0.0), &b));
  EXPECT_FALSE(frontend.TrySubmitAsync(MakeRequest(frontend.NextRequestId(), TextPrompt(16), 4, 0.0), &c));
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(frontend.counters().submitted, 2);
  frontend.RunUntilIdle();
  EXPECT_EQ(a->phase.load(), StreamPhase::kFinished);
  EXPECT_EQ(b->phase.load(), StreamPhase::kFinished);
}

TEST(FrontendTest, PerProducerSubmissionOrderReachesEngineInOrder) {
  ServingFrontend frontend(SmallConfig());
  std::vector<RequestId> ids;
  std::vector<StreamHandle> streams;
  for (int i = 0; i < 6; ++i) {
    const RequestId id = frontend.NextRequestId();
    ids.push_back(id);
    streams.push_back(frontend.SubmitAsync(MakeRequest(id, TextPrompt(16), 4, 0.0)));
  }
  frontend.RunUntilIdle();
  double prev = -1.0;
  for (const RequestId id : ids) {
    const Request& r = frontend.engine().request(id);
    EXPECT_EQ(r.state, RequestState::kFinished);
    EXPECT_GE(r.first_scheduled_time, prev);
    prev = r.first_scheduled_time;
  }
  for (const StreamHandle& s : streams) {
    EXPECT_EQ(s->phase.load(), StreamPhase::kFinished);
  }
}

TEST(FrontendTest, StartedLoopServesConcurrentClients) {
  ServingFrontend::Options options;
  options.queue_capacity = 8;
  ServingFrontend frontend(SmallConfig(), options);
  frontend.Start();
  constexpr int kClients = 4;
  constexpr int kPerClient = 5;
  std::atomic<int> finished{0};
  std::atomic<int> cancelled{0};
  RunClients(kClients, [&](int client) {
    for (int i = 0; i < kPerClient; ++i) {
      const RequestId id = frontend.NextRequestId();
      StreamHandle stream =
          frontend.SubmitAsync(MakeRequest(id, TextPrompt(16 + client * 8), 4 + i, 0.0));
      if (i % 3 == 2) {
        frontend.CancelAsync(id);  // Races the engine: queued, running, or finished.
      }
      while (!stream->Done()) {
        std::this_thread::yield();
      }
      const StreamPhase phase = stream->phase.load();
      if (phase == StreamPhase::kFinished) {
        finished.fetch_add(1);
      } else {
        ASSERT_EQ(phase, StreamPhase::kCancelled);
        cancelled.fetch_add(1);
      }
    }
  });
  frontend.Shutdown();
  const auto c = frontend.counters();
  EXPECT_EQ(c.submitted, kClients * kPerClient);
  EXPECT_EQ(finished.load() + cancelled.load(), kClients * kPerClient);
  EXPECT_EQ(c.finished, finished.load());
  EXPECT_EQ(c.cancelled + c.cancelled_queued, cancelled.load());
  EXPECT_EQ(c.admitted, c.finished + c.cancelled + c.failed);
}

TEST(FrontendTest, ShutdownDrainsAcceptedWork) {
  ServingFrontend frontend(SmallConfig());
  frontend.Start();
  std::vector<StreamHandle> streams;
  for (int i = 0; i < 8; ++i) {
    streams.push_back(
        frontend.SubmitAsync(MakeRequest(frontend.NextRequestId(), TextPrompt(24), 6, 0.0)));
  }
  frontend.Shutdown();  // Must run every accepted request to a terminal state.
  for (const StreamHandle& s : streams) {
    EXPECT_TRUE(s->Done());
    EXPECT_EQ(s->phase.load(), StreamPhase::kFinished);
  }
}

}  // namespace
}  // namespace jenga

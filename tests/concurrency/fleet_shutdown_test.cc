// Regression tests for submitting to a FleetFrontend after (or racing) Shutdown. The old
// behavior let a post-shutdown TrySubmitAsync race the drained replica queues: the push
// landed on a closed queue and surfaced as a backpressure rejection — indistinguishable
// from transient saturation, so callers retried forever. Both entry points now report the
// terminal state cleanly: SubmitAsync returns a kRejected stream, TrySubmitAsync returns
// Status::FailedPrecondition (kResourceExhausted stays reserved for genuine saturation).
//
// Also the cancel ledger of both fleet drivers: FleetCounters::cancelled counts a client
// cancel only when it takes effect, so a cancel that arrives after its request finished
// counts nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/cluster/fleet_frontend.h"
#include "src/cluster/fleet_router.h"
#include "src/common/status.h"
#include "tests/cluster/fleet_test_util.h"

namespace jenga {
namespace {

FleetFrontend MakeFleet(int num_replicas) {
  return FleetFrontend(TestFleetConfig(num_replicas, RoutePolicy::kPrefixAffinity, /*seed=*/7),
                       ServingFrontend::Options{});
}

Request SmallRequest(FleetFrontend& fleet) {
  return MakeRequest(fleet.NextRequestId(), ArticlePrompt(0, 32, 0), /*output_len=*/2, 0.0);
}

TEST(FleetShutdownTest, SubmitAsyncAfterShutdownRejectsTheStream) {
  FleetFrontend fleet = MakeFleet(2);
  fleet.Start();
  fleet.Shutdown();
  StreamHandle stream = fleet.SubmitAsync(SmallRequest(fleet));
  EXPECT_EQ(stream->phase.load(), StreamPhase::kRejected);
  EXPECT_TRUE(stream->Done());
  EXPECT_EQ(fleet.counters().rejected_submits, 1);
  EXPECT_EQ(fleet.counters().submitted, 0);
}

TEST(FleetShutdownTest, TrySubmitAsyncAfterShutdownIsFailedPrecondition) {
  FleetFrontend fleet = MakeFleet(2);
  fleet.Start();
  fleet.Shutdown();
  StreamHandle stream;
  const Status status = fleet.TrySubmitAsync(SmallRequest(fleet), &stream);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stream, nullptr);
  // A clean refusal, not a fake saturation signal: no backpressure tally, no submit tally —
  // the refusal lands on the same rejected_submits ledger as SubmitAsync's kRejected path.
  EXPECT_EQ(fleet.counters().backpressure_rejections, 0);
  EXPECT_EQ(fleet.counters().rejected_submits, 1);
  EXPECT_EQ(fleet.counters().submitted, 0);
}

TEST(FleetShutdownTest, ShutdownWithoutStartStillRefusesCleanly) {
  FleetFrontend fleet = MakeFleet(2);
  fleet.Shutdown();
  StreamHandle stream;
  EXPECT_EQ(fleet.TrySubmitAsync(SmallRequest(fleet), &stream).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.SubmitAsync(SmallRequest(fleet))->phase.load(), StreamPhase::kRejected);
}

TEST(FleetShutdownTest, KillReplicaAfterShutdownIsRefused) {
  FleetFrontend fleet = MakeFleet(2);
  fleet.Start();
  fleet.Shutdown();
  EXPECT_FALSE(fleet.KillReplica(0));
  EXPECT_EQ(fleet.counters().replica_deaths, 0);
}

TEST(FleetCancelTest, RouterCancelAfterFinishIsNotCounted) {
  FleetRouter fleet(TestFleetConfig(2, RoutePolicy::kPrefixAffinity, /*seed=*/7));
  const RequestId id = 1;
  fleet.Submit(MakeRequest(id, ArticlePrompt(0, 32, 0), /*output_len=*/2, 0.0));
  fleet.RunToCompletion();
  EXPECT_FALSE(fleet.CancelRequest(id));
  EXPECT_EQ(fleet.counters().cancelled, 0);
}

TEST(FleetCancelTest, FrontendCancelAfterFinishIsNotCounted) {
  FleetFrontend fleet = MakeFleet(2);
  fleet.Start();
  const Request request = SmallRequest(fleet);
  const RequestId id = request.id;
  StreamHandle stream = fleet.SubmitAsync(request);
  while (!stream->Done()) {
    std::this_thread::yield();
  }
  fleet.CancelAsync(id);
  fleet.Shutdown();  // Drains the cancel on the replica's engine thread.
  EXPECT_EQ(stream->phase.load(), StreamPhase::kFinished);
  EXPECT_EQ(fleet.counters().cancelled, 0);
  EXPECT_EQ(fleet.frontend_counters().client_cancels, 0);
}

TEST(FleetCancelTest, FrontendCancelThatTakesEffectIsCounted) {
  // Never started: Shutdown drains the submit and then the cancel on this thread, so the
  // engine holds the request when the cancel arrives.
  FleetFrontend fleet = MakeFleet(2);
  const Request request = SmallRequest(fleet);
  const RequestId id = request.id;
  StreamHandle stream = fleet.SubmitAsync(request);
  fleet.CancelAsync(id);
  fleet.Shutdown();
  EXPECT_EQ(stream->phase.load(), StreamPhase::kCancelled);
  EXPECT_EQ(fleet.counters().cancelled, 1);
  EXPECT_EQ(fleet.frontend_counters().client_cancels, 1);
}

// Producers race Shutdown: every submit must either be accepted (and reach a terminal
// stream phase during the drain) or be refused with the clean post-shutdown signal — never
// a hang, never a bogus ResourceExhausted caused by the closing queues. A generous queue
// capacity keeps genuine saturation out of the run so any kResourceExhausted is the bug.
TEST(FleetShutdownTest, SubmitsRacingShutdownEitherDrainOrRejectCleanly) {
  ServingFrontend::Options options;
  options.queue_capacity = 4096;
  FleetConfig config = TestFleetConfig(2, RoutePolicy::kPrefixAffinity, /*seed=*/11);
  // Disarm the spill thresholds entirely: deep queues must not read as saturation here.
  config.spill_queue_depth = 1 << 20;
  config.spill_occupancy = 2.0;
  FleetFrontend fleet(config, options);
  fleet.Start();

  constexpr int kProducers = 6;
  constexpr int kPerProducer = 200;
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> refused{0};
  std::atomic<int64_t> saturation{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&fleet, &accepted, &refused, &saturation, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Request r = MakeRequest(fleet.NextRequestId(), ArticlePrompt(p % 3, 32, i),
                                /*output_len=*/2, 0.0);
        if ((i & 1) == 0) {
          StreamHandle stream;
          const Status status = fleet.TrySubmitAsync(std::move(r), &stream);
          if (status.ok()) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          } else if (status.code() == StatusCode::kFailedPrecondition) {
            refused.fetch_add(1, std::memory_order_relaxed);
          } else {
            saturation.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          StreamHandle stream = fleet.SubmitAsync(std::move(r));
          if (stream->phase.load() == StreamPhase::kRejected) {
            refused.fetch_add(1, std::memory_order_relaxed);
          } else {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Let some submissions land, then shut down while producers are still going.
  while (accepted.load(std::memory_order_relaxed) < 32) {
    std::this_thread::yield();
  }
  fleet.Shutdown();
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(saturation.load(), 0);
  EXPECT_EQ(accepted.load() + refused.load(),
            static_cast<int64_t>(kProducers) * kPerProducer);
  const FleetCounters fc = fleet.counters();
  const ServingFrontend::Counters c = fleet.frontend_counters();
  EXPECT_EQ(fc.submitted, accepted.load());
  EXPECT_EQ(fc.rejected_submits, refused.load());
  // Shutdown drains: everything accepted reached a terminal record on some replica.
  EXPECT_EQ(c.submitted, accepted.load());
  EXPECT_EQ(c.submitted, c.admitted + c.cancelled_queued);
  EXPECT_EQ(c.admitted, c.finished + c.cancelled + c.failed);
}

}  // namespace
}  // namespace jenga

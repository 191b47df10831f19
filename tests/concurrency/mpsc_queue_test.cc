// MpscQueue unit tests: bounded capacity, per-producer FIFO under real contention, and the
// drain-after-close shutdown contract. The multi-threaded cases run under the tsan preset
// (scripts/check.sh) as well as plain tier 1.

#include "src/common/mpsc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace jenga {
namespace {

TEST(MpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscQueue<int>(1000).capacity(), 1024u);
}

TEST(MpscQueueTest, BoundedCapacityTryPushFailsWhenFull) {
  MpscQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(queue.TryPush(v)) << i;
  }
  int extra = 99;
  EXPECT_FALSE(queue.TryPush(extra));
  EXPECT_EQ(extra, 99);  // Untouched on failure.
  // Popping one cell re-arms it for exactly one more push.
  EXPECT_EQ(queue.TryPop().value(), 0);
  EXPECT_TRUE(queue.TryPush(extra));
  EXPECT_FALSE(queue.TryPush(extra));
}

TEST(MpscQueueTest, SingleProducerFifo) {
  MpscQueue<int> queue(64);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(queue.Push(i));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(queue.TryPop().value(), i);
  }
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(MpscQueueTest, MoveOnlyValues) {
  MpscQueue<std::unique_ptr<int>> queue(4);
  auto value = std::make_unique<int>(7);
  EXPECT_TRUE(queue.Push(value));
  EXPECT_EQ(value, nullptr);  // Moved into the queue on success.
  auto popped = queue.TryPop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(**popped, 7);
  // A failed push leaves a move-only value with the caller.
  queue.Close();
  auto kept = std::make_unique<int>(8);
  EXPECT_FALSE(queue.Push(kept));
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(*kept, 8);
}

TEST(MpscQueueTest, DrainAfterClose) {
  MpscQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.Push(i));
  }
  queue.Close();
  int v = 42;
  EXPECT_FALSE(queue.TryPush(v));
  EXPECT_FALSE(queue.Push(v));
  EXPECT_EQ(v, 42);  // Untouched on failure.
  // Everything accepted before Close() remains poppable, in order.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(queue.TryPop().value(), i);
  }
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(MpscQueueTest, PerProducerFifoUnderContention) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  // Small capacity on purpose: producers must block (Push spins) and interleave with the
  // consumer, exercising the full/rearm transitions.
  MpscQueue<std::pair<int, int>> queue(16);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::pair<int, int> item{p, i};
        ASSERT_TRUE(queue.Push(item));
      }
    });
  }

  std::vector<int> next_expected(kProducers, 0);
  int total = 0;
  while (total < kProducers * kPerProducer) {
    if (auto item = queue.TryPop()) {
      ASSERT_EQ(item->second, next_expected[static_cast<size_t>(item->first)])
          << "per-producer FIFO violated for producer " << item->first;
      next_expected[static_cast<size_t>(item->first)] += 1;
      ++total;
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) {
    t.join();
  }
  EXPECT_FALSE(queue.TryPop().has_value());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[static_cast<size_t>(p)], kPerProducer);
  }
}

TEST(MpscQueueTest, BlockingPushUnblocksAsConsumerDrains) {
  MpscQueue<int> queue(2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(queue.Push(i));
      pushed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  int seen = 0;
  while (seen < 200) {
    if (auto item = queue.TryPop()) {
      EXPECT_EQ(*item, seen);
      ++seen;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 200);
}

TEST(MpscQueueTest, CloseUnblocksWaitingProducer) {
  MpscQueue<int> queue(2);
  int a = 1;
  int b = 2;
  ASSERT_TRUE(queue.TryPush(a));
  ASSERT_TRUE(queue.TryPush(b));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    int c = 3;
    EXPECT_FALSE(queue.Push(c));  // Full; must return false once closed.
    EXPECT_EQ(c, 3);
    returned.store(true);
  });
  queue.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // The two accepted values still drain.
  EXPECT_EQ(queue.TryPop().value(), 1);
  EXPECT_EQ(queue.TryPop().value(), 2);
}

}  // namespace
}  // namespace jenga

// Lock-free bounded multi-producer / single-consumer queue.
//
// This is the submission channel between client threads and the engine loop: producers
// enqueue submit/cancel operations from arbitrary threads; the single consumer (the engine
// loop) drains at step boundaries. The algorithm is the classic bounded-array scheme of
// Dmitry Vyukov's MPMC queue, specialized to one consumer:
//
//   - Each cell carries a sequence number. A cell is writable when seq == ticket, readable
//     when seq == ticket + 1; after a read the consumer re-arms it with seq = ticket +
//     capacity. Producers race on a CAS over the tail ticket; the consumer owns the head
//     ticket outright, so dequeue needs no CAS at all.
//   - Capacity is rounded up to a power of two so cell indexing is a mask, and tickets can
//     grow without wrapping hazards (64-bit).
//
// Per-producer FIFO holds: a producer's pushes acquire strictly increasing tickets in
// program order, and the consumer drains tickets in order. Pushes from different producers
// interleave in ticket (CAS-win) order, which is the only total order that exists anyway.
//
// Close() makes all subsequent pushes fail while letting the consumer drain everything that
// was enqueued before — shutdown must not drop accepted work (drain-after-close contract,
// exercised directly by mpsc_queue_test).
//
// The queue never allocates after construction and is TSan-clean (see the tsan preset);
// correctness under real interleavings is the concurrency test tier's job, determinism of
// the serving results is the frontend's (see DESIGN.md §9).

#ifndef JENGA_SRC_COMMON_MPSC_QUEUE_H_
#define JENGA_SRC_COMMON_MPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace jenga {

template <typename T>
class MpscQueue {
 public:
  // Capacity is rounded up to the next power of two (minimum 2).
  explicit MpscQueue(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    cells_ = std::vector<Cell>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(static_cast<uint64_t>(i), std::memory_order_relaxed);
    }
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Enqueues from any thread. Returns false when the queue is full or closed; the value is
  // untouched on failure (callers may retry or fall back).
  [[nodiscard]] bool TryPush(T& value) {
    if (closed_.load(std::memory_order_acquire)) return false;
    uint64_t ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[static_cast<size_t>(ticket) & mask_];
      const uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(ticket);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(ticket, ticket + 1, std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.seq.store(ticket + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `ticket`; retry with the fresh value.
      } else if (dif < 0) {
        return false;  // Full: the consumer has not re-armed this cell yet.
      } else {
        ticket = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Blocking enqueue: spins (with yield) while the queue is full. Returns false only when
  // the queue is closed; the value is untouched then, as with TryPush.
  [[nodiscard]] bool Push(T& value) {
    for (;;) {
      if (TryPush(value)) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      std::this_thread::yield();
    }
  }

  // Dequeues one value. SINGLE CONSUMER ONLY — concurrent callers race on head_.
  [[nodiscard]] std::optional<T> TryPop() {
    const uint64_t ticket = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[static_cast<size_t>(ticket) & mask_];
    const uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (seq != ticket + 1) return std::nullopt;  // Empty (or a producer mid-write).
    std::optional<T> out(std::move(cell.value));
    cell.seq.store(ticket + capacity_, std::memory_order_release);
    head_.store(ticket + 1, std::memory_order_relaxed);
    return out;
  }

  // Rejects all future pushes; values already enqueued remain poppable.
  void Close() { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }
  [[nodiscard]] size_t capacity() const { return capacity_; }

  // Approximate (racy) size; exact when no producer is mid-push. Consumer/test use.
  [[nodiscard]] size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  // Hot atomics on separate cache lines: producers hammer tail_, the consumer owns head_.
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<bool> closed_{false};
  std::vector<Cell> cells_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_COMMON_MPSC_QUEUE_H_

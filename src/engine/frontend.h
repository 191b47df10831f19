// Concurrent serving front end: many client threads, one engine loop.
//
// Threading model (DESIGN.md §9):
//   - Client threads call SubmitAsync / CancelAsync from anywhere. Each call enqueues an
//     operation on a lock-free bounded MPSC queue and returns immediately; SubmitAsync hands
//     back a RequestStream the client polls for progress.
//   - The engine thread — spawned by Start(), or the caller's own thread via RunUntilIdle()
//     — is the ONLY thread that touches the Engine, the KvManager, and the allocator stack.
//     It drains the queue at step boundaries (between StepOnce calls, the same points where
//     CancelRequest is documented safe), so the entire deterministic core stays
//     single-threaded; concurrency lives in the queue and in the per-request stream cells.
//   - RequestStream fields are lock-free atomics written by the engine thread and read by
//     clients. There are no locks on the hot path; a condition variable exists only to park
//     the engine thread when there is no work.
//
// Cancellation routes through Engine::CancelRequest (PR 4's machinery). A cancel that
// arrives before its submit has been drained (possible across producers, and trivially when
// a client cancels its own queued submit) is remembered and annihilates the submit when it
// surfaces — the engine never sees the request at all ("cancel-while-queued").

#ifndef JENGA_SRC_ENGINE_FRONTEND_H_
#define JENGA_SRC_ENGINE_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/mpsc_queue.h"
#include "src/engine/engine.h"
#include "src/engine/request.h"

namespace jenga {

// Terminal states are >= kFinished; once terminal, a stream never changes again.
enum class StreamPhase : uint8_t {
  kQueued = 0,     // In the MPSC queue or the engine's waiting queue.
  kRunning = 1,    // Scheduled at least once (may be preempted between steps).
  kFinished = 2,   // Completed successfully.
  kCancelled = 3,  // Client cancel or deadline expiry — including cancel-while-queued.
  kFailed = 4,     // Engine-side failure (admission abort, load shed).
  kRejected = 5,   // Never accepted: submitted after Shutdown().
};

[[nodiscard]] inline bool IsTerminal(StreamPhase phase) {
  return phase >= StreamPhase::kFinished;
}

// Per-request progress cell shared between the engine thread (writer) and the submitting
// client (reader). Wall-clock timestamps are seconds since the frontend was constructed;
// -1.0 = not reached yet. `tokens` is monotone except across a preemption-recompute, where
// the engine may legitimately re-generate (the final value is authoritative).
struct RequestStream {
  std::atomic<StreamPhase> phase{StreamPhase::kQueued};
  std::atomic<int64_t> tokens{0};
  std::atomic<double> submit_wall{-1.0};
  std::atomic<double> first_token_wall{-1.0};
  std::atomic<double> finish_wall{-1.0};

  [[nodiscard]] bool Done() const { return IsTerminal(phase.load(std::memory_order_acquire)); }
};

using StreamHandle = std::shared_ptr<RequestStream>;

// Spawns `n` client threads running `fn(client_index)` and joins them all. A frontend's
// engine loop must be running (Start()) or be run concurrently.
void RunClients(int n, const std::function<void(int)>& fn);

class ServingFrontend {
 public:
  struct Options {
    // MPSC queue capacity (rounded up to a power of two). SubmitAsync blocks when full;
    // TrySubmitAsync fails instead.
    size_t queue_capacity = 1024;
    // How long the engine thread parks when idle before re-checking the queue; the
    // condition-variable wakeup from producers usually cuts this short.
    int64_t idle_wait_us = 200;
    // Invoked on the engine thread after every StepOnce, with the queue drained — the hook
    // where tests run the AllocatorAuditor against live state. Null = disabled.
    std::function<void(Engine&)> step_observer;
  };

  explicit ServingFrontend(EngineConfig config);
  ServingFrontend(EngineConfig config, Options options);
  ~ServingFrontend();

  ServingFrontend(const ServingFrontend&) = delete;
  ServingFrontend& operator=(const ServingFrontend&) = delete;

  // --- Client API (any thread) ---

  // Enqueues the request; blocks while the queue is full. The returned stream is kRejected
  // immediately if the frontend is shutting down. Request ids must be unique for the
  // lifetime of the frontend (NextRequestId() hands out fresh ones).
  StreamHandle SubmitAsync(Request request);
  // Non-blocking variant: false (and no side effect) when the queue is full.
  [[nodiscard]] bool TrySubmitAsync(Request request, StreamHandle* out);
  enum class TrySubmitResult : uint8_t {
    kAccepted,   // Enqueued; counters bumped.
    kQueueFull,  // Backpressure; `request` left intact.
    kClosed,     // Shutdown or killed; `request` left intact.
  };
  // The one enqueue path, which SubmitAsync and TrySubmitAsync call with a fresh stream.
  // The fleet layer calls it directly to adopt a caller-provided stream — both for first
  // placement and for re-routing a harvested request after a replica death (the client
  // keeps polling the same stream across the move). Stamps the stream's submit_wall first
  // unless it already has one (re-routes keep the original); a refusal changes nothing else.
  // `wait_if_full` blocks while the queue is merely full; otherwise that is kQueueFull.
  [[nodiscard]] TrySubmitResult SubmitWithStream(Request& request, const StreamHandle& stream,
                                                 bool wait_if_full);
  // Requests cancellation of `id` (queued or engine-side). Unknown/finished ids are a no-op.
  void CancelAsync(RequestId id);
  // Fresh unique request id (atomic counter).
  [[nodiscard]] RequestId NextRequestId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Wall-clock seconds since construction (the streams' time base).
  [[nodiscard]] double WallSeconds() const;

  // --- Engine loop ---

  // Spawns the engine thread. Call at most once.
  void Start();
  // Closes the queue to new submits, drains every accepted operation, runs the engine to
  // completion, and joins the engine thread. Idempotent; also run by the destructor.
  void Shutdown();
  // Inline alternative to Start(): runs the loop on the caller's thread until the queue is
  // empty and the engine has no unfinished work, then returns. Deterministic when the
  // callers enqueued everything beforehand — the unit tests' mode.
  void RunUntilIdle();

  // --- Failure injection (fleet layer) ---

  // Hard-kills the frontend: closes the queue, stops the engine loop at the next step
  // boundary WITHOUT draining queued ops or finishing engine work, and joins the thread.
  // Models a replica death — accepted work is abandoned in place and recoverable via
  // HarvestAbandoned(). Call at most once; must not race Shutdown() (the fleet layer
  // serializes them). After Kill, Shutdown and the destructor are no-ops.
  void Kill();

  // One recoverable unit of work harvested off a killed frontend: the rebuilt request
  // (fresh scheduler state, recompute-from-prompt) plus the client's original stream, which
  // the re-submission adopts so the client keeps polling the same handle.
  struct AbandonedWork {
    Request request;
    StreamHandle stream;
    bool engine_side = false;  // True: was admitted (cancelled off the engine at harvest).
  };

  // Post-Kill only (the engine thread is joined, so this runs single-threaded). Drains the
  // queue's leftover ops — honoring cancel-while-queued annihilation and client cancels
  // that raced the death, which win over re-routing — then cancels every engine-side
  // request through CancelRequest (full reclamation: the dead engine still audits clean)
  // and returns the recoverable work in deterministic order: queued submits in queue
  // order, then engine-side requests in scheduler order (running, then waiting).
  [[nodiscard]] std::vector<AbandonedWork> HarvestAbandoned();

  // --- Introspection (engine thread, or any thread after Shutdown) ---

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const EngineMetrics& metrics() const { return engine_.metrics(); }

  struct Counters {
    int64_t submitted = 0;           // Accepted into the queue.
    int64_t rejected = 0;            // Refused at submit time (shutdown).
    int64_t admitted = 0;            // Reached Engine::Submit.
    int64_t cancelled_queued = 0;    // Annihilated before reaching the engine.
    int64_t finished = 0;            // Terminal kFinished.
    int64_t cancelled = 0;           // Terminal kCancelled (engine-side).
    int64_t failed = 0;              // Terminal kFailed.
    // Client cancels that took effect: a queued submit annihilated (also in cancelled_queued)
    // or the request cancelled off the engine. Late cancels of finished ids are not counted.
    int64_t client_cancels = 0;
    // Kill/harvest ledger (0 unless the frontend was killed). The per-frontend balances
    // become: submitted == admitted + cancelled_queued + harvested_queued, and
    // admitted == finished + cancelled + failed + harvested_live.
    int64_t harvested_queued = 0;    // Harvested out of the op queue (never admitted).
    int64_t harvested_live = 0;      // Cancelled off the engine and harvested.
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Op {
    enum class Kind : uint8_t { kSubmit, kCancel } kind = Kind::kSubmit;
    RequestId id = kNoRequest;
    Request request;         // kSubmit only.
    StreamHandle stream;     // kSubmit only.
  };

  void EngineLoop(bool until_idle);
  // Drains every queued op into the engine; returns the number applied.
  int DrainOps();
  void ApplySubmit(Op& op);
  void ApplyCancel(RequestId id);
  // Publishes engine-side request state into the live streams; retires terminal ones.
  void PublishProgress();
  void IdleWait();
  void WakeConsumer();

  Options options_;
  Engine engine_;
  MpscQueue<Op> queue_;
  std::thread loop_;
  std::chrono::steady_clock::time_point epoch_;

  // Engine-thread-only state. retired_ mirrors the engine's own forever-growing requests_
  // map (same asymptotics) so late cancels for finished requests stay no-ops instead of
  // poisoning pending_cancels_.
  std::unordered_map<RequestId, StreamHandle> live_;
  std::unordered_set<RequestId> pending_cancels_;
  std::unordered_set<RequestId> retired_;

  // Shared.
  std::atomic<RequestId> next_id_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};
  std::atomic<bool> killed_{false};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> cancelled_queued_{0};
  std::atomic<int64_t> finished_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> client_cancels_{0};
  std::atomic<int64_t> harvested_queued_{0};
  std::atomic<int64_t> harvested_live_{0};

  // Engine-thread parking. consumer_idle_ lets producers skip the mutex when the consumer
  // is busy; the wait uses a timeout so a lost wakeup costs at most idle_wait_us.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> consumer_idle_{false};
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_FRONTEND_H_

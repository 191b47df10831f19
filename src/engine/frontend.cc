#include "src/engine/frontend.h"

#include <utility>

#include "src/common/check.h"

namespace jenga {

ServingFrontend::ServingFrontend(EngineConfig config)
    : ServingFrontend(std::move(config), Options{}) {}

ServingFrontend::ServingFrontend(EngineConfig config, Options options)
    : options_(std::move(options)),
      engine_(std::move(config)),
      queue_(options_.queue_capacity),
      epoch_(std::chrono::steady_clock::now()) {}

ServingFrontend::~ServingFrontend() { Shutdown(); }

double ServingFrontend::WallSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

StreamHandle ServingFrontend::SubmitAsync(Request request) {
  auto stream = std::make_shared<RequestStream>();
  if (SubmitWithStream(request, stream, /*wait_if_full=*/true) == TrySubmitResult::kClosed) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    stream->phase.store(StreamPhase::kRejected, std::memory_order_release);
  }
  return stream;
}

bool ServingFrontend::TrySubmitAsync(Request request, StreamHandle* out) {
  JENGA_CHECK(out != nullptr);
  auto stream = std::make_shared<RequestStream>();
  const TrySubmitResult result = SubmitWithStream(request, stream, /*wait_if_full=*/false);
  if (result == TrySubmitResult::kQueueFull) {
    return false;  // No side effect on the caller.
  }
  if (result == TrySubmitResult::kClosed) {
    // Handled: the caller can read the rejection off the stream.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    stream->phase.store(StreamPhase::kRejected, std::memory_order_release);
  }
  *out = std::move(stream);
  return true;
}

ServingFrontend::TrySubmitResult ServingFrontend::SubmitWithStream(Request& request,
                                                                   const StreamHandle& stream,
                                                                   bool wait_if_full) {
  double unset = -1.0;
  (void)stream->submit_wall.compare_exchange_strong(unset, WallSeconds(),
                                                    std::memory_order_release,
                                                    std::memory_order_relaxed);
  Op op;
  op.kind = Op::Kind::kSubmit;
  op.id = request.id;
  op.request = std::move(request);
  op.stream = stream;
  // Both pushes leave the op intact on failure, so the request goes back to the caller.
  if (!(wait_if_full ? queue_.Push(op) : queue_.TryPush(op))) {
    request = std::move(op.request);
    return queue_.closed() ? TrySubmitResult::kClosed : TrySubmitResult::kQueueFull;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  WakeConsumer();
  return TrySubmitResult::kAccepted;
}

void ServingFrontend::CancelAsync(RequestId id) {
  Op op;
  op.kind = Op::Kind::kCancel;
  op.id = id;
  // A cancel dropped because the queue closed is harmless: shutdown drains the accepted
  // work to completion either way.
  if (queue_.Push(op)) {
    WakeConsumer();
  }
}

void ServingFrontend::Start() {
  JENGA_CHECK(!started_.exchange(true)) << "ServingFrontend::Start called twice";
  loop_ = std::thread([this] { EngineLoop(/*until_idle=*/false); });
}

void ServingFrontend::Shutdown() {
  if (shut_down_.exchange(true)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_one();
  }
  if (loop_.joinable()) {
    loop_.join();
  } else {
    // Start() was never called: drain whatever was enqueued on the caller's thread.
    EngineLoop(/*until_idle=*/false);
  }
}

void ServingFrontend::Kill() {
  JENGA_CHECK(!killed_.exchange(true)) << "ServingFrontend::Kill called twice";
  JENGA_CHECK(!shut_down_.load(std::memory_order_acquire))
      << "cannot Kill a frontend that already shut down";
  // Order matters: killed_ first so the loop abandons work, shut_down_ so a later Shutdown
  // (and the destructor) is a no-op, then Close so producers start failing. Producers that
  // observe the closed queue (acquire) also observe the kill that closed it.
  shut_down_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  queue_.Close();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_one();
  }
  if (loop_.joinable()) {
    loop_.join();
  }
  // If Start() was never called, there is nothing to join and nothing ran: every accepted
  // op is still in the queue, exactly what HarvestAbandoned expects.
}

std::vector<ServingFrontend::AbandonedWork> ServingFrontend::HarvestAbandoned() {
  JENGA_CHECK(killed_.load(std::memory_order_acquire))
      << "HarvestAbandoned requires Kill() first";
  const double wall = WallSeconds();
  // Pass 1: drain the leftover queue ops in order. Submits are stashed as candidates;
  // cancels annihilate their submit wherever it is (stashed behind us, or already on the
  // engine) — a cancel the client got into the queue before the death wins over re-routing.
  std::vector<Op> queued;
  std::unordered_map<RequestId, size_t> queued_index;
  while (auto op = queue_.TryPop()) {
    if (op->kind == Op::Kind::kSubmit) {
      if (pending_cancels_.erase(op->id) > 0) {
        retired_.insert(op->id);
        cancelled_queued_.fetch_add(1, std::memory_order_relaxed);
        client_cancels_.fetch_add(1, std::memory_order_relaxed);
        op->stream->finish_wall.store(wall, std::memory_order_release);
        op->stream->phase.store(StreamPhase::kCancelled, std::memory_order_release);
        continue;
      }
      queued_index.emplace(op->id, queued.size());
      queued.push_back(std::move(*op));
      continue;
    }
    const RequestId id = op->id;
    if (auto it = queued_index.find(id); it != queued_index.end()) {
      Op& submit = queued[it->second];
      queued_index.erase(it);
      retired_.insert(id);
      cancelled_queued_.fetch_add(1, std::memory_order_relaxed);
      client_cancels_.fetch_add(1, std::memory_order_relaxed);
      submit.stream->finish_wall.store(wall, std::memory_order_release);
      submit.stream->phase.store(StreamPhase::kCancelled, std::memory_order_release);
      submit.stream.reset();  // Marks the slot annihilated.
      continue;
    }
    if (auto it = live_.find(id); it != live_.end()) {
      JENGA_CHECK(engine_.CancelRequest(id));
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      client_cancels_.fetch_add(1, std::memory_order_relaxed);
      it->second->finish_wall.store(wall, std::memory_order_release);
      it->second->phase.store(StreamPhase::kCancelled, std::memory_order_release);
      retired_.insert(id);
      live_.erase(it);
      continue;
    }
    if (retired_.find(id) == retired_.end()) {
      pending_cancels_.insert(id);  // Submit never arrived and never will; harmless.
    }
  }
  std::vector<AbandonedWork> work;
  work.reserve(queued.size() + live_.size());
  for (Op& op : queued) {
    if (op.stream == nullptr) {
      continue;  // Annihilated above.
    }
    harvested_queued_.fetch_add(1, std::memory_order_relaxed);
    work.push_back(AbandonedWork{std::move(op.request), std::move(op.stream),
                                 /*engine_side=*/false});
  }
  // Pass 2: engine-side requests, in scheduler order. Rebuild from the prompt (the same
  // recompute-from-prompt recovery as preemption, lifted to fleet scope) and cancel with
  // full reclamation so the dead engine's allocator still audits clean. No terminal phase
  // is published: the stream stays live and travels with the re-routed request.
  for (const RequestId id : engine_.ActiveRequests()) {
    auto it = live_.find(id);
    JENGA_CHECK(it != live_.end()) << "active engine request has no live stream";
    Request revived = ReviveForReroute(engine_.request(id));
    JENGA_CHECK(engine_.CancelRequest(id));
    harvested_live_.fetch_add(1, std::memory_order_relaxed);
    work.push_back(AbandonedWork{std::move(revived), std::move(it->second),
                                 /*engine_side=*/true});
    live_.erase(it);
  }
  JENGA_CHECK(live_.empty()) << "killed frontend left unresolved live streams";
  return work;
}

void ServingFrontend::RunUntilIdle() {
  JENGA_CHECK(!started_.load(std::memory_order_acquire))
      << "RunUntilIdle cannot run next to the engine thread";
  EngineLoop(/*until_idle=*/true);
}

void ServingFrontend::EngineLoop(bool until_idle) {
  for (;;) {
    if (killed_.load(std::memory_order_acquire)) {
      return;  // Killed: abandon queue and engine state in place for HarvestAbandoned.
    }
    const int applied = DrainOps();
    const bool stepped = engine_.StepOnce();
    if (!live_.empty()) {
      PublishProgress();
    }
    if (options_.step_observer && (stepped || applied > 0)) {
      options_.step_observer(engine_);
    }
    if (stepped || applied > 0) {
      continue;
    }
    // Queue empty at drain time and the engine has no unfinished work.
    if (until_idle && queue_.SizeApprox() == 0) {
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      if (queue_.SizeApprox() == 0) {
        JENGA_CHECK(live_.empty()) << "engine idle with live streams unresolved";
        return;
      }
      continue;  // Late ops slipped in before Close(); drain them.
    }
    if (!until_idle) {
      IdleWait();
    }
  }
}

int ServingFrontend::DrainOps() {
  int applied = 0;
  while (auto op = queue_.TryPop()) {
    if (op->kind == Op::Kind::kSubmit) {
      ApplySubmit(*op);
    } else {
      ApplyCancel(op->id);
    }
    ++applied;
  }
  return applied;
}

void ServingFrontend::ApplySubmit(Op& op) {
  if (pending_cancels_.erase(op.id) > 0) {
    // Cancelled while still queued: the engine never sees the request.
    retired_.insert(op.id);
    cancelled_queued_.fetch_add(1, std::memory_order_relaxed);
    client_cancels_.fetch_add(1, std::memory_order_relaxed);
    op.stream->finish_wall.store(WallSeconds(), std::memory_order_release);
    op.stream->phase.store(StreamPhase::kCancelled, std::memory_order_release);
    return;
  }
  engine_.Submit(std::move(op.request));
  admitted_.fetch_add(1, std::memory_order_relaxed);
  live_.emplace(op.id, std::move(op.stream));
}

void ServingFrontend::ApplyCancel(RequestId id) {
  if (live_.find(id) != live_.end()) {
    // False only if it finished this very step: the cancel took no effect.
    if (engine_.CancelRequest(id)) {
      client_cancels_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (retired_.find(id) != retired_.end()) {
    return;  // Late cancel for a finished/cancelled request.
  }
  // The submit has not been drained yet (it is behind us in the queue, or on its way from
  // another producer). Remember the cancel; the submit annihilates against it.
  pending_cancels_.insert(id);
}

void ServingFrontend::PublishProgress() {
  const double wall = WallSeconds();
  for (auto it = live_.begin(); it != live_.end();) {
    const Request& r = engine_.request(it->first);
    RequestStream& stream = *it->second;
    stream.tokens.store(r.num_generated, std::memory_order_release);
    if (r.num_generated > 0 &&
        stream.first_token_wall.load(std::memory_order_relaxed) < 0.0) {
      stream.first_token_wall.store(wall, std::memory_order_release);
    }
    if (r.state == RequestState::kFinished) {
      StreamPhase terminal = StreamPhase::kFinished;
      if (r.cancelled) {
        terminal = StreamPhase::kCancelled;
        cancelled_.fetch_add(1, std::memory_order_relaxed);
      } else if (r.failed) {
        terminal = StreamPhase::kFailed;
        failed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        finished_.fetch_add(1, std::memory_order_relaxed);
      }
      stream.finish_wall.store(wall, std::memory_order_release);
      stream.phase.store(terminal, std::memory_order_release);
      retired_.insert(it->first);
      it = live_.erase(it);
      continue;
    }
    if (r.state != RequestState::kWaiting) {
      // Running or preempted: scheduled at least once from the client's point of view.
      StreamPhase expected = StreamPhase::kQueued;
      stream.phase.compare_exchange_strong(expected, StreamPhase::kRunning,
                                           std::memory_order_release,
                                           std::memory_order_relaxed);
    }
    ++it;
  }
}

void ServingFrontend::IdleWait() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  consumer_idle_.store(true, std::memory_order_seq_cst);
  // Re-check under the lock: a producer that saw consumer_idle_ == true will block on
  // wake_mu_ before notifying, so a push that raced our store is visible here. The timeout
  // bounds the one remaining race (push before our store, idle-check before the producer's
  // load) at idle_wait_us.
  if (queue_.SizeApprox() == 0 && !stopping_.load(std::memory_order_acquire)) {
    wake_cv_.wait_for(lock, std::chrono::microseconds(options_.idle_wait_us));
  }
  consumer_idle_.store(false, std::memory_order_seq_cst);
}

void ServingFrontend::WakeConsumer() {
  if (consumer_idle_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_one();
  }
}

void RunClients(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    clients.emplace_back(fn, i);
  }
  for (std::thread& t : clients) {
    t.join();
  }
}

ServingFrontend::Counters ServingFrontend::counters() const {
  Counters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  c.admitted = admitted_.load(std::memory_order_relaxed);
  c.cancelled_queued = cancelled_queued_.load(std::memory_order_relaxed);
  c.finished = finished_.load(std::memory_order_relaxed);
  c.cancelled = cancelled_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.client_cancels = client_cancels_.load(std::memory_order_relaxed);
  c.harvested_queued = harvested_queued_.load(std::memory_order_relaxed);
  c.harvested_live = harvested_live_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace jenga

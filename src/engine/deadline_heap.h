// Lazy min-heap over request deadlines. The engines used to find expired requests with a
// full scan of both scheduler queues on every step that had any deadline in flight —
// O(requests) per step even when nothing expired. The heap makes the per-step check O(1)
// (compare the earliest deadline against now) and each expiry O(log n).
//
// Entries are pushed once at Submit — deadlines are immutable for a request's lifetime, so
// preemption and re-admission need no heap updates. Deletion is lazy: requests that finish,
// fail, or are cancelled before their deadline leave a stale entry behind, which the owner
// discards when it surfaces at the top (the owner checks liveness against its request table).
// Unlike JengaAllocator's reclaim queue, which supersedes its one live entry per large page
// with a new one, entries here are never updated: each request contributes exactly one.
//
// Expiry-order contract: the heap yields deadline order, but the engines' legacy cancel
// order is queue order (waiting first, then running). Callers that pop more than one expired
// entry for the same step must re-collect the expired set by scanning the queues — see
// SchedulerCore::ExpireDeadlines. Ties on deadline are therefore left unordered here.

#ifndef JENGA_SRC_ENGINE_DEADLINE_HEAP_H_
#define JENGA_SRC_ENGINE_DEADLINE_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/core/types.h"

namespace jenga {

class DeadlineHeap {
 public:
  struct Entry {
    double deadline = 0.0;
    RequestId id = kNoRequest;
  };

  void Push(double deadline, RequestId id) {
    heap_.push_back(Entry{deadline, id});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  // True when some entry (possibly stale) has deadline <= now. O(1).
  [[nodiscard]] bool HasExpired(double now) const {
    return !heap_.empty() && heap_.front().deadline <= now;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] size_t size() const { return heap_.size(); }
  [[nodiscard]] const Entry& top() const { return heap_.front(); }

  // Removes the earliest-deadline entry. O(log n).
  Entry PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Entry entry = heap_.back();
    heap_.pop_back();
    return entry;
  }

 private:
  // Min-heap on deadline: std::push_heap builds a max-heap, so order by "later deadline".
  static bool Later(const Entry& a, const Entry& b) { return a.deadline > b.deadline; }

  std::vector<Entry> heap_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_DEADLINE_HEAP_H_

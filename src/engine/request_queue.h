// An indexed FIFO of requests for the scheduler queues. The engines historically kept
// `waiting_` as a deque and `running_` as a vector and located entries with std::find — an
// O(n) scan on every preempt, cancel, shed, and finish. This queue keeps the same insertion
// order (a doubly-linked list of nodes owned by a hash map) but indexes every id, so mid-queue
// removal is O(1) while iteration order — and therefore every FCFS scheduling decision — is
// bit-identical to the container it replaces. Walking the queue follows node pointers and
// hashes nothing.

#ifndef JENGA_SRC_ENGINE_REQUEST_QUEUE_H_
#define JENGA_SRC_ENGINE_REQUEST_QUEUE_H_

#include <cstddef>
#include <unordered_map>

#include "src/core/types.h"
#include "src/engine/request.h"

namespace jenga {

class RequestQueue {
 public:
  // A queued request and its neighbours in queue order (nullptr at either end). A node stays
  // valid until its request is erased from the queue.
  struct Node {
    Request* request = nullptr;
    Node* prev = nullptr;
    Node* next = nullptr;
  };

  RequestQueue() = default;
  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  // `r` must outlive its stay in the queue.
  void PushBack(Request& r);
  void PushFront(Request& r);
  // Removes `id`; check-fails unless present.
  void Erase(RequestId id);
  // Removes and returns the front; check-fails when empty.
  Request& PopFront();

  [[nodiscard]] const Node* first() const { return head_; }
  // The front and back requests, nullptr when the queue is empty.
  [[nodiscard]] Request* front() const { return head_ != nullptr ? head_->request : nullptr; }
  [[nodiscard]] Request* back() const { return tail_ != nullptr ? tail_->request : nullptr; }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] size_t size() const { return nodes_.size(); }

 private:
  Node& Insert(Request& r);

  std::unordered_map<RequestId, Node> nodes_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_REQUEST_QUEUE_H_

#include "src/engine/request_queue.h"

#include "src/common/check.h"

namespace jenga {

RequestQueue::Node& RequestQueue::Insert(Request& r) {
  JENGA_CHECK(r.id != kNoRequest);
  const auto [it, inserted] = nodes_.try_emplace(r.id);
  JENGA_CHECK(inserted) << "request " << r.id << " already queued";
  it->second.request = &r;
  return it->second;
}

void RequestQueue::PushBack(Request& r) {
  Node& node = Insert(r);
  node.prev = tail_;
  if (tail_ == nullptr) {
    head_ = &node;
  } else {
    tail_->next = &node;
  }
  tail_ = &node;
}

void RequestQueue::PushFront(Request& r) {
  Node& node = Insert(r);
  node.next = head_;
  if (head_ == nullptr) {
    tail_ = &node;
  } else {
    head_->prev = &node;
  }
  head_ = &node;
}

void RequestQueue::Erase(RequestId id) {
  const auto it = nodes_.find(id);
  JENGA_CHECK(it != nodes_.end()) << "request " << id << " not queued";
  const Node node = it->second;
  nodes_.erase(it);
  if (node.prev == nullptr) {
    head_ = node.next;
  } else {
    node.prev->next = node.next;
  }
  if (node.next == nullptr) {
    tail_ = node.prev;
  } else {
    node.next->prev = node.prev;
  }
}

Request& RequestQueue::PopFront() {
  JENGA_CHECK(head_ != nullptr) << "pop from empty queue";
  Request& r = *head_->request;
  Erase(r.id);
  return r;
}

}  // namespace jenga

#include "src/core/evictor.h"

#include <algorithm>
#include <functional>

#include "src/common/check.h"

namespace jenga {

void Evictor::Push(Key key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<Key>{});
}

void Evictor::DropStaleTop() const {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Key>{});
    heap_.pop_back();
  }
}

void Evictor::MaybeCompact() {
  if (heap_.size() <= 64 || heap_.size() <= 2 * size_) {
    return;
  }
  // Keep the first entry of every live key. A kept key's slot is blanked for the rest of the
  // pass so a duplicate (a key re-set to an earlier value) reads as stale, then restored.
  size_t kept = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    const Key key = heap_[i];
    if (IsLive(key)) {
      keys_[static_cast<size_t>(key.page)].page = kNoSmallPage;
      heap_[kept++] = key;
    }
  }
  heap_.resize(kept);
  for (const Key& key : heap_) {
    keys_[static_cast<size_t>(key.page)] = key;
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<Key>{});
}

void Evictor::Insert(SmallPageId page, Tick last_access, int64_t prefix_length) {
  JENGA_CHECK_GE(page, 0);
  JENGA_CHECK(!Contains(page)) << "page " << page << " already in evictor";
  if (static_cast<size_t>(page) >= keys_.size()) {
    keys_.resize(static_cast<size_t>(page) + 1, Key{0, 0, kNoSmallPage});
  }
  const Key key{last_access, -prefix_length, page};
  keys_[static_cast<size_t>(page)] = key;
  size_ += 1;
  Push(key);
  JENGA_AUDIT_HOOK(audit_, OnEvictorInsert(audit_group_, page, last_access, prefix_length));
}

void Evictor::Remove(SmallPageId page) {
  // Lazy: the heap entry becomes a tombstone, discarded at pop/peek/compaction time.
  const bool present = Contains(page);
  if (present) {
    keys_[static_cast<size_t>(page)].page = kNoSmallPage;
    size_ -= 1;
  }
  MaybeCompact();
  if (present) {
    JENGA_AUDIT_HOOK(audit_, OnEvictorRemove(audit_group_, page));
  }
}

void Evictor::Rekey(Key& slot, const Key& key) {
  if (key != slot) {
    slot = key;
    Push(key);
    MaybeCompact();
  }
  JENGA_AUDIT_HOOK(audit_,
                   OnEvictorRekey(audit_group_, key.page, key.last_access, -key.neg_prefix_length));
}

void Evictor::UpdateLastAccess(SmallPageId page, Tick last_access) {
  if (!Contains(page)) {
    return;
  }
  Key& slot = keys_[static_cast<size_t>(page)];
  Rekey(slot, Key{last_access, slot.neg_prefix_length, page});
}

void Evictor::SetPrefixLength(SmallPageId page, int64_t prefix_length) {
  if (!Contains(page)) {
    return;
  }
  Key& slot = keys_[static_cast<size_t>(page)];
  Rekey(slot, Key{slot.last_access, -prefix_length, page});
}

std::optional<SmallPageId> Evictor::PopVictim() {
  DropStaleTop();
  if (heap_.empty()) {
    return std::nullopt;
  }
  const Key key = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<Key>{});
  heap_.pop_back();
  keys_[static_cast<size_t>(key.page)].page = kNoSmallPage;
  size_ -= 1;
  JENGA_AUDIT_HOOK(audit_, OnEvictorPop(audit_group_, key.page));
  return key.page;
}

std::optional<Tick> Evictor::PeekOldestAccess() const {
  DropStaleTop();
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().last_access;
}

}  // namespace jenga

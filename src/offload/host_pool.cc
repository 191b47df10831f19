#include "src/offload/host_pool.h"

#include "src/common/check.h"

namespace jenga {

HostPool::HostPool(int64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {
  JENGA_CHECK_GE(capacity_bytes, 0);
}

void HostPool::MakeRoom(int64_t incoming) {
  while (used_bytes_ + incoming > capacity_bytes_ && !lru_.empty()) {
    const auto oldest = lru_.begin();
    const LruRef ref = oldest->second;
    lru_.erase(oldest);
    if (ref.is_set) {
      const auto it = sets_.find(ref.id);
      JENGA_CHECK(it != sets_.end());
      used_bytes_ -= it->second.set.bytes;
      bytes_evicted_ += it->second.set.bytes;
      sets_evicted_ += 1;
      JENGA_AUDIT_HOOK(audit_.get(),
                       OnHostSetRemoved(ref.id, it->second.set.bytes, /*evicted=*/true));
      sets_.erase(it);
    } else {
      const auto it = pages_.find(ref.key);
      JENGA_CHECK(it != pages_.end());
      used_bytes_ -= it->second.page.bytes;
      bytes_evicted_ += it->second.page.bytes;
      pages_evicted_ += 1;
      JENGA_AUDIT_HOOK(audit_.get(), OnHostPageRemoved(ref.key.manager, ref.key.group, ref.key.hash,
                                                       it->second.page.bytes, /*evicted=*/true));
      pages_.erase(it);
    }
  }
}

void HostPool::Unlink(uint64_t seq) {
  const auto it = lru_.find(seq);
  JENGA_CHECK(it != lru_.end());
  lru_.erase(it);
}

void HostPool::ForceShrink(int64_t new_capacity_bytes) {
  JENGA_CHECK_GE(new_capacity_bytes, 0);
  capacity_bytes_ = new_capacity_bytes;
  MakeRoom(0);
}

void HostPool::Clear() {
  while (!lru_.empty()) {
    const auto oldest = lru_.begin();
    const LruRef ref = oldest->second;
    lru_.erase(oldest);
    if (ref.is_set) {
      const auto it = sets_.find(ref.id);
      JENGA_CHECK(it != sets_.end());
      used_bytes_ -= it->second.set.bytes;
      JENGA_AUDIT_HOOK(audit_.get(),
                       OnHostSetRemoved(ref.id, it->second.set.bytes, /*evicted=*/false));
      sets_.erase(it);
    } else {
      const auto it = pages_.find(ref.key);
      JENGA_CHECK(it != pages_.end());
      used_bytes_ -= it->second.page.bytes;
      JENGA_AUDIT_HOOK(audit_.get(), OnHostPageRemoved(ref.key.manager, ref.key.group, ref.key.hash,
                                                       it->second.page.bytes, /*evicted=*/false));
      pages_.erase(it);
    }
  }
  JENGA_CHECK_EQ(used_bytes_, 0);
}

bool HostPool::PutSwapSet(RequestId id, HostSwapSet set) {
  JENGA_CHECK_GE(set.bytes, 0);
  if (fault_ != nullptr && fault_->Fire(FaultSite::kHostPoolAlloc)) {
    injected_failures_ += 1;
    rejected_inserts_ += 1;
    return false;
  }
  if (set.bytes > capacity_bytes_) {
    rejected_inserts_ += 1;
    return false;
  }
  if (const auto it = sets_.find(id); it != sets_.end()) {
    used_bytes_ -= it->second.set.bytes;
    Unlink(it->second.seq);
    JENGA_AUDIT_HOOK(audit_.get(), OnHostSetRemoved(id, it->second.set.bytes, /*evicted=*/false));
    sets_.erase(it);
  }
  MakeRoom(set.bytes);
  const uint64_t seq = next_seq_++;
  used_bytes_ += set.bytes;
  lru_.emplace(seq, LruRef{/*is_set=*/true, id, PageKey{}});
  const int64_t bytes = set.bytes;
  sets_.emplace(id, SetEntry{std::move(set), seq});
  JENGA_AUDIT_HOOK(audit_.get(), OnHostSetStored(id, bytes));
  return true;
}

bool HostPool::PutPage(const PageKey& key, HostCachePage page) {
  JENGA_CHECK_GE(page.bytes, 0);
  if (fault_ != nullptr && fault_->Fire(FaultSite::kHostPoolAlloc)) {
    injected_failures_ += 1;
    rejected_inserts_ += 1;
    return false;
  }
  if (page.bytes > capacity_bytes_) {
    rejected_inserts_ += 1;
    return false;
  }
  if (const auto it = pages_.find(key); it != pages_.end()) {
    used_bytes_ -= it->second.page.bytes;
    Unlink(it->second.seq);
    JENGA_AUDIT_HOOK(audit_.get(), OnHostPageRemoved(key.manager, key.group, key.hash,
                                                     it->second.page.bytes, /*evicted=*/false));
    pages_.erase(it);
  }
  MakeRoom(page.bytes);
  const uint64_t seq = next_seq_++;
  used_bytes_ += page.bytes;
  lru_.emplace(seq, LruRef{/*is_set=*/false, kNoRequest, key});
  pages_.emplace(key, PageEntry{page, seq});
  JENGA_AUDIT_HOOK(audit_.get(),
                   OnHostPageStored(key.manager, key.group, key.hash, page.bytes));
  return true;
}

const HostSwapSet* HostPool::FindSwapSet(RequestId id) const {
  const auto it = sets_.find(id);
  return it == sets_.end() ? nullptr : &it->second.set;
}

const HostCachePage* HostPool::FindPage(const PageKey& key) const {
  const auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second.page;
}

bool HostPool::EraseSwapSet(RequestId id) {
  const auto it = sets_.find(id);
  if (it == sets_.end()) {
    return false;
  }
  used_bytes_ -= it->second.set.bytes;
  Unlink(it->second.seq);
  JENGA_AUDIT_HOOK(audit_.get(), OnHostSetRemoved(id, it->second.set.bytes, /*evicted=*/false));
  sets_.erase(it);
  return true;
}

bool HostPool::ErasePage(const PageKey& key) {
  const auto it = pages_.find(key);
  if (it == pages_.end()) {
    return false;
  }
  used_bytes_ -= it->second.page.bytes;
  Unlink(it->second.seq);
  JENGA_AUDIT_HOOK(audit_.get(), OnHostPageRemoved(key.manager, key.group, key.hash,
                                                   it->second.page.bytes, /*evicted=*/false));
  pages_.erase(it);
  return true;
}

}  // namespace jenga

#include "src/core/small_page_allocator.h"

#include <algorithm>

#include "src/common/check.h"

namespace jenga {

namespace {
// Free lists below this size are never compacted; avoids churn on tiny pools.
constexpr size_t kFreeListCompactFloor = 64;
}  // namespace

SmallPageAllocator::SmallPageAllocator(int group_index, KvGroupSpec spec, LcmAllocator* lcm,
                                       LargePageProvider* provider)
    : group_index_(group_index), spec_(std::move(spec)), lcm_(lcm), provider_(provider) {
  JENGA_CHECK(lcm_ != nullptr);
  JENGA_CHECK(provider_ != nullptr);
  JENGA_CHECK_GT(spec_.page_bytes, 0);
  JENGA_CHECK_EQ(lcm_->large_page_bytes() % spec_.page_bytes, 0)
      << "group page size must divide the LCM page size";
  pages_per_large_ = static_cast<int>(lcm_->large_page_bytes() / spec_.page_bytes);
  uses_evictor_ = pages_per_large_ > 1;
  larges_.resize(static_cast<size_t>(lcm_->num_pages()));
}

SmallPageAllocator::SlotMeta& SmallPageAllocator::Meta(SmallPageId page) {
  const LargePageId large = LargeOf(page);
  JENGA_CHECK(page >= 0 && IsResident(large))
      << "page " << page << " not resident in group " << group_index_;
  return larges_[static_cast<size_t>(large)].slots[static_cast<size_t>(SlotOf(page))];
}

const SmallPageAllocator::SlotMeta& SmallPageAllocator::Meta(SmallPageId page) const {
  const LargePageId large = LargeOf(page);
  JENGA_CHECK(page >= 0 && IsResident(large))
      << "page " << page << " not resident in group " << group_index_;
  return larges_[static_cast<size_t>(large)].slots[static_cast<size_t>(SlotOf(page))];
}

SmallPageAllocator::LargeEntry& SmallPageAllocator::Entry(LargePageId large) {
  JENGA_CHECK(IsResident(large))
      << "large page " << large << " not resident in group " << group_index_;
  return larges_[static_cast<size_t>(large)];
}

const SmallPageAllocator::LargeEntry& SmallPageAllocator::Entry(LargePageId large) const {
  JENGA_CHECK(IsResident(large))
      << "large page " << large << " not resident in group " << group_index_;
  return larges_[static_cast<size_t>(large)];
}

bool SmallPageAllocator::IsValidEmpty(const FreeRef& ref) const {
  const LargePageId large = LargeOf(ref.page);
  if (!IsResident(large)) {
    return false;
  }
  const SlotMeta& meta =
      larges_[static_cast<size_t>(large)].slots[static_cast<size_t>(SlotOf(ref.page))];
  return meta.state == PageState::kEmpty && meta.epoch == ref.epoch;
}

std::optional<SmallPageId> SmallPageAllocator::PopRequestFree(RequestId request) {
  std::vector<FreeRef>* refs_ptr = refs_cache_;
  if (request != refs_cache_key_ || refs_ptr == nullptr) {
    const auto it = empty_by_request_.find(request);
    if (it == empty_by_request_.end()) {
      return std::nullopt;
    }
    refs_cache_key_ = request;
    refs_cache_ = &it->second;
    refs_ptr = refs_cache_;
  }
  std::vector<FreeRef>& refs = *refs_ptr;
  while (!refs.empty()) {
    const FreeRef ref = refs.back();
    refs.pop_back();
    by_request_refs_ -= 1;
    if (IsValidEmpty(ref)) {
      return ref.page;
    }
  }
  // The drained list stays (and so does the cache over it): the request's next large page
  // refills it in place instead of re-inserting an entry and regrowing its storage. It goes
  // when the request retires (ForgetRequest) or a compaction sweep finds it empty.
  return std::nullopt;
}

std::optional<SmallPageId> SmallPageAllocator::PopAnyFree() {
  while (!empty_any_.empty()) {
    const FreeRef ref = empty_any_.back();
    empty_any_.pop_back();
    if (IsValidEmpty(ref)) {
      return ref.page;
    }
  }
  return std::nullopt;
}

void SmallPageAllocator::MaybeCompactFreeLists() {
  // Stale refs (epoch moved on) accumulate as pages are claimed through the *other* list.
  // Once a list outgrows twice the live empty-page population, sweep it in place: erase_if
  // keeps the relative order of surviving refs, so pops (taken from the back) see exactly
  // the sequence they would have seen anyway. Amortized O(1) per push.
  const auto stale = [this](const FreeRef& ref) { return !IsValidEmpty(ref); };
  if (empty_any_.size() > kFreeListCompactFloor &&
      empty_any_.size() > 2 * static_cast<size_t>(empty_count_)) {
    std::erase_if(empty_any_, stale);
  }
  if (static_cast<size_t>(by_request_refs_) > kFreeListCompactFloor &&
      by_request_refs_ > 2 * empty_count_) {
    by_request_refs_ = 0;
    // The sweep erases arbitrary entries; drop the association cache wholesale.
    refs_cache_key_ = kNoRequest;
    refs_cache_ = nullptr;
    for (auto it = empty_by_request_.begin(); it != empty_by_request_.end();) {
      std::erase_if(it->second, stale);
      if (it->second.empty()) {
        it = empty_by_request_.erase(it);
      } else {
        by_request_refs_ += static_cast<int64_t>(it->second.size());
        ++it;
      }
    }
  }
}

void SmallPageAllocator::ClaimEmpty(SmallPageId page, RequestId request, Tick now) {
  const LargePageId large = LargeOf(page);
  LargeEntry& entry = Entry(large);
  SlotMeta& meta = entry.slots[static_cast<size_t>(SlotOf(page))];
  JENGA_CHECK(meta.state == PageState::kEmpty);
  JENGA_CHECK(!meta.has_hash);
  meta.state = PageState::kUsed;
  meta.assoc = request;
  meta.ref_count = 1;
  meta.last_access = now;
  meta.prefix_length = 0;
  meta.epoch = next_epoch_++;
  entry.used_count += 1;
  empty_count_ -= 1;
  used_count_ += 1;
  JENGA_AUDIT_HOOK(audit_, OnPageClaimed(group_index_, page, request));
}

std::optional<SmallPageId> SmallPageAllocator::Allocate(RequestId request, Tick now) {
  // Step 1: an empty page already associated with this request (§4.3).
  if (const auto page = PopRequestFree(request)) {
    ClaimEmpty(*page, request, now);
    return page;
  }

  // Steps 2–3: a fresh large page; the provider evicts an evictable large page if the free
  // list is exhausted. All its small pages become associated with this request.
  if (const auto large = provider_->AcquireLargePage(group_index_)) {
    LargeEntry& entry = larges_[static_cast<size_t>(*large)];
    JENGA_CHECK(!entry.resident) << "large page " << *large << " already held";
    entry.resident = true;
    entry.used_count = 0;
    entry.evictable_count = 0;
    entry.slots.assign(static_cast<size_t>(pages_per_large_), SlotMeta{});
    for (SlotMeta& slot : entry.slots) {
      slot.assoc = request;
      slot.epoch = next_epoch_++;
    }
    resident_larges_ += 1;
    empty_count_ += pages_per_large_;
    JENGA_AUDIT_HOOK(audit_, OnLargeAcquired(group_index_, *large, request));
    const SmallPageId base = static_cast<SmallPageId>(*large) * pages_per_large_;
    // A one-slot large page leaves no empty slots behind: skip the affinity entry and the
    // free-list upkeep altogether.
    if (pages_per_large_ == 1) {
      ClaimEmpty(base, request, now);
      return base;
    }
    std::vector<FreeRef>& request_refs = RefsFor(request);
    for (int slot = 1; slot < pages_per_large_; ++slot) {
      const FreeRef ref{base + slot, entry.slots[static_cast<size_t>(slot)].epoch};
      request_refs.push_back(ref);
      empty_any_.push_back(ref);
    }
    by_request_refs_ += pages_per_large_ - 1;
    ClaimEmpty(base, request, now);
    MaybeCompactFreeLists();
    return base;
  }

  // Step 4: any empty page, regardless of association.
  if (const auto page = PopAnyFree()) {
    ClaimEmpty(*page, request, now);
    return page;
  }

  // Step 5: evict this group's LRU evictable page and reuse it in place (never in a one-slot
  // group, whose evictor is empty).
  if (const auto victim = evictor_.PopVictim()) {
    const LargePageId large = LargeOf(*victim);
    LargeEntry& entry = Entry(large);
    SlotMeta& meta = entry.slots[static_cast<size_t>(SlotOf(*victim))];
    JENGA_CHECK(meta.state == PageState::kEvictable);
    UnregisterHash(*victim, meta, /*evicted=*/true);
    JENGA_AUDIT_HOOK(audit_, OnPageEvicted(group_index_, *victim));
    meta.state = PageState::kUsed;
    meta.assoc = request;
    meta.ref_count = 1;
    meta.last_access = now;
    meta.prefix_length = 0;
    meta.epoch = next_epoch_++;
    entry.evictable_count -= 1;
    entry.used_count += 1;
    evictable_count_ -= 1;
    used_count_ += 1;
    JENGA_AUDIT_HOOK(audit_, OnPageClaimed(group_index_, *victim, request));
    return victim;
  }

  return std::nullopt;
}

bool SmallPageAllocator::AllocateN(RequestId request, int64_t n, Tick now,
                                   std::vector<SmallPageId>* out) {
  JENGA_CHECK(out != nullptr);
  JENGA_CHECK_GE(n, 0);
  const size_t base = out->size();
  // No reserve: an exact-size reserve would defeat the vector's geometric growth and copy the
  // whole block table on nearly every grow.
  for (int64_t i = 0; i < n; ++i) {
    // The five-step algorithm must re-run per page: a fresh large page acquired in step 2
    // refills the affinity free list that step 1 of the *next* page pops from, so batching
    // any step across pages would change placement. Allocate() is already O(1) per page;
    // the bulk win is the single rollback below.
    const auto page = Allocate(request, now);
    if (!page.has_value()) {
      for (size_t j = out->size(); j > base; --j) {
        Release((*out)[j - 1], /*keep_cached=*/false);
      }
      out->resize(base);
      return false;
    }
    out->push_back(*page);
  }
  if (n > 0) {
    JENGA_AUDIT_HOOK(audit_, OnBulkAllocate(group_index_, request, n));
  }
  return true;
}

void SmallPageAllocator::AddRef(SmallPageId page) {
  const LargePageId large = LargeOf(page);
  LargeEntry& entry = Entry(large);
  SlotMeta& meta = entry.slots[static_cast<size_t>(SlotOf(page))];
  switch (meta.state) {
    case PageState::kUsed:
      meta.ref_count += 1;
      break;
    case PageState::kEvictable:
      if (uses_evictor_) {
        evictor_.Remove(page);
      }
      meta.state = PageState::kUsed;
      meta.ref_count = 1;
      meta.epoch = next_epoch_++;
      entry.evictable_count -= 1;
      entry.used_count += 1;
      evictable_count_ -= 1;
      used_count_ += 1;
      JENGA_AUDIT_HOOK(audit_, OnPageRevived(group_index_, page));
      break;
    case PageState::kEmpty:
      JENGA_CHECK(false) << "AddRef on empty page " << page;
  }
}

void SmallPageAllocator::UnregisterHash(SmallPageId page, SlotMeta& meta, bool evicted) {
  if (meta.has_hash) {
    // Only an index entry is announced: a page whose hash another resident copy holds offers
    // nothing a future hit could use, so its loss is no event.
    if (cache_index_.Erase(meta.hash, page)) {
      const CacheEviction eviction{spec_.page_bytes, meta.prefix_length, meta.last_access};
      JENGA_AUDIT_HOOK(audit_, OnHashUnindexed(group_index_, meta.hash,
                                               evicted ? &eviction : nullptr));
    }
    meta.has_hash = false;
    meta.hash = 0;
  }
}

void SmallPageAllocator::ReleaseLarge(LargePageId large, LargeEntry& entry) {
  entry.resident = false;
  entry.used_count = 0;
  entry.evictable_count = 0;
  resident_larges_ -= 1;
  lcm_->Free(large);
  JENGA_AUDIT_HOOK(audit_, OnLargeReleased(group_index_, large));
}

void SmallPageAllocator::TransitionToEmpty(SmallPageId page) {
  const LargePageId large = LargeOf(page);
  LargeEntry& entry = Entry(large);
  SlotMeta& meta = entry.slots[static_cast<size_t>(SlotOf(page))];
  JENGA_CHECK(meta.state != PageState::kEmpty);
  UnregisterHash(page, meta);
  if (meta.state == PageState::kUsed) {
    entry.used_count -= 1;
    used_count_ -= 1;
  } else {
    if (uses_evictor_) {
      evictor_.Remove(page);
    }
    entry.evictable_count -= 1;
    evictable_count_ -= 1;
  }
  meta.state = PageState::kEmpty;
  meta.ref_count = 0;
  meta.epoch = next_epoch_++;
  empty_count_ += 1;
  JENGA_AUDIT_HOOK(audit_, OnPageEmptied(group_index_, page));

  if (entry.used_count == 0 && entry.evictable_count == 0) {
    // The whole large page is empty: return it to the LCM allocator (§4.1). Stale FreeRefs to
    // its slots are filtered lazily by epoch/residency checks.
    empty_count_ -= pages_per_large_;
    ReleaseLarge(large, entry);
    return;
  }

  const FreeRef ref{page, meta.epoch};
  RefsFor(meta.assoc).push_back(ref);
  by_request_refs_ += 1;
  empty_any_.push_back(ref);
  NotifyCandidateIfEligible(large);
  MaybeCompactFreeLists();
}

void SmallPageAllocator::Release(SmallPageId page, bool keep_cached) {
  const LargePageId large = LargeOf(page);
  LargeEntry& entry = Entry(large);
  SlotMeta& meta = entry.slots[static_cast<size_t>(SlotOf(page))];
  JENGA_CHECK(meta.state == PageState::kUsed) << "Release on non-used page " << page;
  JENGA_CHECK_GT(meta.ref_count, 0);
  meta.ref_count -= 1;
  if (meta.ref_count > 0) {
    return;
  }

  bool cacheable = keep_cached && meta.has_hash;
  if (cacheable) {
    // Index the content if no other resident page holds it; duplicates are not worth keeping.
    const auto [indexed, inserted] = cache_index_.Emplace(meta.hash, page);
    cacheable = indexed == page;
    if (inserted) {
      JENGA_AUDIT_HOOK(audit_, OnHashIndexed(group_index_, meta.hash));
    }
  }

  if (!cacheable) {
    TransitionToEmpty(page);
    return;
  }

  meta.state = PageState::kEvictable;
  meta.epoch = next_epoch_++;
  entry.used_count -= 1;
  entry.evictable_count += 1;
  used_count_ -= 1;
  evictable_count_ += 1;
  JENGA_AUDIT_HOOK(audit_, OnPageCached(group_index_, page, meta.hash));
  if (uses_evictor_) {
    evictor_.Insert(page, meta.last_access, meta.prefix_length);
  }
  NotifyCandidateIfEligible(large);
}

void SmallPageAllocator::SetContentHash(SmallPageId page, BlockHash hash) {
  SlotMeta& meta = Meta(page);
  JENGA_CHECK(meta.state == PageState::kUsed) << "SetContentHash on non-used page";
  if (meta.has_hash) {
    // Recomputed block (e.g. preempted request resumed with different content boundary).
    UnregisterHash(page, meta);
  }
  meta.has_hash = true;
  meta.hash = hash;
  // Keeps an existing mapping if one is resident (in which case the index is unchanged and
  // no event fires).
  if (cache_index_.Emplace(hash, page).second) {
    JENGA_AUDIT_HOOK(audit_, OnHashIndexed(group_index_, hash));
  }
}

std::optional<SmallPageId> SmallPageAllocator::LookupCached(BlockHash hash) const {
  const SmallPageId page = cache_index_.Find(hash);
  if (page == kNoSmallPage) {
    return std::nullopt;
  }
  return page;
}

void SmallPageAllocator::UpdateLastAccess(SmallPageId page, Tick now) {
  SlotMeta& meta = Meta(page);
  meta.last_access = std::max(meta.last_access, now);
  if (uses_evictor_ && meta.state == PageState::kEvictable) {
    evictor_.UpdateLastAccess(page, meta.last_access);
  }
}

void SmallPageAllocator::SetPrefixLength(SmallPageId page, int64_t prefix_length) {
  SlotMeta& meta = Meta(page);
  meta.prefix_length = prefix_length;
  if (uses_evictor_ && meta.state == PageState::kEvictable) {
    evictor_.SetPrefixLength(page, prefix_length);
  }
}

void SmallPageAllocator::ForgetRequest(RequestId request) {
  const auto it = empty_by_request_.find(request);
  if (it == empty_by_request_.end()) {
    return;
  }
  by_request_refs_ -= static_cast<int64_t>(it->second.size());
  InvalidateRefsCacheFor(request);
  empty_by_request_.erase(it);
  JENGA_AUDIT_HOOK(audit_, OnRequestForgotten(group_index_, request));
}

void SmallPageAllocator::NotifyCandidateIfEligible(LargePageId large) {
  const LargeEntry& entry = Entry(large);
  if (entry.used_count == 0 && entry.evictable_count > 0) {
    provider_->OnReclaimCandidate(group_index_, large, ReclaimTimestamp(large));
  }
}

bool SmallPageAllocator::IsReclaimCandidate(LargePageId large) const {
  if (!IsResident(large)) {
    return false;
  }
  const LargeEntry& entry = larges_[static_cast<size_t>(large)];
  return entry.used_count == 0 && entry.evictable_count > 0;
}

Tick SmallPageAllocator::ReclaimTimestamp(LargePageId large) const {
  const LargeEntry& entry = Entry(large);
  Tick timestamp = 0;
  for (const SlotMeta& slot : entry.slots) {
    if (slot.state == PageState::kEvictable) {
      timestamp = std::max(timestamp, slot.last_access);
    }
  }
  return timestamp;
}

void SmallPageAllocator::OnPoolResized(int32_t new_num_larges) {
  JENGA_CHECK_GE(new_num_larges, 0);
  for (size_t large = static_cast<size_t>(new_num_larges); large < larges_.size(); ++large) {
    JENGA_CHECK(!larges_[large].resident)
        << "pool shrink over group " << group_index_ << "'s resident large page " << large;
  }
  larges_.resize(static_cast<size_t>(new_num_larges));
}

void SmallPageAllocator::ReclaimLargePage(LargePageId large) {
  LargeEntry& entry = Entry(large);
  JENGA_CHECK_EQ(entry.used_count, 0) << "reclaiming large page with used slots";
  const SmallPageId base = static_cast<SmallPageId>(large) * pages_per_large_;
  for (int slot = 0; slot < pages_per_large_; ++slot) {
    SlotMeta& meta = entry.slots[static_cast<size_t>(slot)];
    const SmallPageId page = base + slot;
    if (meta.state == PageState::kEvictable) {
      if (uses_evictor_) {
        evictor_.Remove(page);
      }
      UnregisterHash(page, meta, /*evicted=*/true);
      JENGA_AUDIT_HOOK(audit_, OnPageEvicted(group_index_, page));
      evictable_count_ -= 1;
    } else {
      empty_count_ -= 1;
    }
  }
  ReleaseLarge(large, entry);
}

PageState SmallPageAllocator::state(SmallPageId page) const { return Meta(page).state; }
RequestId SmallPageAllocator::assoc(SmallPageId page) const { return Meta(page).assoc; }
Tick SmallPageAllocator::last_access(SmallPageId page) const { return Meta(page).last_access; }
int64_t SmallPageAllocator::prefix_length(SmallPageId page) const {
  return Meta(page).prefix_length;
}
int SmallPageAllocator::ref_count(SmallPageId page) const { return Meta(page).ref_count; }

SmallPageAllocator::Stats SmallPageAllocator::GetStats() const {
  Stats stats;
  stats.large_pages_held = resident_larges_;
  stats.used_pages = used_count_;
  stats.evictable_pages = evictable_count_;
  stats.empty_pages = empty_count_;
  stats.used_bytes = used_count_ * spec_.page_bytes;
  stats.evictable_bytes = evictable_count_ * spec_.page_bytes;
  stats.empty_bytes = empty_count_ * spec_.page_bytes;
  return stats;
}

SmallPageAllocator::FreeListStats SmallPageAllocator::GetFreeListStats() const {
  FreeListStats stats;
  stats.any_refs = static_cast<int64_t>(empty_any_.size());
  stats.by_request_refs = by_request_refs_;
  stats.tracked_requests = static_cast<int64_t>(empty_by_request_.size());
  return stats;
}

void SmallPageAllocator::CheckConsistency() const {
  int64_t resident = 0;
  int64_t used = 0;
  int64_t evictable = 0;
  int64_t empty = 0;
  for (size_t index = 0; index < larges_.size(); ++index) {
    const LargeEntry& entry = larges_[index];
    if (!entry.resident) {
      continue;
    }
    const LargePageId large = static_cast<LargePageId>(index);
    JENGA_CHECK_EQ(lcm_->owner(large), group_index_);
    JENGA_CHECK_EQ(static_cast<int>(entry.slots.size()), pages_per_large_);
    ++resident;
    int32_t entry_used = 0;
    int32_t entry_evictable = 0;
    const SmallPageId base = static_cast<SmallPageId>(large) * pages_per_large_;
    for (int slot = 0; slot < pages_per_large_; ++slot) {
      const SlotMeta& meta = entry.slots[static_cast<size_t>(slot)];
      const SmallPageId page = base + slot;
      switch (meta.state) {
        case PageState::kUsed:
          JENGA_CHECK_GT(meta.ref_count, 0);
          JENGA_CHECK(!evictor_.Contains(page));
          ++entry_used;
          break;
        case PageState::kEvictable:
          JENGA_CHECK_EQ(meta.ref_count, 0);
          JENGA_CHECK_EQ(evictor_.Contains(page), uses_evictor_);
          JENGA_CHECK(meta.has_hash);
          ++entry_evictable;
          break;
        case PageState::kEmpty:
          JENGA_CHECK_EQ(meta.ref_count, 0);
          JENGA_CHECK(!meta.has_hash);
          JENGA_CHECK(!evictor_.Contains(page));
          break;
      }
    }
    JENGA_CHECK_EQ(entry_used, entry.used_count);
    JENGA_CHECK_EQ(entry_evictable, entry.evictable_count);
    JENGA_CHECK(entry_used + entry_evictable > 0) << "fully-empty large page not returned";
    used += entry_used;
    evictable += entry_evictable;
    empty += entry.empty_count();
  }
  JENGA_CHECK_EQ(resident, resident_larges_);
  JENGA_CHECK_EQ(used, used_count_);
  JENGA_CHECK_EQ(evictable, evictable_count_);
  JENGA_CHECK_EQ(empty, empty_count_);
  JENGA_CHECK_EQ(uses_evictor_ ? evictable : 0, static_cast<int64_t>(evictor_.size()));
  int64_t by_request = 0;
  for (const auto& [request, refs] : empty_by_request_) {
    by_request += static_cast<int64_t>(refs.size());
  }
  JENGA_CHECK_EQ(by_request, by_request_refs_);
  cache_index_.ForEach([this](BlockHash hash, SmallPageId page) {
    JENGA_CHECK(IsResident(LargeOf(page))) << "cache index points at non-resident page";
    const SlotMeta& meta = Meta(page);
    JENGA_CHECK(meta.state != PageState::kEmpty);
    JENGA_CHECK(meta.has_hash);
    JENGA_CHECK_EQ(meta.hash, hash);
  });
}

}  // namespace jenga

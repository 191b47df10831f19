#include "src/core/small_page_allocator.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"

namespace jenga {

namespace {
// Free lists below this size are never compacted; avoids churn on tiny pools.
constexpr size_t kFreeListCompactFloor = 64;

int PagesPerLarge(const LcmAllocator* lcm, const KvGroupSpec& spec) {
  JENGA_CHECK(lcm != nullptr);
  JENGA_CHECK_GT(spec.page_bytes, 0);
  JENGA_CHECK_EQ(lcm->large_page_bytes() % spec.page_bytes, 0)
      << "group page size must divide the LCM page size";
  return static_cast<int>(lcm->large_page_bytes() / spec.page_bytes);
}
}  // namespace

PageDivider::PageDivider(int pages_per_large) : pages_per_large_(pages_per_large) {
  JENGA_CHECK_GT(pages_per_large, 0);
  const auto divisor = static_cast<uint64_t>(pages_per_large);
  shift_ = 31 + static_cast<int>(std::bit_width(divisor));
  const uint64_t one = uint64_t{1} << shift_;
  magic_ = (one + divisor - 1) / divisor;
  const uint64_t excess = magic_ * divisor - one;
  const uint64_t exact = excess == 0 ? one : (one - 1) / excess + 1;
  limit_ = std::min({exact, uint64_t{1} << 32, divisor << 31});
}

SmallPageAllocator::SmallPageAllocator(int group_index, KvGroupSpec spec, LcmAllocator* lcm,
                                       LargePageProvider* provider)
    : group_index_(group_index),
      spec_(std::move(spec)),
      lcm_(lcm),
      provider_(provider),
      pages_per_large_(PagesPerLarge(lcm, spec_)),
      uses_evictor_(pages_per_large_ > 1),
      divider_(pages_per_large_) {
  JENGA_CHECK(provider_ != nullptr);
  ResizeSlab(lcm_->num_pages());
}

void SmallPageAllocator::ResizeSlab(int32_t num_larges) {
  JENGA_CHECK_GE(num_larges, 0);
  const auto pages = static_cast<uint64_t>(num_larges) * static_cast<uint64_t>(pages_per_large_);
  JENGA_CHECK_LE(pages, divider_.limit())
      << "group " << group_index_ << ": " << num_larges << " large pages of "
      << pages_per_large_ << " pages overflow the page ids the divider maps exactly";
  if (pages > slab_capacity_) {
    // Uninitialized, so memory is committed only as large pages are acquired (or copied
    // here). Capacity grows geometrically and never shrinks, so a governor's run of small
    // resizes copies O(pool) in total.
    const uint64_t capacity = std::max(pages, 2 * slab_capacity_);
    auto slab = std::make_unique_for_overwrite<SlotMeta[]>(static_cast<size_t>(capacity));
    const size_t kept = std::min(larges_.size(), static_cast<size_t>(num_larges));
    const auto ppl = static_cast<size_t>(pages_per_large_);
    for (size_t large = 0; large < kept; ++large) {
      if (larges_[large].resident) {
        std::copy_n(&slab_[large * ppl], ppl, &slab[large * ppl]);
      }
    }
    slab_ = std::move(slab);
    slab_capacity_ = capacity;
  }
  larges_.resize(static_cast<size_t>(num_larges));
  num_pages_ = pages;
}

SmallPageAllocator::SlotMeta& SmallPageAllocator::Meta(SmallPageId page) {
  JENGA_CHECK(IsResidentPage(page)) << "page " << page << " not resident in group "
                                    << group_index_;
  return slab_[static_cast<size_t>(page)];
}

const SmallPageAllocator::SlotMeta& SmallPageAllocator::Meta(SmallPageId page) const {
  JENGA_CHECK(IsResidentPage(page)) << "page " << page << " not resident in group "
                                    << group_index_;
  return slab_[static_cast<size_t>(page)];
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
  if (!IsResidentPage(ref.page)) {
    return false;
  }
  const SlotMeta& meta = slab_[static_cast<size_t>(ref.page)];
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
  SlotMeta& meta = Meta(page);
  LargeEntry& entry = larges_[static_cast<size_t>(LargeOf(page))];
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

template <typename Emit>
int64_t SmallPageAllocator::ClaimPass(RequestId request, int64_t run, Tick now, Emit emit) {
  // Steps 1 and 4 pop only when some page is empty: every empty page has a valid ref in the
  // any-list, so without one both pops would only drop stale refs, which compaction drops too.
  // Step 1: an empty page already associated with this request (§4.3).
  if (empty_count_ > 0) {
    if (const auto page = PopRequestFree(request)) {
      ClaimEmpty(*page, request, now);
      emit(*page);
      return 1;
    }
  }

  // Steps 2–3: a fresh large page; the provider evicts an evictable large page if the free
  // list is exhausted. All its small pages become associated with this request.
  if (const auto large = provider_->AcquireLargePage(group_index_)) {
    LargeEntry& entry = larges_[static_cast<size_t>(*large)];
    JENGA_CHECK(!entry.resident) << "large page " << *large << " already held";
    entry = LargeEntry{.resident = true};
    const SmallPageId base = static_cast<SmallPageId>(*large) * pages_per_large_;
    SlotMeta* const slots = &slab_[static_cast<size_t>(base)];
    for (int slot = 0; slot < pages_per_large_; ++slot) {
      slots[slot] = SlotMeta{.state = PageState::kEmpty,
                             .assoc = request,
                             .ref_count = 0,
                             .last_access = 0,
                             .prefix_length = 0,
                             .epoch = next_epoch_++,
                             .has_hash = false,
                             .indexed = false,
                             .hash = 0};
    }
    resident_larges_ += 1;
    empty_count_ += pages_per_large_;
    JENGA_AUDIT_HOOK(audit_, OnLargeAcquired(group_index_, *large, request));
    // A one-slot large page leaves no empty slots behind: skip the affinity entry and the
    // free-list upkeep altogether.
    if (pages_per_large_ == 1) {
      ClaimEmpty(base, request, now);
      emit(base);
      return 1;
    }
    // Page by page, slots 1…n−1 would be pushed onto both lists here. Step 2 ran because the
    // request's own list held no valid ref, so the run's next step-1 pops would return those
    // slots in descending order: push only the slots the run leaves over (1…left), and claim
    // slot 0 and then n−1, n−2, … directly.
    const int tail = static_cast<int>(std::min<int64_t>(run - 1, pages_per_large_ - 1));
    const int left = pages_per_large_ - 1 - tail;
    std::vector<FreeRef>& request_refs = RefsFor(request);
    for (int slot = 1; slot <= left; ++slot) {
      const FreeRef ref{base + slot, slots[slot].epoch};
      request_refs.push_back(ref);
      empty_any_.push_back(ref);
    }
    by_request_refs_ += left;
    ClaimEmpty(base, request, now);
    emit(base);
    for (int slot = pages_per_large_ - 1; slot > left; --slot) {
      ClaimEmpty(base + slot, request, now);
      emit(base + slot);
    }
    if (left > 0) {
      MaybeCompactFreeLists();
    }
    return 1 + tail;
  }

  // Step 4: any empty page, regardless of association.
  if (empty_count_ > 0) {
    if (const auto page = PopAnyFree()) {
      ClaimEmpty(*page, request, now);
      emit(*page);
      return 1;
    }
  }

  // Step 5: evict this group's LRU evictable page and reuse it in place (never in a one-slot
  // group, whose evictor is empty).
  if (const auto victim = evictor_.PopVictim()) {
    SlotMeta& meta = Meta(*victim);
    LargeEntry& entry = larges_[static_cast<size_t>(LargeOf(*victim))];
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
    emit(*victim);
    return 1;
  }

  return 0;
}

std::optional<SmallPageId> SmallPageAllocator::Allocate(RequestId request, Tick now) {
  SmallPageId page = kNoSmallPage;
  if (ClaimPass(request, /*run=*/1, now, [&page](SmallPageId claimed) { page = claimed; }) == 0) {
    return std::nullopt;
  }
  return page;
}

bool SmallPageAllocator::AllocateN(RequestId request, int64_t n, Tick now,
                                   std::vector<SmallPageId>* out) {
  JENGA_CHECK(out != nullptr);
  JENGA_CHECK_GE(n, 0);
  const size_t base = out->size();
  // No reserve: an exact-size reserve would defeat the vector's geometric growth and copy the
  // whole block table on nearly every grow.
  const auto append = [out](SmallPageId page) { out->push_back(page); };
  // The five-step algorithm re-runs per pass: a step-1 or step-4 pop can change what the next
  // pop sees, and a step-5 victim or a step-3 reclaim changes the next victim. Only a fresh
  // large page's run is batched (see ClaimPass), which the per-page loop would claim in
  // exactly that order.
  for (int64_t left = n; left > 0;) {
    const int64_t claimed = ClaimPass(request, left, now, append);
    if (claimed == 0) {
      // Newest first, as the per-page loop would undo its claims.
      std::reverse(out->begin() + static_cast<std::ptrdiff_t>(base), out->end());
      ReleaseN(std::span<const SmallPageId>(*out).subspan(base), /*keep_cached=*/false);
      out->resize(base);
      return false;
    }
    left -= claimed;
  }
  if (n > 0) {
    JENGA_AUDIT_HOOK(audit_, OnBulkAllocate(group_index_, request, n));
  }
  return true;
}

void SmallPageAllocator::AddRef(SmallPageId page) {
  SlotMeta& meta = Meta(page);
  LargeEntry& entry = larges_[static_cast<size_t>(LargeOf(page))];
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
  if (!meta.has_hash) {
    return;
  }
  // Only an index entry is announced: a page whose hash another resident copy holds offers
  // nothing a future hit could use, so its loss is no event (and costs no probe).
  if (meta.indexed) {
    const bool erased = cache_index_.Erase(meta.hash, page);
    JENGA_CHECK(erased) << "page " << page << " owned no index entry";
    const CacheEviction eviction{spec_.page_bytes, meta.prefix_length, meta.last_access};
    JENGA_AUDIT_HOOK(audit_,
                     OnHashUnindexed(group_index_, meta.hash, evicted ? &eviction : nullptr));
  }
  meta.has_hash = false;
  meta.indexed = false;
  meta.hash = 0;
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
  SlotMeta& meta = Meta(page);
  const LargePageId large = LargeOf(page);
  LargeEntry& entry = larges_[static_cast<size_t>(large)];
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
    // The whole large page is empty: return it to the LCM allocator (§4.1). Its slots' refs at
    // the list tails go now; any others are filtered lazily by epoch/residency checks.
    empty_count_ -= pages_per_large_;
    ReleaseLarge(large, entry);
    DropStaleTails(large, meta.assoc);
    return;
  }

  released_refs_.push_back(ReleasedRef{large, SlotOf(page), meta.epoch});
  NotifyCandidateIfEligible(large);
}

void SmallPageAllocator::DropStaleTails(LargePageId large, RequestId request) {
  const SmallPageId base = static_cast<SmallPageId>(large) * pages_per_large_;
  const auto into_large = [base, this](const FreeRef& ref) {
    return ref.page >= base && ref.page < base + pages_per_large_;
  };
  while (!empty_any_.empty() && into_large(empty_any_.back())) {
    empty_any_.pop_back();
  }
  std::vector<FreeRef>* refs = request == refs_cache_key_ ? refs_cache_ : nullptr;
  if (refs == nullptr) {
    const auto it = empty_by_request_.find(request);
    refs = it == empty_by_request_.end() ? nullptr : &it->second;
  }
  while (refs != nullptr && !refs->empty() && into_large(refs->back())) {
    refs->pop_back();
    by_request_refs_ -= 1;
  }
}

void SmallPageAllocator::ReleaseN(std::span<const SmallPageId> pages, bool keep_cached,
                                  Tick touch_tick, int64_t touched) {
  for (size_t i = 0; i < pages.size(); ++i) {
    const SmallPageId page = pages[i];
    if (page == kNoSmallPage) {
      continue;
    }
    SlotMeta& meta = Meta(page);
    const LargePageId large = LargeOf(page);
    LargeEntry& entry = larges_[static_cast<size_t>(large)];
    JENGA_CHECK(meta.state == PageState::kUsed) << "Release on non-used page " << page;
    JENGA_CHECK_GT(meta.ref_count, 0);
    if (static_cast<int64_t>(i) < touched) {
      // UpdateLastAccess on a used page, which has no evictor key to rekey.
      meta.last_access = std::max(meta.last_access, touch_tick);
    }
    meta.ref_count -= 1;
    if (meta.ref_count > 0) {
      continue;
    }

    if (keep_cached && meta.has_hash && !meta.indexed) {
      // Index the content if no other resident page holds it; duplicates are not worth
      // keeping. An owner already holds its entry and skips the probe.
      meta.indexed = cache_index_.Emplace(meta.hash, page).second;
      if (meta.indexed) {
        JENGA_AUDIT_HOOK(audit_, OnHashIndexed(group_index_, meta.hash));
      }
    }
    const bool cacheable = keep_cached && meta.indexed;

    if (!cacheable) {
      TransitionToEmpty(page);
      continue;
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

  // Nothing claims or acquires during a release, so a buffered ref goes stale only when its
  // large page went back to the LCM whole later in the same release; the per-page loop's
  // pops would skip it anyway.
  FlushReleasedRefs();
}

void SmallPageAllocator::FlushReleasedRefs() {
  if (released_refs_.empty()) {
    return;
  }
  int64_t flushed = 0;
  for (const ReleasedRef& released : released_refs_) {
    if (!larges_[static_cast<size_t>(released.large)].resident) {
      continue;
    }
    const FreeRef ref{static_cast<SmallPageId>(released.large) * pages_per_large_ + released.slot,
                      released.epoch};
    RefsFor(slab_[static_cast<size_t>(ref.page)].assoc).push_back(ref);
    empty_any_.push_back(ref);
    flushed += 1;
  }
  released_refs_.clear();
  if (flushed > 0) {
    by_request_refs_ += flushed;
    MaybeCompactFreeLists();
  }
}

int64_t SmallPageAllocator::AffinityEmpties(RequestId request, int64_t cap) const {
  if (cap <= 0) {
    return 0;
  }
  const auto it = empty_by_request_.find(request);
  if (it == empty_by_request_.end()) {
    return 0;
  }
  int64_t count = 0;
  for (auto ref = it->second.rbegin(); ref != it->second.rend() && count < cap; ++ref) {
    count += IsValidEmpty(*ref) ? 1 : 0;
  }
  return count;
}

void SmallPageAllocator::SettleFailedClaim(RequestId request, int64_t own, int64_t any,
                                           Tick now) {
  JENGA_CHECK(released_refs_.empty());
  for (int64_t i = 0; i < own + any; ++i) {
    const std::optional<SmallPageId> page = i < own ? PopRequestFree(request) : PopAnyFree();
    JENGA_CHECK(page.has_value()) << "group " << group_index_ << " has no empty page for step "
                                  << (i < own ? 1 : 4) << " of a settled claim walk";
    // A claim's new epoch: the page's ref in the other list goes stale, as ClaimEmpty leaves it.
    Meta(*page).epoch = next_epoch_++;
    released_refs_.push_back(ReleasedRef{LargeOf(*page), SlotOf(*page), 0});
  }
  // The rollback releases the claims newest first.
  std::reverse(released_refs_.begin(), released_refs_.end());
  for (ReleasedRef& released : released_refs_) {
    const SmallPageId page =
        static_cast<SmallPageId>(released.large) * pages_per_large_ + released.slot;
    SlotMeta& meta = slab_[static_cast<size_t>(page)];
    meta.assoc = request;
    meta.last_access = now;
    meta.prefix_length = 0;
    meta.epoch = next_epoch_++;
    released.epoch = meta.epoch;
    JENGA_AUDIT_HOOK(audit_, OnPageClaimed(group_index_, page, request));
    JENGA_AUDIT_HOOK(audit_, OnPageEmptied(group_index_, page));
  }
  FlushReleasedRefs();
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
  // Keeps an existing mapping if one is resident (in which case the index is unchanged, no
  // event fires and this page is a non-owning duplicate).
  meta.indexed = cache_index_.Emplace(hash, page).second;
  if (meta.indexed) {
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
  // Only a list that still names an empty page is announced. Whether a list of stale refs is
  // still around depends on when the lazy compaction last swept, which no observer should see.
  const bool announce =
      audit_ != nullptr && std::any_of(it->second.rbegin(), it->second.rend(),
                                       [this](const FreeRef& ref) { return IsValidEmpty(ref); });
  by_request_refs_ -= static_cast<int64_t>(it->second.size());
  InvalidateRefsCacheFor(request);
  empty_by_request_.erase(it);
  if (announce) {
    JENGA_AUDIT_HOOK(audit_, OnRequestForgotten(group_index_, request));
  }
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
  (void)Entry(large);  // Checks residency: only a held large page's slots are initialized.
  const SlotMeta* const slots =
      &slab_[static_cast<size_t>(static_cast<SmallPageId>(large) * pages_per_large_)];
  Tick timestamp = 0;
  for (int slot = 0; slot < pages_per_large_; ++slot) {
    if (slots[slot].state == PageState::kEvictable) {
      timestamp = std::max(timestamp, slots[slot].last_access);
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
  ResizeSlab(new_num_larges);
}

void SmallPageAllocator::ReclaimLargePage(LargePageId large) {
  LargeEntry& entry = Entry(large);
  JENGA_CHECK_EQ(entry.used_count, 0) << "reclaiming large page with used slots";
  const SmallPageId base = static_cast<SmallPageId>(large) * pages_per_large_;
  SlotMeta* const slots = &slab_[static_cast<size_t>(base)];
  if (pages_per_large_ > 1) {
    // The erases below probe scattered index slots one after another; start every load first.
    for (int slot = 0; slot < pages_per_large_; ++slot) {
      if (slots[slot].indexed) {
        cache_index_.Prefetch(slots[slot].hash);
      }
    }
  }
  for (int slot = 0; slot < pages_per_large_; ++slot) {
    SlotMeta& meta = slots[slot];
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

}  // namespace jenga

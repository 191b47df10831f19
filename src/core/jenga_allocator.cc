#include "src/core/jenga_allocator.h"

#include <algorithm>
#include <functional>

#include "src/common/check.h"

namespace jenga {

JengaAllocator::JengaAllocator(KvSpec spec, int64_t pool_bytes)
    : spec_(std::move(spec)), lcm_(pool_bytes, spec_.LcmPageBytes()) {
  groups_.reserve(spec_.groups.size());
  for (size_t i = 0; i < spec_.groups.size(); ++i) {
    groups_.push_back(std::make_unique<SmallPageAllocator>(static_cast<int>(i), spec_.groups[i],
                                                           &lcm_, this));
  }
  CheckReclaimIdsFit();
  reclaim_generation_.assign(static_cast<size_t>(lcm_.num_pages()), 0);
}

void JengaAllocator::CheckReclaimIdsFit() const {
  JENGA_CHECK_LE(groups_.size(), size_t{1} << kGroupBits) << "groups overflow the reclaim key";
  JENGA_CHECK_LE(static_cast<int64_t>(lcm_.num_pages()), int64_t{1} << kLargeBits)
      << "large page ids overflow the reclaim key";
}

void JengaAllocator::PlaceReclaim(Tick timestamp, int group, LargePageId large) {
  uint32_t& generation = reclaim_generation_[static_cast<size_t>(large)];
  if ((generation & 1) == 0) {
    reclaim_live_ += 1;
  }
  // Even → odd queues the page; odd → odd + 2 supersedes its live entry.
  generation = (generation + 1 + (generation & 1)) & kGenerationMask;
  const ReclaimEntry entry{timestamp, PackReclaimKey(group, large, generation)};
  const bool no_runs = reclaim_front_run_ == reclaim_runs_.size();
  if (no_runs || timestamp > reclaim_runs_.back().timestamp) {
    reclaim_runs_storage_.push_back(entry);
    reclaim_runs_.push_back({timestamp, static_cast<uint32_t>(reclaim_runs_storage_.size())});
  } else if (timestamp == reclaim_runs_.back().timestamp &&
             !(reclaim_front_sorted_ && reclaim_front_run_ + 1 == reclaim_runs_.size())) {
    reclaim_runs_storage_.push_back(entry);
    reclaim_runs_.back().end += 1;
  } else {
    reclaim_side_.push_back(entry);
    std::push_heap(reclaim_side_.begin(), reclaim_side_.end(), std::greater<>{});
  }
  reclaim_written_ += 1;
  MaybeCompactReclaim();
}

std::optional<JengaAllocator::ReclaimEntry> JengaAllocator::PopReclaim() {
  while (!reclaim_side_.empty() && !IsLiveReclaim(reclaim_side_.front())) {
    std::pop_heap(reclaim_side_.begin(), reclaim_side_.end(), std::greater<>{});
    reclaim_side_.pop_back();
  }
  // Invariant: a front run, when there is one, has an unconsumed entry at the cursor.
  while (reclaim_front_run_ < reclaim_runs_.size()) {
    const size_t end = reclaim_runs_[reclaim_front_run_].end;
    if (!reclaim_front_sorted_) {
      std::sort(reclaim_runs_storage_.begin() + static_cast<std::ptrdiff_t>(reclaim_cursor_),
                reclaim_runs_storage_.begin() + static_cast<std::ptrdiff_t>(end),
                [](const ReclaimEntry& a, const ReclaimEntry& b) { return a.key < b.key; });
      reclaim_front_sorted_ = true;
    }
    if (IsLiveReclaim(reclaim_runs_storage_[reclaim_cursor_])) {
      break;
    }
    if (++reclaim_cursor_ == end) {
      reclaim_front_run_ += 1;
      reclaim_front_sorted_ = false;
    }
  }
  const bool have_run = reclaim_front_run_ < reclaim_runs_.size();
  if (!reclaim_side_.empty() &&
      (!have_run || reclaim_side_.front() < reclaim_runs_storage_[reclaim_cursor_])) {
    std::pop_heap(reclaim_side_.begin(), reclaim_side_.end(), std::greater<>{});
    const ReclaimEntry top = reclaim_side_.back();
    reclaim_side_.pop_back();
    return top;
  }
  if (!have_run) {
    return std::nullopt;
  }
  const ReclaimEntry top = reclaim_runs_storage_[reclaim_cursor_];
  if (++reclaim_cursor_ == reclaim_runs_[reclaim_front_run_].end) {
    reclaim_front_run_ += 1;
    reclaim_front_sorted_ = false;
  }
  return top;
}

void JengaAllocator::DequeueReclaim(LargePageId large) {
  uint32_t& generation = reclaim_generation_[static_cast<size_t>(large)];
  JENGA_DCHECK((generation & 1) == 1) << "large page " << large << " is not queued";
  generation = (generation + 1) & kGenerationMask;
  reclaim_live_ -= 1;
  MaybeCompactReclaim();
}

void JengaAllocator::MaybeCompactReclaim() {
  if (reclaim_written_ > 2 * reclaim_live_ + kReclaimStorageFloor) {
    CompactReclaim();
  }
}

void JengaAllocator::CompactReclaim() {
  // Keeps the live entries in place order, so runs stay ascending and a sorted front run
  // stays sorted; consumed entries, stale entries and emptied runs go. The cost is the
  // storage, at most reclaim_written_. Starting from L live entries, reclaim_written_ passes
  // 2 × live + floor only once placements plus twice the dequeues since then exceed
  // L + floor, so a compaction is O(1) amortised over them.
  //
  // Generations are kGenerationBits wide and wrap. A stale entry could pass for live only
  // if its page's generation came back round to it, i.e. moved 2^30 times while the entry
  // is stored. Every stored entry was written since the last compaction or was live at it,
  // and the page's generation moves at most twice per placement of the page plus once per
  // dequeue, which needs an earlier placement or the entry live at the compaction. Between
  // compactions at most 2 × pool + floor placements happen (reclaim_written_ triggers the
  // next one), so with pool ≤ 2^26 it moves at most 3 × (2^27 + 64) + 1 < 2^30 times.
  size_t out = 0;
  size_t runs_out = 0;
  size_t begin = reclaim_cursor_;
  bool front_kept = false;
  for (size_t r = reclaim_front_run_; r < reclaim_runs_.size(); ++r) {
    const size_t run_begin = out;
    for (size_t i = begin; i < reclaim_runs_[r].end; ++i) {
      if (IsLiveReclaim(reclaim_runs_storage_[i])) {
        reclaim_runs_storage_[out++] = reclaim_runs_storage_[i];
      }
    }
    begin = reclaim_runs_[r].end;
    if (out > run_begin) {
      front_kept = front_kept || r == reclaim_front_run_;
      reclaim_runs_[runs_out++] = {reclaim_runs_[r].timestamp, static_cast<uint32_t>(out)};
    }
  }
  reclaim_runs_storage_.resize(out);
  reclaim_runs_.resize(runs_out);
  reclaim_cursor_ = 0;
  reclaim_front_run_ = 0;
  reclaim_front_sorted_ = reclaim_front_sorted_ && front_kept;
  std::erase_if(reclaim_side_, [this](const ReclaimEntry& entry) { return !IsLiveReclaim(entry); });
  std::make_heap(reclaim_side_.begin(), reclaim_side_.end(), std::greater<>{});
  reclaim_written_ = reclaim_runs_storage_.size() + reclaim_side_.size();
}

std::optional<LargePageId> JengaAllocator::AcquireLargePage(int group_index) {
  if (const auto page = lcm_.Allocate(group_index)) {
    return page;
  }
  // Step 3 of §5.4: evict the evictable large page with the earliest (max-of-slots)
  // last-access time, across all groups. The queue is lazy: the least entry is revalidated
  // against the owning group, then dropped if the page is no longer a candidate or placed
  // again if its timestamp moved.
  while (const std::optional<ReclaimEntry> top = PopReclaim()) {
    const int group = ReclaimGroup(*top);
    const LargePageId large = ReclaimLarge(*top);
    SmallPageAllocator& owner = *groups_[static_cast<size_t>(group)];
    if (!owner.IsReclaimCandidate(large)) {
      DequeueReclaim(large);  // Became used, was reclaimed, or was returned already.
      continue;
    }
    const Tick current = owner.ReclaimTimestamp(large);
    if (current != top->timestamp) {
      PlaceReclaim(current, group, large);
      JENGA_AUDIT_HOOK(audit_.get(), OnReclaimPushed(group, large, current));
      continue;
    }
    DequeueReclaim(large);
    JENGA_AUDIT_HOOK(audit_.get(), OnLargeReclaimed(group, large));
    owner.ReclaimLargePage(large);
    return lcm_.Allocate(group_index);
  }
  return std::nullopt;
}

void JengaAllocator::OnReclaimCandidate(int group_index, LargePageId large, Tick timestamp) {
  PlaceReclaim(timestamp, group_index, large);
  JENGA_AUDIT_HOOK(audit_.get(), OnReclaimPushed(group_index, large, timestamp));
}

void JengaAllocator::GrowPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  lcm_.GrowPages(pages);
  CheckReclaimIdsFit();
  if (static_cast<size_t>(lcm_.num_pages()) > reclaim_generation_.size()) {
    reclaim_generation_.resize(static_cast<size_t>(lcm_.num_pages()), 0);
  }
  for (const auto& group : groups_) {
    group->OnPoolResized(lcm_.num_pages());
  }
  JENGA_AUDIT_HOOK(audit_.get(), OnPoolResized(lcm_.num_pages()));
}

int32_t JengaAllocator::ShrinkPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  int32_t removable = 0;
  while (removable < pages) {
    const LargePageId page = lcm_.num_pages() - 1 - removable;
    if (page < 0) {
      break;
    }
    const int owner = lcm_.owner(page);
    if (owner < 0) {
      removable += 1;
      continue;
    }
    SmallPageAllocator& group = *groups_[static_cast<size_t>(owner)];
    if (!group.IsReclaimCandidate(page)) {
      break;  // Used slots pin the page; the id space must stay dense, so stop here.
    }
    JENGA_AUDIT_HOOK(audit_.get(), OnLargeReclaimed(owner, page));
    group.ReclaimLargePage(page);
    removable += 1;
  }
  if (removable == 0) {
    return 0;
  }
  lcm_.ShrinkPages(removable);
  const auto new_pages = static_cast<size_t>(lcm_.num_pages());
  for (size_t large = new_pages; large < reclaim_generation_.size(); ++large) {
    if ((reclaim_generation_[large] & 1) == 1) {
      DequeueReclaim(static_cast<LargePageId>(large));
    }
  }
  for (const auto& group : groups_) {
    group->OnPoolResized(lcm_.num_pages());
  }
  JENGA_AUDIT_HOOK(audit_.get(), OnPoolResized(lcm_.num_pages()));
  return removable;
}

void JengaAllocator::ForgetRequest(RequestId request) {
  for (const auto& group : groups_) {
    group->ForgetRequest(request);
  }
}

void JengaAllocator::SetAuditSink(AuditSink* sink) {
  audit_.Add(sink);
  for (const auto& group : groups_) {
    group->set_audit_sinks(audit_.get());
  }
}

void JengaAllocator::RemoveAuditSink(AuditSink* sink) {
  audit_.Remove(sink);
  for (const auto& group : groups_) {
    group->set_audit_sinks(audit_.get());
  }
}

JengaAllocator::MemoryBreakdown JengaAllocator::GetBreakdown() const {
  MemoryBreakdown breakdown;
  breakdown.pool_bytes =
      static_cast<int64_t>(lcm_.num_pages()) * lcm_.large_page_bytes() + lcm_.slack_bytes();
  breakdown.allocated_bytes =
      static_cast<int64_t>(lcm_.num_allocated()) * lcm_.large_page_bytes();
  for (const auto& group : groups_) {
    const SmallPageAllocator::Stats stats = group->GetStats();
    breakdown.used_bytes += stats.used_bytes;
    breakdown.evictable_bytes += stats.evictable_bytes;
    breakdown.empty_bytes += stats.empty_bytes;
  }
  breakdown.unallocated_bytes =
      static_cast<int64_t>(lcm_.num_free()) * lcm_.large_page_bytes() + lcm_.slack_bytes();
  return breakdown;
}

}  // namespace jenga

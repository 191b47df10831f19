#include "src/core/jenga_allocator.h"

#include "src/common/check.h"

namespace jenga {

JengaAllocator::JengaAllocator(KvSpec spec, int64_t pool_bytes, int64_t large_page_bytes_override)
    : spec_(std::move(spec)),
      lcm_(pool_bytes,
           large_page_bytes_override > 0 ? large_page_bytes_override : spec_.LcmPageBytes()) {
  groups_.reserve(spec_.groups.size());
  for (size_t i = 0; i < spec_.groups.size(); ++i) {
    groups_.push_back(std::make_unique<SmallPageAllocator>(static_cast<int>(i), spec_.groups[i],
                                                           &lcm_, this));
  }
  reclaim_pos_.assign(static_cast<size_t>(lcm_.num_pages()), -1);
}

void JengaAllocator::SiftReclaim(size_t index) {
  const ReclaimEntry entry = reclaim_heap_[index];
  while (index > 0) {
    const size_t parent = (index - 1) / 2;
    if (!(entry < reclaim_heap_[parent])) {
      break;
    }
    SetReclaimSlot(index, reclaim_heap_[parent]);
    index = parent;
  }
  const size_t size = reclaim_heap_.size();
  for (size_t child = 2 * index + 1; child < size; child = 2 * index + 1) {
    if (child + 1 < size && reclaim_heap_[child + 1] < reclaim_heap_[child]) {
      child += 1;
    }
    if (!(reclaim_heap_[child] < entry)) {
      break;
    }
    SetReclaimSlot(index, reclaim_heap_[child]);
    index = child;
  }
  SetReclaimSlot(index, entry);
}

void JengaAllocator::PlaceReclaim(const ReclaimEntry& entry) {
  const int32_t pos = reclaim_pos_[static_cast<size_t>(entry.large)];
  size_t index = static_cast<size_t>(pos);
  if (pos < 0) {
    index = reclaim_heap_.size();
    reclaim_heap_.push_back(entry);
  } else {
    reclaim_heap_[index] = entry;
  }
  SiftReclaim(index);
}

void JengaAllocator::RemoveReclaimAt(size_t index) {
  reclaim_pos_[static_cast<size_t>(reclaim_heap_[index].large)] = -1;
  const ReclaimEntry last = reclaim_heap_.back();
  reclaim_heap_.pop_back();
  if (index < reclaim_heap_.size()) {
    SetReclaimSlot(index, last);
    SiftReclaim(index);
  }
}

std::optional<LargePageId> JengaAllocator::AcquireLargePage(int group_index) {
  if (const auto page = lcm_.Allocate(group_index)) {
    return page;
  }
  // Step 3 of §5.4: evict the evictable large page with the earliest (max-of-slots)
  // last-access time, across all groups. The heap is lazy: the top entry is revalidated
  // against the owning group, then dropped if the page is no longer a candidate or re-keyed
  // in place if its timestamp moved.
  while (!reclaim_heap_.empty()) {
    const ReclaimEntry top = reclaim_heap_.front();
    SmallPageAllocator& owner = *groups_[static_cast<size_t>(top.group)];
    if (!owner.IsReclaimCandidate(top.large)) {
      RemoveReclaimAt(0);  // Became used, was reclaimed, or was returned already.
      continue;
    }
    const Tick current = owner.ReclaimTimestamp(top.large);
    if (current != top.timestamp) {
      PlaceReclaim({current, top.group, top.large});
      JENGA_AUDIT_HOOK(audit_.get(), OnReclaimPushed(top.group, top.large, current));
      continue;
    }
    RemoveReclaimAt(0);
    JENGA_AUDIT_HOOK(audit_.get(), OnLargeReclaimed(top.group, top.large));
    owner.ReclaimLargePage(top.large);
    return lcm_.Allocate(group_index);
  }
  return std::nullopt;
}

void JengaAllocator::OnReclaimCandidate(int group_index, LargePageId large, Tick timestamp) {
  PlaceReclaim({timestamp, group_index, large});
  JENGA_AUDIT_HOOK(audit_.get(), OnReclaimPushed(group_index, large, timestamp));
}

void JengaAllocator::GrowPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  lcm_.GrowPages(pages);
  reclaim_pos_.resize(static_cast<size_t>(lcm_.num_pages()), -1);
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
  for (size_t large = new_pages; large < reclaim_pos_.size(); ++large) {
    if (reclaim_pos_[large] >= 0) {
      RemoveReclaimAt(static_cast<size_t>(reclaim_pos_[large]));
    }
  }
  reclaim_pos_.resize(new_pages);
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

int64_t JengaAllocator::FreeSmallPages(int group_index) const {
  const SmallPageAllocator& group = *groups_[static_cast<size_t>(group_index)];
  return static_cast<int64_t>(lcm_.num_free()) * group.pages_per_large() +
         group.GetStats().empty_pages;
}

int64_t JengaAllocator::AvailableSmallPages(int group_index) const {
  // Evictable capacity: this group's evictable smalls are directly reusable (step 5), and
  // whole evictable large pages of *other* groups can be reclaimed (step 3). A conservative
  // estimate counts every group's evictable pages scaled into this group's page size.
  const SmallPageAllocator& target = *groups_[static_cast<size_t>(group_index)];
  int64_t evictable_bytes = 0;
  for (const auto& group : groups_) {
    evictable_bytes += group->GetStats().evictable_bytes;
  }
  return FreeSmallPages(group_index) + evictable_bytes / target.page_bytes();
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

void JengaAllocator::CheckConsistency() const {
  int64_t held = 0;
  for (const auto& group : groups_) {
    group->CheckConsistency();
    held += group->GetStats().large_pages_held;
  }
  JENGA_CHECK_EQ(held, lcm_.num_allocated());
  const MemoryBreakdown breakdown = GetBreakdown();
  JENGA_CHECK_EQ(breakdown.allocated_bytes,
                 breakdown.used_bytes + breakdown.evictable_bytes + breakdown.empty_bytes);
}

}  // namespace jenga

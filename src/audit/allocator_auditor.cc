#include "src/audit/allocator_auditor.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace jenga {

namespace {
// Event-time violations stop accumulating past this point; a broken run would otherwise
// buffer one error per subsequent event.
constexpr size_t kMaxEventErrors = 64;
}  // namespace

// Forwards every allocator-side event into the auditor, tagged with the allocator index so
// several attached allocators (speculative decoding) cannot alias each other's groups.
struct AllocatorAuditor::Tap final : AuditSink {
  AllocatorAuditor* owner = nullptr;
  size_t index = 0;

  void OnLargeAcquired(int group, LargePageId large, RequestId request) override {
    owner->HandleLargeAcquired(index, group, large, request);
  }
  void OnLargeReleased(int group, LargePageId large) override {
    owner->HandleLargeReleased(index, group, large);
  }
  void OnPageClaimed(int group, SmallPageId page, RequestId request) override {
    owner->HandlePageClaimed(index, group, page, request);
  }
  void OnPageRevived(int group, SmallPageId page) override {
    owner->HandlePageRevived(index, group, page);
  }
  void OnPageCached(int group, SmallPageId page, BlockHash /*hash*/) override {
    owner->HandlePageCached(index, group, page);
  }
  void OnPageEmptied(int group, SmallPageId page) override {
    owner->HandlePageEmptied(index, group, page);
  }
  void OnPageEvicted(int group, SmallPageId page) override {
    owner->HandlePageEvicted(index, group, page);
  }
  void OnRequestForgotten(int /*group*/, RequestId /*request*/) override {
    owner->events_observed_ += 1;
  }
  void OnBulkAllocate(int group, RequestId request, int64_t count) override {
    owner->HandleBulkAllocate(index, group, request, count);
  }
  void OnEvictorInsert(int group, SmallPageId page, Tick last_access,
                       int64_t prefix_length) override {
    owner->HandleEvictorInsert(index, group, page, last_access, prefix_length);
  }
  void OnEvictorRemove(int group, SmallPageId page) override {
    owner->HandleEvictorRemove(index, group, page);
  }
  void OnEvictorRekey(int group, SmallPageId page, Tick last_access,
                      int64_t prefix_length) override {
    owner->HandleEvictorRekey(index, group, page, last_access, prefix_length);
  }
  void OnEvictorPop(int group, SmallPageId page) override {
    owner->HandleEvictorPop(index, group, page);
  }
  void OnReclaimPushed(int /*group*/, LargePageId /*large*/, Tick /*timestamp*/) override {
    owner->events_observed_ += 1;
  }
  void OnLargeReclaimed(int /*group*/, LargePageId /*large*/) override {
    owner->events_observed_ += 1;
  }
  void OnPoolResized(int32_t new_num_pages) override {
    owner->HandlePoolResized(index, new_num_pages);
  }
};

struct AllocatorAuditor::HostTap final : AuditSink {
  AllocatorAuditor* owner = nullptr;

  void OnHostSetStored(RequestId id, int64_t bytes) override {
    owner->HandleHostSetStored(id, bytes);
  }
  void OnHostSetRemoved(RequestId id, int64_t bytes, bool evicted) override {
    owner->HandleHostSetRemoved(id, bytes, evicted);
  }
  void OnHostPageStored(int manager, int group, BlockHash hash, int64_t bytes) override {
    owner->HandleHostPageStored(manager, group, hash, bytes);
  }
  void OnHostPageRemoved(int manager, int group, BlockHash hash, int64_t bytes,
                         bool evicted) override {
    owner->HandleHostPageRemoved(manager, group, hash, bytes, evicted);
  }
};

AllocatorAuditor::AllocatorAuditor() = default;

AllocatorAuditor::~AllocatorAuditor() { DetachAll(); }

void AllocatorAuditor::AttachAllocator(JengaAllocator* alloc) {
  auto state = std::make_unique<AllocState>();
  state->alloc = alloc;
  state->tap = std::make_unique<Tap>();
  state->tap->owner = this;
  state->tap->index = allocs_.size();
  state->groups.resize(static_cast<size_t>(alloc->num_groups()));
  SeedAllocatorShadow(state.get());
  alloc->SetAuditSink(state->tap.get());
  allocs_.push_back(std::move(state));
}

void AllocatorAuditor::AttachSwapManager(SwapManager* swap) {
  host_.swap = swap;
  host_.tap = std::make_unique<HostTap>();
  host_.tap->owner = this;
  SeedHostShadow();
  swap->SetAuditSink(host_.tap.get());
}

void AllocatorAuditor::DetachAll() {
  for (const auto& state : allocs_) {
    state->alloc->RemoveAuditSink(state->tap.get());
  }
  allocs_.clear();
  if (host_.swap != nullptr) {
    host_.swap->RemoveAuditSink(host_.tap.get());
  }
  host_ = HostShadow{};
  event_errors_.clear();
}

void AllocatorAuditor::SeedAllocatorShadow(AllocState* state) {
  const JengaAllocator& alloc = *state->alloc;
  for (int g = 0; g < alloc.num_groups(); ++g) {
    const SmallPageAllocator& grp = alloc.group(g);
    ShadowGroup& shadow = state->groups[static_cast<size_t>(g)];
    for (size_t index = 0; index < grp.larges_.size(); ++index) {
      const SmallPageAllocator::LargeEntry& entry = grp.larges_[index];
      if (!entry.resident) {
        continue;
      }
      const LargePageId large = static_cast<LargePageId>(index);
      shadow.resident.insert(large);
      const SmallPageId base = static_cast<SmallPageId>(large) * grp.pages_per_large_;
      for (int slot = 0; slot < grp.pages_per_large_; ++slot) {
        const SmallPageAllocator::SlotMeta& meta = grp.slab_[static_cast<size_t>(base + slot)];
        shadow.slots[base + slot] = ShadowSlot{meta.state, meta.assoc};
      }
    }
    for (const Evictor::Key& key : grp.evictor_.keys_) {
      if (key.page != kNoSmallPage) {
        shadow.evictor[key.page] = {key.last_access, -key.neg_prefix_length};
      }
    }
  }
}

void AllocatorAuditor::SeedHostShadow() {
  const HostPool& pool = host_.swap->host_;
  host_.sets.clear();
  host_.pages.clear();
  host_.bytes = 0;
  for (const auto& [id, entry] : pool.sets_) {
    host_.sets[id] = entry.set.bytes;
    host_.bytes += entry.set.bytes;
  }
  for (const auto& [key, entry] : pool.pages_) {
    host_.pages[{key.manager, key.group, key.hash}] = entry.page.bytes;
    host_.bytes += entry.page.bytes;
  }
}

void AllocatorAuditor::EventError(std::string message) {
  if (event_errors_.size() < kMaxEventErrors) {
    event_errors_.push_back(std::move(message));
  }
}

AllocatorAuditor::ShadowGroup& AllocatorAuditor::Shadow(size_t a, int g) {
  return allocs_[a]->groups[static_cast<size_t>(g)];
}

AllocatorAuditor::ShadowSlot* AllocatorAuditor::FindSlot(size_t a, int g, SmallPageId page,
                                                         const char* event) {
  ShadowGroup& shadow = Shadow(a, g);
  const auto it = shadow.slots.find(page);
  if (it == shadow.slots.end()) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] " << event << " on page " << page
       << " that is not in any live large page";
    EventError(os.str());
    return nullptr;
  }
  return &it->second;
}

void AllocatorAuditor::HandleLargeAcquired(size_t a, int g, LargePageId large,
                                           RequestId request) {
  events_observed_ += 1;
  ShadowGroup& shadow = Shadow(a, g);
  if (!shadow.resident.insert(large).second) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] large page " << large << " acquired twice";
    EventError(os.str());
    return;
  }
  const int ppl = allocs_[a]->alloc->group(g).pages_per_large();
  const SmallPageId base = static_cast<SmallPageId>(large) * ppl;
  for (int slot = 0; slot < ppl; ++slot) {
    shadow.slots[base + slot] = ShadowSlot{PageState::kEmpty, request};
  }
}

void AllocatorAuditor::HandleLargeReleased(size_t a, int g, LargePageId large) {
  events_observed_ += 1;
  ShadowGroup& shadow = Shadow(a, g);
  if (shadow.resident.erase(large) == 0) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] released large page " << large
       << " that was not resident";
    EventError(os.str());
    return;
  }
  const int ppl = allocs_[a]->alloc->group(g).pages_per_large();
  const SmallPageId base = static_cast<SmallPageId>(large) * ppl;
  for (int slot = 0; slot < ppl; ++slot) {
    const auto it = shadow.slots.find(base + slot);
    if (it == shadow.slots.end()) {
      continue;
    }
    if (it->second.state != PageState::kEmpty) {
      std::ostringstream os;
      os << "[alloc" << a << "/group" << g << "] large page " << large
         << " released while page " << (base + slot) << " is "
         << PageStateName(it->second.state);
      EventError(os.str());
    }
    shadow.slots.erase(it);
  }
}

void AllocatorAuditor::HandlePageClaimed(size_t a, int g, SmallPageId page, RequestId request) {
  events_observed_ += 1;
  ShadowSlot* slot = FindSlot(a, g, page, "claim");
  if (slot == nullptr) {
    return;
  }
  if (slot->state != PageState::kEmpty) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] page " << page << " claimed while "
       << PageStateName(slot->state);
    EventError(os.str());
  }
  slot->state = PageState::kUsed;
  slot->assoc = request;
}

void AllocatorAuditor::HandleBulkAllocate(size_t a, int g, RequestId request, int64_t count) {
  events_observed_ += 1;
  if (count <= 0) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] bulk allocate of " << count << " pages";
    EventError(os.str());
    return;
  }
  // Every page of the bulk was announced through the per-page events first; the shadow must
  // therefore already show at least `count` used pages held by this request in the group.
  const ShadowGroup& shadow = allocs_[a]->groups[static_cast<size_t>(g)];
  int64_t held = 0;
  for (const auto& [page, slot] : shadow.slots) {
    if (slot.state == PageState::kUsed && slot.assoc == request) {
      ++held;
    }
  }
  if (held < count) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] bulk allocate reported " << count
       << " pages for request " << request << " but the shadow shows only " << held
       << " used pages held by it";
    EventError(os.str());
  }
}

void AllocatorAuditor::HandlePageRevived(size_t a, int g, SmallPageId page) {
  events_observed_ += 1;
  ShadowSlot* slot = FindSlot(a, g, page, "revive");
  if (slot == nullptr) {
    return;
  }
  if (slot->state != PageState::kEvictable) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] page " << page << " revived while "
       << PageStateName(slot->state);
    EventError(os.str());
  }
  slot->state = PageState::kUsed;
}

void AllocatorAuditor::HandlePageCached(size_t a, int g, SmallPageId page) {
  events_observed_ += 1;
  ShadowSlot* slot = FindSlot(a, g, page, "cache");
  if (slot == nullptr) {
    return;
  }
  if (slot->state != PageState::kUsed) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] page " << page << " cached while "
       << PageStateName(slot->state);
    EventError(os.str());
  }
  slot->state = PageState::kEvictable;
}

void AllocatorAuditor::HandlePageEmptied(size_t a, int g, SmallPageId page) {
  events_observed_ += 1;
  ShadowSlot* slot = FindSlot(a, g, page, "empty");
  if (slot == nullptr) {
    return;
  }
  if (slot->state == PageState::kEmpty) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] page " << page << " emptied twice";
    EventError(os.str());
  }
  slot->state = PageState::kEmpty;
}

void AllocatorAuditor::HandlePageEvicted(size_t a, int g, SmallPageId page) {
  events_observed_ += 1;
  ShadowSlot* slot = FindSlot(a, g, page, "evict");
  if (slot == nullptr) {
    return;
  }
  if (slot->state != PageState::kEvictable) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] page " << page << " evicted while "
       << PageStateName(slot->state);
    EventError(os.str());
  }
  slot->state = PageState::kEmpty;
}

void AllocatorAuditor::HandleEvictorInsert(size_t a, int g, SmallPageId page, Tick last_access,
                                           int64_t prefix_length) {
  events_observed_ += 1;
  ShadowGroup& shadow = Shadow(a, g);
  if (!shadow.evictor.emplace(page, std::make_pair(last_access, prefix_length)).second) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] evictor double-insert of page " << page;
    EventError(os.str());
  }
}

void AllocatorAuditor::HandleEvictorRemove(size_t a, int g, SmallPageId page) {
  events_observed_ += 1;
  if (Shadow(a, g).evictor.erase(page) == 0) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] evictor remove of absent page " << page;
    EventError(os.str());
  }
}

void AllocatorAuditor::HandleEvictorRekey(size_t a, int g, SmallPageId page, Tick last_access,
                                          int64_t prefix_length) {
  events_observed_ += 1;
  ShadowGroup& shadow = Shadow(a, g);
  const auto it = shadow.evictor.find(page);
  if (it == shadow.evictor.end()) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] evictor rekey of absent page " << page;
    EventError(os.str());
    return;
  }
  it->second = {last_access, prefix_length};
}

void AllocatorAuditor::HandleEvictorPop(size_t a, int g, SmallPageId page) {
  events_observed_ += 1;
  if (Shadow(a, g).evictor.erase(page) == 0) {
    std::ostringstream os;
    os << "[alloc" << a << "/group" << g << "] evictor pop of absent page " << page;
    EventError(os.str());
  }
}

void AllocatorAuditor::HandlePoolResized(size_t a, int32_t new_num_pages) {
  events_observed_ += 1;
  // The resize contract: every removed page was free, so nothing resident may sit at or
  // beyond the new extent. The shadow needs no re-basing — resident sets shrank through the
  // usual release events during the drain — but a survivor here means the allocator removed
  // a live page out from under a group.
  for (size_t g = 0; g < allocs_[a]->groups.size(); ++g) {
    for (const LargePageId large : allocs_[a]->groups[g].resident) {
      if (large >= new_num_pages) {
        std::ostringstream os;
        os << "[alloc" << a << "/group" << g << "] pool resized to " << new_num_pages
           << " pages but large page " << large << " is still resident";
        EventError(os.str());
      }
    }
  }
}

void AllocatorAuditor::HandleHostSetStored(RequestId id, int64_t bytes) {
  events_observed_ += 1;
  if (!host_.sets.emplace(id, bytes).second) {
    std::ostringstream os;
    os << "[host] swap set " << id << " stored while already resident";
    EventError(os.str());
    return;
  }
  host_.bytes += bytes;
}

void AllocatorAuditor::HandleHostSetRemoved(RequestId id, int64_t bytes, bool /*evicted*/) {
  events_observed_ += 1;
  const auto it = host_.sets.find(id);
  if (it == host_.sets.end() || it->second != bytes) {
    std::ostringstream os;
    os << "[host] swap set " << id << " removed (" << bytes << "B) but shadow holds "
       << (it == host_.sets.end() ? -1 : it->second) << "B";
    EventError(os.str());
    return;
  }
  host_.bytes -= bytes;
  host_.sets.erase(it);
}

void AllocatorAuditor::HandleHostPageStored(int manager, int group, BlockHash hash,
                                            int64_t bytes) {
  events_observed_ += 1;
  host_.pages_stored += 1;
  if (!host_.pages.emplace(std::make_tuple(manager, group, hash), bytes).second) {
    std::ostringstream os;
    os << "[host] cache page (" << manager << "," << group << "," << hash
       << ") stored while already resident";
    EventError(os.str());
    return;
  }
  host_.bytes += bytes;
}

void AllocatorAuditor::HandleHostPageRemoved(int manager, int group, BlockHash hash,
                                             int64_t bytes, bool evicted) {
  events_observed_ += 1;
  if (!evicted) {
    host_.pages_removed_explicit += 1;
  }
  const auto it = host_.pages.find(std::make_tuple(manager, group, hash));
  if (it == host_.pages.end() || it->second != bytes) {
    std::ostringstream os;
    os << "[host] cache page (" << manager << "," << group << "," << hash << ") removed ("
       << bytes << "B) but shadow holds "
       << (it == host_.pages.end() ? -1 : it->second) << "B";
    EventError(os.str());
    return;
  }
  host_.bytes -= bytes;
  host_.pages.erase(it);
}

// --- Re-derivation -----------------------------------------------------------------------

namespace {
void Fail(std::vector<std::string>* out, const std::string& message) {
  out->push_back(message);
}
}  // namespace

std::vector<std::string> AllocatorAuditor::CheckState(const SmallPageAllocator& grp) {
  std::vector<std::string> violations;
  std::vector<std::string>* out = &violations;
  const int g = grp.group_index_;
  const std::string tag = "[group" + std::to_string(g) + "] ";
  int64_t resident = 0;
  int64_t used = 0;
  int64_t evictable = 0;
  int64_t empty = 0;
  std::unordered_map<SmallPageId, Evictor::Key> ground_truth;

  for (size_t index = 0; index < grp.larges_.size(); ++index) {
    const SmallPageAllocator::LargeEntry& entry = grp.larges_[index];
    const LargePageId large = static_cast<LargePageId>(index);
    if (!entry.resident) {
      continue;
    }
    resident += 1;
    if (grp.lcm_->owner(large) != g) {
      Fail(out, tag + "resident large page " + std::to_string(large) +
                    " is owned by group " + std::to_string(grp.lcm_->owner(large)) +
                    " in the LCM allocator");
    }
    int32_t entry_used = 0;
    int32_t entry_evictable = 0;
    const SmallPageId base = static_cast<SmallPageId>(large) * grp.pages_per_large_;
    for (int slot = 0; slot < grp.pages_per_large_; ++slot) {
      const SmallPageAllocator::SlotMeta& meta = grp.slab_[static_cast<size_t>(base + slot)];
      const SmallPageId page = base + slot;
      // Index ownership: the bit is set exactly when the index maps the page's hash to it.
      if (!meta.has_hash) {
        if (meta.indexed) {
          Fail(out, tag + "page " + std::to_string(page) + " owns an index entry but has no " +
                        "content hash");
        }
      } else if (meta.indexed != (grp.cache_index_.Find(meta.hash) == page)) {
        Fail(out, tag + "page " + std::to_string(page) + " index ownership bit is " +
                      (meta.indexed ? "set, but the index does not map its hash to it"
                                    : "clear, but the index maps its hash to it"));
      }
      switch (meta.state) {
        case PageState::kUsed:
          entry_used += 1;
          if (meta.ref_count <= 0) {
            Fail(out, tag + "used page " + std::to_string(page) + " has ref_count " +
                          std::to_string(meta.ref_count));
          }
          if (grp.evictor_.Contains(page)) {
            Fail(out, tag + "used page " + std::to_string(page) + " present in evictor");
          }
          break;
        case PageState::kEvictable: {
          entry_evictable += 1;
          if (meta.ref_count != 0) {
            Fail(out, tag + "evictable page " + std::to_string(page) + " has ref_count " +
                          std::to_string(meta.ref_count));
          }
          if (!meta.has_hash) {
            Fail(out, tag + "evictable page " + std::to_string(page) + " has no content hash");
          } else {
            if (grp.cache_index_.Find(meta.hash) != page) {
              Fail(out, tag + "evictable page " + std::to_string(page) +
                            " not reachable through the cache index");
            }
          }
          // One-slot groups keep no evictor: their ground truth is an empty one.
          if (grp.uses_evictor_) {
            ground_truth.emplace(page,
                                 Evictor::Key{meta.last_access, -meta.prefix_length, page});
          }
          break;
        }
        case PageState::kEmpty:
          if (meta.ref_count != 0 || meta.has_hash) {
            Fail(out, tag + "empty page " + std::to_string(page) +
                          " carries refs or cached content");
          }
          if (grp.evictor_.Contains(page)) {
            Fail(out, tag + "empty page " + std::to_string(page) + " present in evictor");
          }
          break;
      }
    }
    if (entry_used != entry.used_count || entry_evictable != entry.evictable_count) {
      Fail(out, tag + "large page " + std::to_string(large) + " counts (" +
                    std::to_string(entry.used_count) + "u/" +
                    std::to_string(entry.evictable_count) + "e) != recount (" +
                    std::to_string(entry_used) + "u/" + std::to_string(entry_evictable) + "e)");
    }
    if (entry_used + entry_evictable == 0) {
      Fail(out, tag + "fully-empty large page " + std::to_string(large) +
                    " was not returned to the LCM allocator");
    }
    used += entry_used;
    evictable += entry_evictable;
    empty += grp.pages_per_large_ - entry.used_count - entry.evictable_count;
  }

  if (resident != grp.resident_larges_ || used != grp.used_count_ ||
      evictable != grp.evictable_count_ || empty != grp.empty_count_) {
    Fail(out, tag + "group totals (held/used/evictable/empty) " +
                  std::to_string(grp.resident_larges_) + "/" + std::to_string(grp.used_count_) +
                  "/" + std::to_string(grp.evictable_count_) + "/" +
                  std::to_string(grp.empty_count_) + " != recount " + std::to_string(resident) +
                  "/" + std::to_string(used) + "/" + std::to_string(evictable) + "/" +
                  std::to_string(empty));
  }

  // Evictor: authoritative keys == ground truth; a heap is empty until built, and a built
  // heap covers every live key.
  const Evictor& evictor = grp.evictor_;
  if (!evictor.built_ && !evictor.heap_.empty()) {
    Fail(out, tag + "evictor heap holds " + std::to_string(evictor.heap_.size()) +
                  " entries before it was built");
  }
  if (!std::is_heap(evictor.heap_.begin(), evictor.heap_.end(), std::greater<Evictor::Key>{})) {
    Fail(out, tag + "evictor heap violates the heap property");
  }
  std::unordered_set<SmallPageId> covered;
  for (const Evictor::Key& key : evictor.heap_) {
    if (key.page < 0 || static_cast<size_t>(key.page) >= evictor.keys_.size()) {
      Fail(out, tag + "evictor heap entry for page " + std::to_string(key.page) +
                    " lies outside the key table");
    } else if (evictor.IsLive(key)) {
      covered.insert(key.page);
    }
  }
  // The dense key table holds exactly size() present slots, each at its own page's index.
  size_t present = 0;
  for (size_t index = 0; index < evictor.keys_.size(); ++index) {
    const SmallPageId page = evictor.keys_[index].page;
    if (page == kNoSmallPage) {
      continue;
    }
    present += 1;
    if (page != static_cast<SmallPageId>(index)) {
      Fail(out, tag + "evictor key slot " + std::to_string(index) + " holds page " +
                    std::to_string(page));
    } else if (evictor.built_ && !covered.contains(page)) {
      Fail(out, tag + "live evictor key for page " + std::to_string(page) +
                    " has no matching heap entry (lost tombstone)");
    }
  }
  if (present != evictor.size() || present != ground_truth.size()) {
    Fail(out, tag + "evictor counts " + std::to_string(evictor.size()) + " keys and holds " +
                  std::to_string(present) + ", ground truth " +
                  std::to_string(ground_truth.size()));
  }
  for (const auto& [page, key] : ground_truth) {
    if (!evictor.Contains(page)) {
      Fail(out, tag + "evictable page " + std::to_string(page) + " missing from evictor");
      continue;
    }
    const Evictor::Key& held = evictor.keys_[static_cast<size_t>(page)];
    if (held != key) {
      Fail(out, tag + "evictor key for page " + std::to_string(page) + " is (" +
                    std::to_string(held.last_access) + "," +
                    std::to_string(-held.neg_prefix_length) + "), slot metadata says (" +
                    std::to_string(key.last_access) + "," +
                    std::to_string(-key.neg_prefix_length) + ")");
    }
  }

  // Cache index: every entry resolves to a resident page carrying that hash, and the table
  // stays at most half full (the probe-length bound).
  if (2 * grp.cache_index_.size() > grp.cache_index_.capacity()) {
    Fail(out, tag + "cache index holds " + std::to_string(grp.cache_index_.size()) +
                  " entries in " + std::to_string(grp.cache_index_.capacity()) + " slots");
  }
  grp.cache_index_.ForEach([&](BlockHash hash, SmallPageId page) {
    if (!grp.IsResidentPage(page)) {
      Fail(out, tag + "cache index maps hash " + std::to_string(hash) +
                    " to non-resident page " + std::to_string(page));
      return;
    }
    const SmallPageAllocator::SlotMeta& meta = grp.slab_[static_cast<size_t>(page)];
    if (meta.state == PageState::kEmpty || !meta.has_hash || meta.hash != hash) {
      Fail(out, tag + "cache index entry for hash " + std::to_string(hash) +
                    " points at page " + std::to_string(page) +
                    " which does not carry it");
    }
    if (grp.cache_index_.Find(hash) != page) {
      Fail(out, tag + "cache index entry for hash " + std::to_string(hash) +
                    " is unreachable by lookup (broken probe run)");
    }
  });

  // Affinity free lists: every live empty slot has exactly one valid ref in the any-list;
  // per-request refs only point at empty slots associated with that request.
  std::unordered_map<SmallPageId, int> any_cover;
  for (const SmallPageAllocator::FreeRef& ref : grp.empty_any_) {
    if (grp.IsValidEmpty(ref)) {
      any_cover[ref.page] += 1;
    }
  }
  int64_t by_request = 0;
  for (const auto& [request, refs] : grp.empty_by_request_) {
    by_request += static_cast<int64_t>(refs.size());
    for (const SmallPageAllocator::FreeRef& ref : refs) {
      if (!grp.IsValidEmpty(ref)) {
        continue;
      }
      const SmallPageAllocator::SlotMeta& meta = grp.slab_[static_cast<size_t>(ref.page)];
      if (meta.assoc != request) {
        Fail(out, tag + "affinity list of request " + std::to_string(request) +
                      " holds page " + std::to_string(ref.page) + " associated with request " +
                      std::to_string(meta.assoc));
      }
    }
  }
  if (by_request != grp.by_request_refs_) {
    Fail(out, tag + "by-request ref count " + std::to_string(grp.by_request_refs_) +
                  " != recount " + std::to_string(by_request));
  }
  int64_t empty_seen = 0;
  for (const auto& [page, cover] : any_cover) {
    if (cover != 1) {
      Fail(out, tag + "empty page " + std::to_string(page) + " has " + std::to_string(cover) +
                    " valid refs in the any-free list (expected 1)");
    }
  }
  for (size_t index = 0; index < grp.larges_.size(); ++index) {
    const SmallPageAllocator::LargeEntry& entry = grp.larges_[index];
    if (!entry.resident) {
      continue;
    }
    const SmallPageId base = static_cast<SmallPageId>(index) * grp.pages_per_large_;
    for (int slot = 0; slot < grp.pages_per_large_; ++slot) {
      if (grp.slab_[static_cast<size_t>(base + slot)].state != PageState::kEmpty) {
        continue;
      }
      empty_seen += 1;
      if (!any_cover.contains(base + slot)) {
        Fail(out, tag + "empty page " + std::to_string(base + slot) +
                      " unreachable from the any-free list");
      }
    }
  }
  if (empty_seen != static_cast<int64_t>(any_cover.size())) {
    Fail(out, tag + "any-free list covers " + std::to_string(any_cover.size()) +
                  " pages, but " + std::to_string(empty_seen) + " empty pages exist");
  }
  return violations;
}

void AllocatorAuditor::CompareShadow(size_t a, int g, std::vector<std::string>* out) const {
  const SmallPageAllocator& grp = allocs_[a]->alloc->group(g);
  const ShadowGroup& shadow = allocs_[a]->groups[static_cast<size_t>(g)];
  const std::string tag = "[alloc" + std::to_string(a) + "/group" + std::to_string(g) + "] ";
  size_t resident = 0;
  size_t evictor_keys = 0;  // The evictable pages of a group that uses its evictor.
  for (size_t index = 0; index < grp.larges_.size(); ++index) {
    const SmallPageAllocator::LargeEntry& entry = grp.larges_[index];
    const LargePageId large = static_cast<LargePageId>(index);
    if (!entry.resident) {
      if (shadow.resident.contains(large)) {
        Fail(out, tag + "shadow believes large page " + std::to_string(large) +
                      " is resident but it is not");
      }
      continue;
    }
    resident += 1;
    if (!shadow.resident.contains(large)) {
      Fail(out, tag + "large page " + std::to_string(large) + " resident but not in shadow");
    }
    const SmallPageId base = static_cast<SmallPageId>(large) * grp.pages_per_large_;
    for (int slot = 0; slot < grp.pages_per_large_; ++slot) {
      const SmallPageId page = base + slot;
      const SmallPageAllocator::SlotMeta& meta = grp.slab_[static_cast<size_t>(page)];
      const auto sh = shadow.slots.find(page);
      if (sh == shadow.slots.end()) {
        Fail(out, tag + "page " + std::to_string(page) + " missing from shadow");
      } else {
        if (sh->second.state != meta.state) {
          Fail(out, tag + "page " + std::to_string(page) + " is " +
                        PageStateName(meta.state) + " but shadow says " +
                        PageStateName(sh->second.state));
        }
        if (sh->second.assoc != meta.assoc) {
          Fail(out, tag + "page " + std::to_string(page) + " assoc " +
                        std::to_string(meta.assoc) + " but shadow says " +
                        std::to_string(sh->second.assoc));
        }
      }
      if (meta.state != PageState::kEvictable || !grp.uses_evictor_) {
        continue;
      }
      evictor_keys += 1;
      const auto key = shadow.evictor.find(page);
      if (key == shadow.evictor.end()) {
        Fail(out, tag + "evictor page " + std::to_string(page) + " missing from shadow");
      } else if (key->second.first != meta.last_access ||
                 key->second.second != meta.prefix_length) {
        Fail(out, tag + "shadow evictor key for page " + std::to_string(page) + " is (" +
                      std::to_string(key->second.first) + "," +
                      std::to_string(key->second.second) + "), expected (" +
                      std::to_string(meta.last_access) + "," +
                      std::to_string(meta.prefix_length) + ")");
      }
    }
  }
  if (shadow.resident.size() != resident) {
    Fail(out, tag + "shadow tracks " + std::to_string(shadow.resident.size()) +
                  " resident large pages, actual " + std::to_string(resident));
  }
  if (shadow.slots.size() != resident * static_cast<size_t>(grp.pages_per_large_)) {
    Fail(out, tag + "shadow tracks " + std::to_string(shadow.slots.size()) +
                  " slots, expected " +
                  std::to_string(resident * static_cast<size_t>(grp.pages_per_large_)));
  }
  if (shadow.evictor.size() != evictor_keys) {
    Fail(out, tag + "shadow evictor holds " + std::to_string(shadow.evictor.size()) +
                  " pages, ground truth " + std::to_string(evictor_keys));
  }
}

void AllocatorAuditor::CheckReclaimQueue(const JengaAllocator& alloc,
                                         std::vector<std::string>* out) {
  using Entry = JengaAllocator::ReclaimEntry;
  const std::string tag = "reclaim queue: ";
  const std::vector<Entry>& storage = alloc.reclaim_runs_storage_;
  const std::vector<JengaAllocator::ReclaimRun>& runs = alloc.reclaim_runs_;
  const std::vector<Entry>& side = alloc.reclaim_side_;
  const std::vector<uint32_t>& generation = alloc.reclaim_generation_;
  const size_t front = alloc.reclaim_front_run_;
  const size_t cursor = alloc.reclaim_cursor_;
  const int32_t num_pages = alloc.lcm_.num_pages();

  // Layout first: everything below indexes through it. Runs tile the storage back to back,
  // and the cursor lies inside the front run (at the end when no run is left).
  bool laid_out = front <= runs.size() && generation.size() >= static_cast<size_t>(num_pages) &&
                  (runs.empty() ? storage.empty() : runs.back().end == storage.size());
  for (size_t r = 0; laid_out && r < runs.size(); ++r) {
    laid_out = runs[r].end > (r == 0 ? 0 : runs[r - 1].end);
  }
  if (laid_out) {
    const size_t front_begin = front == 0 ? 0 : runs[front - 1].end;
    laid_out = front == runs.size() ? cursor == storage.size()
                                    : cursor >= front_begin && cursor < runs[front].end;
  }
  const auto id_in_range = [&](const Entry& entry) {
    return JengaAllocator::ReclaimGroup(entry) < alloc.num_groups() &&
           static_cast<size_t>(JengaAllocator::ReclaimLarge(entry)) < generation.size();
  };
  laid_out = laid_out &&
             std::all_of(storage.begin() + static_cast<std::ptrdiff_t>(cursor), storage.end(),
                         id_in_range) &&
             std::all_of(side.begin(), side.end(), id_in_range);
  if (!laid_out) {
    Fail(out, tag + "runs, cursor or entry ids do not tile its " +
                  std::to_string(storage.size()) + "-entry storage");
    return;
  }

  // Order: runs ascend by timestamp and hold only their own timestamp, a sorted front run
  // ascends by key from the cursor, and the side store is a min-heap.
  std::vector<const Entry*> live(generation.size(), nullptr);
  std::vector<int> live_count(generation.size(), 0);
  const auto count_live = [&](const Entry& entry) {
    if (alloc.IsLiveReclaim(entry)) {
      const auto large = static_cast<size_t>(JengaAllocator::ReclaimLarge(entry));
      live[large] = &entry;
      live_count[large] += 1;
    }
  };
  for (size_t r = front, begin = cursor; r < runs.size(); begin = runs[r++].end) {
    if (r > front && runs[r].timestamp <= runs[r - 1].timestamp) {
      Fail(out, tag + "run " + std::to_string(r) + " at timestamp " +
                    std::to_string(runs[r].timestamp) + " does not follow timestamp " +
                    std::to_string(runs[r - 1].timestamp));
    }
    for (size_t i = begin; i < runs[r].end; ++i) {
      if (storage[i].timestamp != runs[r].timestamp) {
        Fail(out, tag + "entry " + std::to_string(i) + " has timestamp " +
                      std::to_string(storage[i].timestamp) + " in a run at " +
                      std::to_string(runs[r].timestamp));
      }
      count_live(storage[i]);
    }
  }
  if (alloc.reclaim_front_sorted_ && front < runs.size() &&
      !std::is_sorted(storage.begin() + static_cast<std::ptrdiff_t>(cursor),
                      storage.begin() + static_cast<std::ptrdiff_t>(runs[front].end))) {
    Fail(out, tag + "the sorted front run is out of order after its cursor");
  }
  if (!std::is_heap(side.begin(), side.end(), std::greater<Entry>{})) {
    Fail(out, tag + "the side heap violates the heap property");
  }
  for (const Entry& entry : side) {
    count_live(entry);
  }

  // Membership: a page is queued (odd generation) exactly when it has one live entry, only
  // pool pages are queued, and the queued count is the live count.
  size_t queued = 0;
  size_t live_entries = 0;
  for (size_t large = 0; large < generation.size(); ++large) {
    const bool is_queued = (generation[large] & 1) == 1;
    queued += is_queued ? 1 : 0;
    live_entries += static_cast<size_t>(live_count[large]);
    if (live_count[large] != (is_queued ? 1 : 0)) {
      Fail(out, tag + "large page " + std::to_string(large) +
                    (is_queued ? " is queued" : " is not queued") + " but has " +
                    std::to_string(live_count[large]) + " live entries");
    }
    if (is_queued && large >= static_cast<size_t>(num_pages)) {
      Fail(out, tag + "large page " + std::to_string(large) + " beyond the " +
                    std::to_string(num_pages) + "-page pool is queued");
    }
  }
  if (alloc.reclaim_live_ != queued || alloc.reclaim_live_ != live_entries ||
      alloc.reclaim_live_ > static_cast<size_t>(num_pages)) {
    Fail(out, tag + "counts " + std::to_string(alloc.reclaim_live_) + " queued pages, " +
                  std::to_string(queued) + " are queued with " + std::to_string(live_entries) +
                  " live entries in a " + std::to_string(num_pages) + "-page pool");
  }

  // Coverage: every whole-evictable page has a live entry under its owning group, keyed no
  // later than its current timestamp (the lazy re-key contract).
  for (int g = 0; g < alloc.num_groups(); ++g) {
    const SmallPageAllocator& grp = alloc.group(g);
    for (size_t index = 0; index < grp.larges_.size(); ++index) {
      const LargePageId large = static_cast<LargePageId>(index);
      if (!grp.IsReclaimCandidate(large)) {
        continue;
      }
      const Entry* entry = index < live.size() ? live[index] : nullptr;
      if (entry == nullptr || JengaAllocator::ReclaimGroup(*entry) != g) {
        Fail(out, tag + "whole-evictable large page " + std::to_string(large) + " of group " +
                      std::to_string(g) + " is not represented");
        continue;
      }
      const Tick current = grp.ReclaimTimestamp(large);
      if (entry->timestamp > current) {
        Fail(out, tag + "entry for group " + std::to_string(g) + " large " +
                      std::to_string(large) + " has timestamp " +
                      std::to_string(entry->timestamp) + " newer than the current " +
                      std::to_string(current));
      }
    }
  }

  // Storage: bounded by the entries written since the last compaction, which compaction keeps
  // within 2 × live + floor.
  const size_t stored = alloc.reclaim_queue_storage();
  if (stored > alloc.reclaim_written_) {
    Fail(out, tag + "stores " + std::to_string(stored) + " entries but counts only " +
                  std::to_string(alloc.reclaim_written_) + " written");
  }
  if (alloc.reclaim_written_ > 2 * alloc.reclaim_live_ + JengaAllocator::kReclaimStorageFloor) {
    Fail(out, tag + std::to_string(alloc.reclaim_written_) + " entries written since the last "
                  "compaction exceed 2 x " + std::to_string(alloc.reclaim_live_) + " live + " +
                  std::to_string(JengaAllocator::kReclaimStorageFloor));
  }
}

std::vector<std::string> AllocatorAuditor::CheckState(const JengaAllocator& alloc) {
  std::vector<std::string> violations;
  std::vector<std::string>* out = &violations;

  // Each allocated LCM page must be resident in exactly its owning group's slab — and only
  // there ("every small page maps into exactly one live large page of its group").
  int64_t held = 0;
  for (LargePageId page = 0; page < alloc.lcm_.num_pages(); ++page) {
    const int owner = alloc.lcm_.owner(page);
    for (int g = 0; g < alloc.num_groups(); ++g) {
      const bool resident =
          alloc.group(g).larges_[static_cast<size_t>(page)].resident;
      if (resident && owner != g) {
        Fail(out, "large page " + std::to_string(page) + " resident in group " +
                      std::to_string(g) + " but LCM owner is " + std::to_string(owner));
      }
      if (!resident && owner == g) {
        Fail(out, "large page " + std::to_string(page) + " owned by group " +
                      std::to_string(g) + " but not resident in its slab");
      }
    }
    if (owner >= 0) {
      held += 1;
    }
  }
  if (held != alloc.lcm_.num_allocated()) {
    Fail(out, "LCM owner table counts " + std::to_string(held) +
                  " allocated pages, allocator reports " +
                  std::to_string(alloc.lcm_.num_allocated()));
  }

  const JengaAllocator::MemoryBreakdown breakdown = alloc.GetBreakdown();
  if (breakdown.allocated_bytes !=
      breakdown.used_bytes + breakdown.evictable_bytes + breakdown.empty_bytes) {
    Fail(out, "byte conservation violated: allocated " +
                  std::to_string(breakdown.allocated_bytes) + " != used " +
                  std::to_string(breakdown.used_bytes) + " + evictable " +
                  std::to_string(breakdown.evictable_bytes) + " + empty " +
                  std::to_string(breakdown.empty_bytes));
  }

  for (int g = 0; g < alloc.num_groups(); ++g) {
    const std::vector<std::string> group = CheckState(alloc.group(g));
    violations.insert(violations.end(), group.begin(), group.end());
  }
  CheckReclaimQueue(alloc, out);
  return violations;
}

void AllocatorAuditor::AuditHost(std::vector<std::string>* out) const {
  if (host_.swap == nullptr) {
    return;
  }
  const std::string tag = "[host] ";
  const HostPool& pool = host_.swap->host_;

  int64_t bytes = 0;
  for (const auto& [id, entry] : pool.sets_) {
    bytes += entry.set.bytes;
    const auto it = host_.sets.find(id);
    if (it == host_.sets.end() || it->second != entry.set.bytes) {
      Fail(out, tag + "swap set " + std::to_string(id) + " (" +
                    std::to_string(entry.set.bytes) + "B) not mirrored in shadow");
    }
    const auto ref = pool.lru_.find(entry.seq);
    if (ref == pool.lru_.end() || !ref->second.is_set || ref->second.id != id) {
      Fail(out, tag + "swap set " + std::to_string(id) + " has a dangling LRU link");
    }
  }
  for (const auto& [key, entry] : pool.pages_) {
    bytes += entry.page.bytes;
    const auto it = host_.pages.find(std::make_tuple(key.manager, key.group, key.hash));
    if (it == host_.pages.end() || it->second != entry.page.bytes) {
      Fail(out, tag + "cache page (" + std::to_string(key.manager) + "," +
                    std::to_string(key.group) + "," + std::to_string(key.hash) +
                    ") not mirrored in shadow");
    }
    const auto ref = pool.lru_.find(entry.seq);
    if (ref == pool.lru_.end() || ref->second.is_set || !(ref->second.key == key)) {
      Fail(out, tag + "cache page (" + std::to_string(key.manager) + "," +
                    std::to_string(key.group) + "," + std::to_string(key.hash) +
                    ") has a dangling LRU link");
    }
  }
  if (bytes != pool.used_bytes_) {
    Fail(out, tag + "byte accounting " + std::to_string(pool.used_bytes_) +
                  " != sum of parked entries " + std::to_string(bytes));
  }
  if (bytes != host_.bytes) {
    Fail(out, tag + "shadow byte accounting " + std::to_string(host_.bytes) +
                  " != sum of parked entries " + std::to_string(bytes));
  }
  if (pool.used_bytes_ > pool.capacity_bytes_) {
    Fail(out, tag + "used bytes " + std::to_string(pool.used_bytes_) + " exceed capacity " +
                  std::to_string(pool.capacity_bytes_));
  }
  if (pool.lru_.size() != pool.sets_.size() + pool.pages_.size()) {
    Fail(out, tag + "LRU index has " + std::to_string(pool.lru_.size()) + " links for " +
                  std::to_string(pool.sets_.size() + pool.pages_.size()) + " entries");
  }
  if (host_.sets.size() != pool.sets_.size() || host_.pages.size() != pool.pages_.size()) {
    Fail(out, tag + "shadow holds " + std::to_string(host_.sets.size()) + " sets / " +
                  std::to_string(host_.pages.size()) + " pages, pool holds " +
                  std::to_string(pool.sets_.size()) + " / " +
                  std::to_string(pool.pages_.size()));
  }
  if (host_.swap->pending_transfer_ < 0.0) {
    Fail(out, tag + "negative pending transfer time");
  }
  const SwapManager::Stats& stats = host_.swap->stats();
  if (stats.host_pages_promoted > stats.host_pages_stored) {
    // A page must be parked before it can be promoted; promotion always erases the host
    // copy, so cumulative promotions can never outrun cumulative parks.
    Fail(out, tag + "promoted " + std::to_string(stats.host_pages_promoted) +
                  " pages but only " + std::to_string(stats.host_pages_stored) +
                  " were ever parked");
  }
}

std::vector<std::string> AllocatorAuditor::Audit() const {
  std::vector<std::string> out = event_errors_;
  for (size_t a = 0; a < allocs_.size(); ++a) {
    for (const std::string& violation : CheckState(*allocs_[a]->alloc)) {
      out.push_back("[alloc" + std::to_string(a) + "] " + violation);
    }
    for (int g = 0; g < allocs_[a]->alloc->num_groups(); ++g) {
      CompareShadow(a, g, &out);
    }
  }
  AuditHost(&out);
  return out;
}

std::optional<std::string> AllocatorAuditor::FirstViolation() const {
  const std::vector<std::string> violations = Audit();
  if (violations.empty()) {
    return std::nullopt;
  }
  return violations.front();
}

void AllocatorAuditor::InjectShadowFaultForTest() {
  for (auto& state : allocs_) {
    for (auto& group : state->groups) {
      for (auto& [page, slot] : group.slots) {
        (void)page;
        slot.state = slot.state == PageState::kUsed ? PageState::kEmpty : PageState::kUsed;
        return;
      }
    }
  }
  host_.bytes += 1;
}

}  // namespace jenga

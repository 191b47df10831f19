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
        const SmallPageAllocator::SlotMeta& meta = entry.slots[static_cast<size_t>(slot)];
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

void AllocatorAuditor::AuditGroup(size_t a, int g, std::vector<std::string>* out) const {
  const AllocState& state = *allocs_[a];
  const SmallPageAllocator& grp = state.alloc->group(g);
  const ShadowGroup& shadow = state.groups[static_cast<size_t>(g)];
  std::ostringstream tag_stream;
  tag_stream << "[alloc" << a << "/group" << g << "] ";
  const std::string tag = tag_stream.str();

  int64_t resident = 0;
  int64_t used = 0;
  int64_t evictable = 0;
  int64_t empty = 0;
  std::unordered_map<SmallPageId, Evictor::Key> ground_truth;

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
    if (grp.lcm_->owner(large) != g) {
      Fail(out, tag + "resident large page " + std::to_string(large) +
                    " is owned by group " + std::to_string(grp.lcm_->owner(large)) +
                    " in the LCM allocator");
    }
    if (static_cast<int>(entry.slots.size()) != grp.pages_per_large_) {
      Fail(out, tag + "large page " + std::to_string(large) + " has " +
                    std::to_string(entry.slots.size()) + " slots, expected " +
                    std::to_string(grp.pages_per_large_));
      continue;
    }
    if (!shadow.resident.contains(large)) {
      Fail(out, tag + "large page " + std::to_string(large) + " resident but not in shadow");
    }
    int32_t entry_used = 0;
    int32_t entry_evictable = 0;
    const SmallPageId base = static_cast<SmallPageId>(large) * grp.pages_per_large_;
    for (int slot = 0; slot < grp.pages_per_large_; ++slot) {
      const SmallPageAllocator::SlotMeta& meta = entry.slots[static_cast<size_t>(slot)];
      const SmallPageId page = base + slot;
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
    empty += entry.empty_count();
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
  if (shadow.resident.size() != static_cast<size_t>(resident)) {
    Fail(out, tag + "shadow tracks " + std::to_string(shadow.resident.size()) +
                  " resident large pages, actual " + std::to_string(resident));
  }
  if (shadow.slots.size() !=
      static_cast<size_t>(resident) * static_cast<size_t>(grp.pages_per_large_)) {
    Fail(out, tag + "shadow tracks " + std::to_string(shadow.slots.size()) +
                  " slots, expected " +
                  std::to_string(resident * grp.pages_per_large_));
  }

  // Evictor: authoritative keys == ground truth == event shadow; lazy heap covers all keys.
  const Evictor& evictor = grp.evictor_;
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
    } else if (!covered.contains(page)) {
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
    const auto sh = shadow.evictor.find(page);
    if (sh == shadow.evictor.end()) {
      Fail(out, tag + "evictor page " + std::to_string(page) + " missing from shadow");
    } else if (sh->second.first != key.last_access ||
               sh->second.second != -key.neg_prefix_length) {
      Fail(out, tag + "shadow evictor key for page " + std::to_string(page) + " is (" +
                    std::to_string(sh->second.first) + "," +
                    std::to_string(sh->second.second) + "), expected (" +
                    std::to_string(key.last_access) + "," +
                    std::to_string(-key.neg_prefix_length) + ")");
    }
  }
  if (shadow.evictor.size() != ground_truth.size()) {
    Fail(out, tag + "shadow evictor holds " + std::to_string(shadow.evictor.size()) +
                  " pages, ground truth " + std::to_string(ground_truth.size()));
  }

  // Cache index: every entry resolves to a resident page carrying that hash, and the table
  // stays at most half full (the probe-length bound).
  if (2 * grp.cache_index_.size() > grp.cache_index_.capacity()) {
    Fail(out, tag + "cache index holds " + std::to_string(grp.cache_index_.size()) +
                  " entries in " + std::to_string(grp.cache_index_.capacity()) + " slots");
  }
  grp.cache_index_.ForEach([&](BlockHash hash, SmallPageId page) {
    const LargePageId large = static_cast<LargePageId>(page / grp.pages_per_large_);
    if (!grp.IsResident(large)) {
      Fail(out, tag + "cache index maps hash " + std::to_string(hash) +
                    " to non-resident page " + std::to_string(page));
      return;
    }
    const SmallPageAllocator::SlotMeta& meta =
        grp.larges_[static_cast<size_t>(large)]
            .slots[static_cast<size_t>(page % grp.pages_per_large_)];
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
      const SmallPageAllocator::SlotMeta& meta =
          grp.larges_[static_cast<size_t>(ref.page / grp.pages_per_large_)]
              .slots[static_cast<size_t>(ref.page % grp.pages_per_large_)];
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
      if (entry.slots[static_cast<size_t>(slot)].state != PageState::kEmpty) {
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
}

void AllocatorAuditor::AuditReclaimHeap(size_t a, std::vector<std::string>* out) const {
  const JengaAllocator& alloc = *allocs_[a]->alloc;
  const std::string tag = "[alloc" + std::to_string(a) + "] ";
  const std::vector<JengaAllocator::ReclaimEntry>& heap = alloc.reclaim_heap_;
  const std::vector<int32_t>& pos = alloc.reclaim_pos_;
  // Min-heap under the (timestamp, group, large) order: std::greater makes is_heap check
  // that every parent orders at or before its children.
  if (!std::is_heap(heap.begin(), heap.end(), std::greater<JengaAllocator::ReclaimEntry>{})) {
    Fail(out, tag + "reclaim heap violates the heap property");
  }
  const int32_t num_pages = alloc.lcm_.num_pages();
  if (heap.size() > static_cast<size_t>(num_pages)) {
    Fail(out, tag + "reclaim heap holds " + std::to_string(heap.size()) + " entries for a " +
                  std::to_string(num_pages) + "-page pool");
  }
  if (pos.size() != static_cast<size_t>(num_pages)) {
    Fail(out, tag + "reclaim position index covers " + std::to_string(pos.size()) +
                  " large pages, the pool has " + std::to_string(num_pages));
  }
  // Each entry sits where the position index says, so no large page has two entries, and
  // the index points nowhere else.
  for (size_t i = 0; i < heap.size(); ++i) {
    const LargePageId large = heap[i].large;
    if (large < 0 || static_cast<size_t>(large) >= pos.size() ||
        pos[static_cast<size_t>(large)] != static_cast<int32_t>(i)) {
      Fail(out, tag + "reclaim heap slot " + std::to_string(i) + " holds large page " +
                    std::to_string(large) + " whose position index disagrees");
    }
  }
  const auto indexed = std::count_if(pos.begin(), pos.end(), [](int32_t at) { return at >= 0; });
  if (static_cast<size_t>(indexed) != heap.size()) {
    Fail(out, tag + "position index holds " + std::to_string(indexed) + " entries for a " +
                  std::to_string(heap.size()) + "-entry reclaim heap");
  }
  for (int g = 0; g < alloc.num_groups(); ++g) {
    const SmallPageAllocator& grp = alloc.group(g);
    for (size_t index = 0; index < grp.larges_.size(); ++index) {
      const LargePageId large = static_cast<LargePageId>(index);
      if (!grp.IsReclaimCandidate(large)) {
        continue;
      }
      const Tick current = grp.ReclaimTimestamp(large);
      const int32_t at = index < pos.size() ? pos[index] : -1;
      const bool represented = at >= 0 && static_cast<size_t>(at) < heap.size() &&
                               heap[static_cast<size_t>(at)].group == g;
      if (represented && heap[static_cast<size_t>(at)].timestamp > current) {
        Fail(out, tag + "reclaim entry for group " + std::to_string(g) + " large " +
                      std::to_string(large) + " has timestamp " +
                      std::to_string(heap[static_cast<size_t>(at)].timestamp) +
                      " newer than the current " + std::to_string(current));
      }
      if (!represented) {
        Fail(out, tag + "whole-evictable large page " + std::to_string(large) + " of group " +
                      std::to_string(g) + " is not represented on the reclaim heap");
      }
    }
  }
}

void AllocatorAuditor::AuditAllocator(size_t a, std::vector<std::string>* out) const {
  const JengaAllocator& alloc = *allocs_[a]->alloc;
  const std::string tag = "[alloc" + std::to_string(a) + "] ";

  // Each allocated LCM page must be resident in exactly its owning group's slab — and only
  // there ("every small page maps into exactly one live large page of its group").
  int64_t held = 0;
  for (LargePageId page = 0; page < alloc.lcm_.num_pages(); ++page) {
    const int owner = alloc.lcm_.owner(page);
    for (int g = 0; g < alloc.num_groups(); ++g) {
      const bool resident =
          alloc.group(g).larges_[static_cast<size_t>(page)].resident;
      if (resident && owner != g) {
        Fail(out, tag + "large page " + std::to_string(page) + " resident in group " +
                      std::to_string(g) + " but LCM owner is " + std::to_string(owner));
      }
      if (!resident && owner == g) {
        Fail(out, tag + "large page " + std::to_string(page) + " owned by group " +
                      std::to_string(g) + " but not resident in its slab");
      }
    }
    if (owner >= 0) {
      held += 1;
    }
  }
  if (held != alloc.lcm_.num_allocated()) {
    Fail(out, tag + "LCM owner table counts " + std::to_string(held) +
                  " allocated pages, allocator reports " +
                  std::to_string(alloc.lcm_.num_allocated()));
  }

  const JengaAllocator::MemoryBreakdown breakdown = alloc.GetBreakdown();
  if (breakdown.allocated_bytes !=
      breakdown.used_bytes + breakdown.evictable_bytes + breakdown.empty_bytes) {
    Fail(out, tag + "byte conservation violated: allocated " +
                  std::to_string(breakdown.allocated_bytes) + " != used " +
                  std::to_string(breakdown.used_bytes) + " + evictable " +
                  std::to_string(breakdown.evictable_bytes) + " + empty " +
                  std::to_string(breakdown.empty_bytes));
  }

  for (int g = 0; g < alloc.num_groups(); ++g) {
    AuditGroup(a, g, out);
  }
  AuditReclaimHeap(a, out);
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
    AuditAllocator(a, &out);
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

// Differential tests for the run paths SmallPageAllocator::AllocateN and ReleaseN: each must
// produce page ids, events, and later pops identical to its per-page loop (n consecutive
// Allocate calls with an explicit reverse rollback; a last-access pass followed by one
// Release per page). Twins run under the AllocatorAuditor so any shadow-model violation
// fails the test immediately.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/common/random.h"
#include "src/core/jenga_allocator.h"
#include "src/core/small_page_allocator.h"
#include "src/model/kv_spec.h"
#include "tests/audit/audit_test_util.h"

namespace jenga {
namespace {

// Same two-group Figure 6 shape as the auditor tests: 256 B image pages and 384 B text pages
// under a 768 B LCM page, so cross-group reclaim participates in victim selection.
KvSpec TwoGroupSpec() {
  KvSpec spec;
  KvGroupSpec image;
  image.name = "image";
  image.kind = GroupKind::kCrossAttention;
  image.scope = GroupScope::kImageTokens;
  image.num_layers = 2;
  image.bytes_per_token_per_layer = 128;
  image.tokens_per_page = 1;
  image.page_bytes = 256;
  KvGroupSpec text;
  text.name = "text";
  text.kind = GroupKind::kFullAttention;
  text.num_layers = 3;
  text.bytes_per_token_per_layer = 128;
  text.tokens_per_page = 1;
  text.page_bytes = 384;
  spec.groups = {image, text};
  return spec;
}

// The reference semantics AllocateN promises: n consecutive Allocate calls, releasing in
// reverse (keep_cached=false) and restoring *out on the first failure.
bool LoopAllocate(SmallPageAllocator& group, RequestId request, int64_t n, Tick now,
                  std::vector<SmallPageId>* out) {
  const size_t base = out->size();
  for (int64_t i = 0; i < n; ++i) {
    const std::optional<SmallPageId> page = group.Allocate(request, now);
    if (!page.has_value()) {
      for (size_t j = out->size(); j > base; --j) {
        group.Release((*out)[j - 1], /*keep_cached=*/false);
      }
      out->resize(base);
      return false;
    }
    out->push_back(*page);
  }
  return true;
}

// Seeds a mid-life state: cached pages in both groups (evictor-resident, revivable by hash)
// plus a held run, so AllocateN has to walk the same victim order as the loop.
void SeedState(JengaAllocator& alloc, std::vector<SmallPageId>* held) {
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(/*request=*/1, /*now=*/i);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    alloc.group(0).Release(p, /*keep_cached=*/true);
  }
  for (int i = 0; i < 4; ++i) {
    const SmallPageId p = *alloc.group(1).Allocate(/*request=*/2, /*now=*/10 + i);
    alloc.group(1).SetContentHash(p, 0x200 + static_cast<BlockHash>(i));
    alloc.group(1).Release(p, /*keep_cached=*/true);
  }
  for (int i = 0; i < 2; ++i) {
    held->push_back(*alloc.group(1).Allocate(/*request=*/3, /*now=*/20 + i));
  }
}

// Drains a group one page at a time; the resulting id sequence fingerprints the entire
// internal state (free lists, evictor order, cached contents).
std::vector<SmallPageId> DrainFingerprint(SmallPageAllocator& group, Tick now) {
  std::vector<SmallPageId> ids;
  while (const std::optional<SmallPageId> p = group.Allocate(/*request=*/99, now)) {
    ids.push_back(*p);
  }
  return ids;
}

TEST(AllocateN, MatchesLoopOnSuccess) {
  JengaAllocator bulk_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 8);
  JengaAllocator loop_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 8);
  AllocatorAuditor bulk_audit, loop_audit;
  bulk_audit.AttachAllocator(&bulk_alloc);
  loop_audit.AttachAllocator(&loop_alloc);

  std::vector<SmallPageId> held_bulk, held_loop;
  SeedState(bulk_alloc, &held_bulk);
  SeedState(loop_alloc, &held_loop);
  ASSERT_EQ(held_bulk, held_loop);

  // Bulk run large enough to consume free pages, revive nothing, and evict cached victims.
  std::vector<SmallPageId> bulk_pages{kNoSmallPage};  // Pre-existing tail must be preserved.
  std::vector<SmallPageId> loop_pages{kNoSmallPage};
  ASSERT_TRUE(bulk_alloc.group(1).AllocateN(/*request=*/7, 7, /*now=*/30, &bulk_pages));
  ASSERT_TRUE(LoopAllocate(loop_alloc.group(1), /*request=*/7, 7, /*now=*/30, &loop_pages));
  EXPECT_EQ(bulk_pages, loop_pages);
  ExpectConsistent(bulk_audit);
  ExpectConsistent(loop_audit);

  // Identical internal state afterwards: both twins hand out the same pages until empty.
  EXPECT_EQ(DrainFingerprint(bulk_alloc.group(0), /*now=*/40),
            DrainFingerprint(loop_alloc.group(0), /*now=*/40));
  ExpectConsistent(bulk_alloc);
  ExpectConsistent(loop_alloc);
}

TEST(AllocateN, RollsBackExactlyLikeLoopOnExhaustion) {
  JengaAllocator bulk_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 4);
  JengaAllocator loop_alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 4);
  AllocatorAuditor bulk_audit, loop_audit;
  bulk_audit.AttachAllocator(&bulk_alloc);
  loop_audit.AttachAllocator(&loop_alloc);

  std::vector<SmallPageId> held_bulk, held_loop;
  SeedState(bulk_alloc, &held_bulk);
  SeedState(loop_alloc, &held_loop);

  // Far beyond capacity: both must fail mid-bulk, roll back, and leave *out untouched.
  std::vector<SmallPageId> bulk_pages{kNoSmallPage};
  std::vector<SmallPageId> loop_pages{kNoSmallPage};
  EXPECT_FALSE(bulk_alloc.group(1).AllocateN(/*request=*/7, 64, /*now=*/30, &bulk_pages));
  EXPECT_FALSE(LoopAllocate(loop_alloc.group(1), /*request=*/7, 64, /*now=*/30, &loop_pages));
  EXPECT_EQ(bulk_pages, std::vector<SmallPageId>{kNoSmallPage});
  EXPECT_EQ(bulk_pages, loop_pages);
  ExpectConsistent(bulk_audit);
  ExpectConsistent(loop_audit);

  // Rollback released the partial run (keep_cached=false) identically on both sides. The
  // run path skips only pushes that would go stale unpopped, so it never holds more refs.
  const auto bulk_stats = bulk_alloc.group(1).GetFreeListStats();
  const auto loop_stats = loop_alloc.group(1).GetFreeListStats();
  EXPECT_LE(bulk_stats.any_refs, loop_stats.any_refs);
  EXPECT_LE(bulk_stats.by_request_refs, loop_stats.by_request_refs);
  EXPECT_EQ(bulk_stats.tracked_requests, loop_stats.tracked_requests);
  EXPECT_EQ(DrainFingerprint(bulk_alloc.group(1), /*now=*/40),
            DrainFingerprint(loop_alloc.group(1), /*now=*/40));
  EXPECT_EQ(DrainFingerprint(bulk_alloc.group(0), /*now=*/50),
            DrainFingerprint(loop_alloc.group(0), /*now=*/50));
  ExpectConsistent(bulk_alloc);
}

TEST(AllocateN, ZeroAndRepeatedCallsAreNoOpsAndComposable) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 4);
  std::vector<SmallPageId> pages;
  EXPECT_TRUE(alloc.group(0).AllocateN(/*request=*/1, 0, /*now=*/0, &pages));
  EXPECT_TRUE(pages.empty());
  // Two bulk calls behave like one larger bulk call.
  EXPECT_TRUE(alloc.group(0).AllocateN(/*request=*/1, 3, /*now=*/1, &pages));
  EXPECT_TRUE(alloc.group(0).AllocateN(/*request=*/1, 2, /*now=*/2, &pages));
  EXPECT_EQ(pages.size(), 5u);
  JengaAllocator one_call(TwoGroupSpec(), 768 * 4);
  std::vector<SmallPageId> reference;
  // Two now-ticks can't be replayed in one call; replay the same two-call shape unheld.
  EXPECT_TRUE(one_call.group(0).AllocateN(/*request=*/1, 3, /*now=*/1, &reference));
  EXPECT_TRUE(one_call.group(0).AllocateN(/*request=*/1, 2, /*now=*/2, &reference));
  EXPECT_EQ(pages, reference);
  ExpectConsistent(alloc);
}


// --- Run-path differential: AllocateN and ReleaseN against their per-page loops ---

// One full-attention group whose page fills the large page: no free lists, no evictor.
KvSpec OneSlotSpec() {
  KvSpec spec;
  KvGroupSpec text;
  text.name = "text";
  text.kind = GroupKind::kFullAttention;
  text.num_layers = 4;
  text.bytes_per_token_per_layer = 128;
  text.tokens_per_page = 1;
  text.page_bytes = 512;
  spec.groups = {text};
  return spec;
}

// A multi-slot attention group (8 pages per large page) beside a one-slot Mamba group.
KvSpec AttentionMambaSpec() {
  KvSpec spec;
  KvGroupSpec attention;
  attention.name = "attention";
  attention.kind = GroupKind::kFullAttention;
  attention.num_layers = 1;
  attention.bytes_per_token_per_layer = 128;
  attention.tokens_per_page = 1;
  attention.page_bytes = 128;
  KvGroupSpec mamba;
  mamba.name = "mamba";
  mamba.kind = GroupKind::kMamba;
  mamba.num_layers = 2;
  mamba.page_bytes = 1024;
  spec.groups = {attention, mamba};
  return spec;
}

// Every allocator event as one line of text, in delivery order.
class EventLog final : public AuditSink {
 public:
  void OnLargeAcquired(int g, LargePageId large, RequestId request) override {
    Add("acquire", g, large, request);
  }
  void OnLargeReleased(int g, LargePageId large) override { Add("large-free", g, large); }
  void OnPageClaimed(int g, SmallPageId page, RequestId request) override {
    Add("claim", g, page, request);
  }
  void OnPageRevived(int g, SmallPageId page) override { Add("revive", g, page); }
  void OnPageCached(int g, SmallPageId page, BlockHash hash) override {
    Add("cache", g, page, static_cast<int64_t>(hash));
  }
  void OnPageEmptied(int g, SmallPageId page) override { Add("empty", g, page); }
  void OnPageEvicted(int g, SmallPageId page) override { Add("evict", g, page); }
  void OnRequestForgotten(int g, RequestId request) override { Add("forget", g, request); }
  void OnBulkAllocate(int g, RequestId request, int64_t count) override {
    Add("bulk", g, request, count);
  }
  void OnHashIndexed(int g, BlockHash hash) override {
    Add("index", g, static_cast<int64_t>(hash));
  }
  void OnHashUnindexed(int g, BlockHash hash, const CacheEviction* evicted) override {
    Add("unindex", g, static_cast<int64_t>(hash),
        evicted == nullptr ? -1 : evicted->last_access, evicted == nullptr ? -1 : 1);
  }
  void OnEvictorInsert(int g, SmallPageId page, Tick last_access, int64_t prefix) override {
    Add("ev-insert", g, page, last_access, prefix);
  }
  void OnEvictorRemove(int g, SmallPageId page) override { Add("ev-remove", g, page); }
  void OnEvictorRekey(int g, SmallPageId page, Tick last_access, int64_t prefix) override {
    Add("ev-rekey", g, page, last_access, prefix);
  }
  void OnEvictorPop(int g, SmallPageId page) override { Add("ev-pop", g, page); }
  void OnReclaimPushed(int g, LargePageId large, Tick timestamp) override {
    Add("reclaim-push", g, large, timestamp);
  }
  void OnLargeReclaimed(int g, LargePageId large) override { Add("reclaim", g, large); }

  std::vector<std::string> events;

 private:
  template <typename... Fields>
  void Add(const char* kind, Fields... fields) {
    std::ostringstream line;
    line << kind;
    ((line << ' ' << fields), ...);
    events.push_back(line.str());
  }
};

enum class OpKind { kAlloc, kHole, kHash, kShare, kHit, kRelease, kTruncate, kForget };

struct Op {
  OpKind kind = OpKind::kAlloc;
  int group = 0;
  RequestId request = 1;
  RequestId other = 2;  // kShare: the request that takes the extra references.
  int64_t n = 1;        // Pages to claim, share, hit or truncate; kRelease: pages touched.
  bool keep_cached = false;
  Tick now = 0;
};

// One allocator driven through either the run paths or their per-page reference loops,
// holding one block table per (group, request) as KvManager does.
class Twin {
 public:
  Twin(const KvSpec& spec, int64_t pool_bytes, bool runs) : alloc_(spec, pool_bytes), runs_(runs) {
    alloc_.SetAuditSink(&log_);
    auditor_.AttachAllocator(&alloc_);
  }

  // Applies `op` and returns what a caller sees of it.
  std::string Apply(const Op& op) {
    SmallPageAllocator& group = alloc_.group(op.group);
    std::vector<SmallPageId>& table = tables_[{op.group, op.request}];
    std::ostringstream seen;
    switch (op.kind) {
      case OpKind::kAlloc: {
        const size_t before = table.size();
        const bool ok = runs_ ? group.AllocateN(op.request, op.n, op.now, &table)
                              : LoopAllocate(group, op.request, op.n, op.now, &table);
        if (ok && !runs_) {
          log_.OnBulkAllocate(op.group, op.request, op.n);  // The marker AllocateN adds.
        }
        seen << (ok ? "ok" : "fail");
        for (size_t i = before; i < table.size(); ++i) {
          seen << ' ' << table[i];
        }
        failed_allocs += ok ? 0 : 1;
        break;
      }
      case OpKind::kHole:
        table.push_back(kNoSmallPage);
        break;
      case OpKind::kHash:
        for (size_t j = 0; j < table.size(); ++j) {
          if (table[j] != kNoSmallPage) {
            group.SetContentHash(table[j], HashOf(op, static_cast<int64_t>(j)));
          }
        }
        break;
      case OpKind::kShare: {
        std::vector<SmallPageId>& taker = tables_[{op.group, op.other}];
        for (size_t j = 0; j < table.size() && static_cast<int64_t>(j) < op.n; ++j) {
          if (table[j] != kNoSmallPage) {
            group.AddRef(table[j]);
            taker.push_back(table[j]);
            seen << ' ' << table[j];
          }
        }
        break;
      }
      case OpKind::kHit:
        for (int64_t j = 0; j < op.n; ++j) {
          const std::optional<SmallPageId> page = group.LookupCached(HashOf(op, j));
          if (!page.has_value()) {
            break;
          }
          group.AddRef(*page);
          table.push_back(*page);
          seen << ' ' << *page;
        }
        break;
      case OpKind::kRelease:
        shared_releases += CountShared(group, table);
        if (runs_) {
          group.ReleaseN(table, op.keep_cached, op.now, op.n);
        } else {
          // KvManager's former shape: the deferred last-access pass, then one Release per page.
          for (size_t j = 0; j < table.size() && static_cast<int64_t>(j) < op.n; ++j) {
            if (table[j] != kNoSmallPage) {
              group.UpdateLastAccess(table[j], op.now);
            }
          }
          for (const SmallPageId page : table) {
            if (page != kNoSmallPage) {
              group.Release(page, op.keep_cached);
            }
          }
        }
        table.clear();
        break;
      case OpKind::kTruncate: {
        const size_t keep = table.size() - std::min<size_t>(table.size(), static_cast<size_t>(op.n));
        if (runs_) {
          std::reverse(table.begin() + static_cast<std::ptrdiff_t>(keep), table.end());
          group.ReleaseN(std::span<const SmallPageId>(table).subspan(keep),
                         /*keep_cached=*/false);
          table.resize(keep);
        } else {
          for (; table.size() > keep; table.pop_back()) {
            if (table.back() != kNoSmallPage) {
              group.Release(table.back(), /*keep_cached=*/false);
            }
          }
        }
        break;
      }
      case OpKind::kForget:
        alloc_.ForgetRequest(op.request);
        for (int g = 0; g < alloc_.num_groups(); ++g) {
          tables_.erase({g, op.request});  // The retired request holds nothing any more.
        }
        break;
    }
    return seen.str();
  }

  // Counters and sizes a caller can read, for every group.
  std::string Stats() const {
    std::ostringstream out;
    out << "lcm_free=" << alloc_.lcm().num_free();
    for (int g = 0; g < alloc_.num_groups(); ++g) {
      const SmallPageAllocator::Stats s = alloc_.group(g).GetStats();
      out << " | " << s.large_pages_held << ' ' << s.used_pages << ' ' << s.evictable_pages
          << ' ' << s.empty_pages << ' ' << s.used_bytes << ' ' << s.evictable_bytes << ' '
          << s.empty_bytes;
    }
    return out.str();
  }

  // The next 64 claims in every group, half for `request` (its affinity list first) and half
  // for a request id no op uses (the any-list). Changes the state; run it on a replay.
  std::vector<SmallPageId> Probe(RequestId request, Tick now) {
    std::vector<SmallPageId> claims;
    for (int g = 0; g < alloc_.num_groups(); ++g) {
      for (int i = 0; i < 64; ++i) {
        const std::optional<SmallPageId> page =
            alloc_.group(g).Allocate(i < 32 ? request : RequestId{999}, now);
        claims.push_back(page.value_or(kNoSmallPage));
      }
    }
    return claims;
  }

  const std::vector<std::string>& events() const { return log_.events; }
  const AllocatorAuditor& auditor() const { return auditor_; }

  int64_t failed_allocs = 0;
  int64_t shared_releases = 0;  // Pages released while another table still held them.

 private:
  static BlockHash HashOf(const Op& op, int64_t block) {
    // Requests with equal ids mod 3 share a prefix, so hits find each other's pages.
    return static_cast<BlockHash>(0x10000 * (op.group + 1) + 0x100 * (op.request % 3) + block);
  }

  static int64_t CountShared(const SmallPageAllocator& group,
                             const std::vector<SmallPageId>& table) {
    int64_t shared = 0;
    for (const SmallPageId page : table) {
      shared += page != kNoSmallPage && group.ref_count(page) > 1 ? 1 : 0;
    }
    return shared;
  }

  // Declared before and after alloc_ so the auditor detaches first and the log goes last.
  EventLog log_;
  JengaAllocator alloc_;
  AllocatorAuditor auditor_;
  bool runs_;
  std::map<std::pair<int, RequestId>, std::vector<SmallPageId>> tables_;
};

std::vector<Op> RandomOps(int num_groups, int64_t max_run, uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < count; ++i) {
    Op op;
    op.group = static_cast<int>(rng.UniformInt(0, num_groups - 1));
    op.request = rng.UniformInt(1, 5);
    op.other = op.request % 5 + 1;
    op.now = i + 1;
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 34) {
      op.kind = OpKind::kAlloc;
      op.n = rng.UniformInt(1, max_run);
    } else if (roll < 38) {
      op.kind = OpKind::kHole;
    } else if (roll < 50) {
      op.kind = OpKind::kHash;
    } else if (roll < 57) {
      op.kind = OpKind::kShare;
      op.n = rng.UniformInt(1, 4);
    } else if (roll < 64) {
      op.kind = OpKind::kHit;
      op.n = rng.UniformInt(1, 6);
    } else if (roll < 84) {
      op.kind = OpKind::kRelease;
      op.keep_cached = rng.Bernoulli(0.6);
      op.n = rng.UniformInt(0, 8);
    } else if (roll < 91) {
      op.kind = OpKind::kTruncate;
      op.n = rng.UniformInt(1, 4);
    } else {
      op.kind = OpKind::kForget;
    }
    ops.push_back(op);
  }
  return ops;
}

// What a run twin went through, for the vacuity checks.
struct Coverage {
  int64_t failed_allocs = 0;
  int64_t shared_releases = 0;
  int64_t large_frees = 0;
  int64_t forgets = 0;
};

// Drives twins through `ops` in lockstep and compares what each op returns, the events it
// fired, every group's stats and the LCM free count. After each op, fresh twins replay the
// prefix and compare the next 64 claims per group, which fingerprint the free lists, the
// evictor and the reclaim queue. Adds what the run twin went through to `*coverage`.

void ExpectRunsMatchLoops(const KvSpec& spec, int64_t pool_bytes, const std::vector<Op>& ops,
                          Coverage* coverage) {
  Twin runs(spec, pool_bytes, /*runs=*/true);
  Twin loop(spec, pool_bytes, /*runs=*/false);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "op " << i << " kind " << static_cast<int>(ops[i].kind)
                                    << " group " << ops[i].group << " request "
                                    << ops[i].request << " n " << ops[i].n);
    const size_t events_before = runs.events().size();
    EXPECT_EQ(runs.Apply(ops[i]), loop.Apply(ops[i]));
    EXPECT_EQ(runs.events(), loop.events());
    EXPECT_EQ(runs.Stats(), loop.Stats());
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged; first event of the op: "
                    << (events_before < runs.events().size() ? runs.events()[events_before]
                                                             : "none");
      break;
    }
    Twin runs_replay(spec, pool_bytes, /*runs=*/true);
    Twin loop_replay(spec, pool_bytes, /*runs=*/false);
    for (size_t j = 0; j <= i; ++j) {
      runs_replay.Apply(ops[j]);
      loop_replay.Apply(ops[j]);
    }
    const Tick later = static_cast<Tick>(ops.size()) + 1;
    ASSERT_EQ(runs_replay.Probe(ops[i].request, later), loop_replay.Probe(ops[i].request, later));
    ASSERT_EQ(runs_replay.events(), loop_replay.events());
  }
  ExpectConsistent(runs.auditor());
  ExpectConsistent(loop.auditor());
  coverage->failed_allocs += runs.failed_allocs;
  coverage->shared_releases += runs.shared_releases;
  for (const std::string& event : runs.events()) {
    coverage->large_frees += event.starts_with("large-free") ? 1 : 0;
    coverage->forgets += event.starts_with("forget") ? 1 : 0;
  }
}

struct RunSpecCase {
  const char* name;
  KvSpec (*spec)();
  int64_t pool_larges;
};

// Names the case in test IDs (the default would print the struct's pointer bytes).
void PrintTo(const RunSpecCase& c, std::ostream* os) { *os << c.name; }

class RunPathDifferential : public testing::TestWithParam<RunSpecCase> {};

TEST_P(RunPathDifferential, MatchesPerPageLoops) {
  const KvSpec spec = GetParam().spec();
  const int64_t pool_bytes = spec.LcmPageBytes() * GetParam().pool_larges;
  int64_t max_pages_per_large = 1;
  {
    const JengaAllocator probe(spec, pool_bytes);
    for (int g = 0; g < probe.num_groups(); ++g) {
      max_pages_per_large = std::max<int64_t>(max_pages_per_large,
                                              probe.group(g).pages_per_large());
    }
  }
  Coverage total;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // Runs from one page to three large pages' worth: shorter than a large page, spanning
    // several, and past the pool (exhaustion mid-run, then rollback).
    ExpectRunsMatchLoops(
        spec, pool_bytes,
        RandomOps(static_cast<int>(spec.groups.size()), 3 * max_pages_per_large, seed, 80),
        &total);
    if (testing::Test::HasFailure()) {
      return;
    }
  }
  // Vacuity: the schedules reached every case the run paths have to get right.
  EXPECT_GT(total.failed_allocs, 0) << "no run hit exhaustion";
  EXPECT_GT(total.shared_releases, 0) << "no release dropped a shared page";
  EXPECT_GT(total.large_frees, 0) << "no release returned a whole large page";
  if (max_pages_per_large > 1) {
    EXPECT_GT(total.forgets, 0) << "no forget dropped a live affinity list";
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, RunPathDifferential,
                         testing::Values(RunSpecCase{"OneSlot", &OneSlotSpec, 6},
                                         RunSpecCase{"Fig6TwoGroups", &TwoGroupSpec, 8},
                                         RunSpecCase{"AttentionMamba", &AttentionMambaSpec, 6}),
                         [](const testing::TestParamInfo<RunSpecCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace jenga

#include "src/engine/spec_decode.h"

#include <algorithm>
#include <vector>

#include "src/baseline/smartspec.h"
#include "src/common/check.h"

namespace jenga {

const char* SpecStrategyName(SpecStrategy strategy) {
  switch (strategy) {
    case SpecStrategy::kJenga:
      return "jenga";
    case SpecStrategy::kVllmMax:
      return "vllm-max";
    case SpecStrategy::kVllmManual:
      return "vllm-manual";
  }
  return "unknown";
}

namespace {

// Prefill target: on (re-)admission every token before the generation frontier must have its
// KV recomputed, including previously generated tokens (preempt-by-recompute semantics).
int64_t PrefillTarget(const Request& r) { return r.prompt_len() + r.num_generated; }

}  // namespace

SpecDecodeEngine::SpecDecodeEngine(SpecDecodeConfig config)
    : SchedulerCore(config, config.gpu.max_batched_tokens,
                    // Recompute runs both models over the restored prefix.
                    2.0 * (config.target.params_b + config.draft.params_b) * 1e9),
      config_(std::move(config)),
      target_gpu_(config_.gpu, config_.target),
      draft_gpu_(config_.gpu, config_.draft),
      rng_(config_.seed) {
  // Both models' weights live on the GPU.
  const int64_t weights = config_.target.WeightBytes() + config_.draft.WeightBytes();
  int64_t pool = config_.pool_bytes_override > 0
                     ? config_.pool_bytes_override
                     : config_.gpu.memory_bytes - weights - config_.gpu.reserved_bytes;
  JENGA_CHECK_GT(pool, 0) << "models do not fit on " << config_.gpu.name;

  const int bs = config_.tokens_per_page;
  KvManager::Options options;
  options.tokens_per_page = bs;
  options.enable_prefix_caching = false;  // Fig. 19 isolates allocation efficiency.

  const KvSpec target_jenga = MakeJengaSpec(config_.target, bs, /*vision_cache=*/false);
  const KvSpec draft_jenga = MakeJengaSpec(config_.draft, bs, /*vision_cache=*/false);
  const KvSpec merged_accounting =
      MergeKvSpecs({{"target", target_jenga}, {"draft", draft_jenga}});

  options.jenga = config_.strategy == SpecStrategy::kJenga;
  if (!options.jenga) {
    // Homogeneous engines reserve Mamba state statically for both models.
    const int64_t reservation = StaticMambaReservationBytes(config_.target, max_num_seqs_) +
                                StaticMambaReservationBytes(config_.draft, max_num_seqs_);
    JENGA_CHECK_LT(reservation, pool);
    pool -= reservation;
  }
  switch (config_.strategy) {
    case SpecStrategy::kJenga:
      AddManager(std::make_unique<KvManager>(merged_accounting, merged_accounting, pool, options));
      break;
    case SpecStrategy::kVllmMax: {
      // One uniform page sized for the larger model; every token pays it for both models.
      const int64_t max_per_token = std::max(config_.target.KvBytesPerTokenAllLayers(),
                                             config_.draft.KvBytesPerTokenAllLayers());
      const KvSpec alloc =
          MakeHomogeneousSpec(config_.target, bs, /*bytes_per_token_override=*/2 * max_per_token);
      AddManager(std::make_unique<KvManager>(alloc, merged_accounting, pool, options));
      break;
    }
    case SpecStrategy::kVllmManual: {
      PoolSplit split = SmartSpecSplit(config_.target, config_.draft, pool);
      if (config_.manual_draft_fraction >= 0.0) {
        JENGA_CHECK_LE(config_.manual_draft_fraction, 1.0);
        split.draft_bytes =
            static_cast<int64_t>(static_cast<double>(pool) * config_.manual_draft_fraction);
        split.target_bytes = pool - split.draft_bytes;
      }
      AddManager(std::make_unique<KvManager>(MakeHomogeneousSpec(config_.target, bs),
                                             target_jenga, split.target_bytes, options));
      AddManager(std::make_unique<KvManager>(MakeHomogeneousSpec(config_.draft, bs), draft_jenga,
                                             split.draft_bytes, options));
      break;
    }
  }

  // One consult per macro step through the target model's sim; a fired fault voids the whole
  // draft+verify pass.
  target_gpu_.set_fault_injector(fault_.get());
}

int64_t SpecDecodeEngine::ShiftSplit(int from, int to, int64_t bytes) {
  if (config_.strategy != SpecStrategy::kVllmManual || managers_.size() < 2 || from == to ||
      bytes <= 0) {
    return 0;
  }
  JengaAllocator& src = managers_[static_cast<size_t>(from)]->allocator_mutable();
  JengaAllocator& dst = managers_[static_cast<size_t>(to)]->allocator_mutable();
  const int64_t src_page = src.lcm().large_page_bytes();
  const int64_t dst_page = dst.lcm().large_page_bytes();
  const auto want = static_cast<int32_t>(std::max<int64_t>(1, bytes / src_page));
  // One transfer, two transitions: the donor's drain and the recipient's reservation. Both
  // sites are consulted before any mutation so a fire on either means nothing changed.
  metrics_.pool_shrink_attempts += 1;
  metrics_.pool_grow_attempts += 1;
  if (TransitionFaultFired(FaultSite::kPoolShrinkDrain, &metrics_.pool_shrink_rollbacks) ||
      TransitionFaultFired(FaultSite::kPoolGrow, &metrics_.pool_grow_rollbacks)) {
    return 0;
  }
  const int32_t removed = src.ShrinkPool(want);
  if (removed == 0) {
    return 0;  // Donor tail pinned by live pages; committed with zero delta.
  }
  const int64_t freed = static_cast<int64_t>(removed) * src_page;
  const auto gained = static_cast<int32_t>(freed / dst_page);
  if (gained == 0) {
    // The freed run is smaller than one recipient page: give it back to the donor (the page
    // ids re-appear at the same dense tail positions) instead of stranding capacity.
    src.GrowPool(removed);
    return 0;
  }
  dst.GrowPool(gained);
  metrics_.pool_shrink_pages += removed;
  metrics_.pool_grow_pages += gained;
  // The sub-page remainder also returns to the donor so the two pools always account for
  // every byte of the original split.
  const auto remainder_pages =
      static_cast<int32_t>((freed - static_cast<int64_t>(gained) * dst_page) / src_page);
  if (remainder_pages > 0) {
    src.GrowPool(remainder_pages);
    metrics_.pool_shrink_pages -= remainder_pages;
  }
  return static_cast<int64_t>(gained) * dst_page;
}

bool SpecDecodeEngine::StepOnce() {
  if (running_.empty() && waiting_.empty()) {
    return false;
  }
  StepProfiler::StepScope prof_step(prof_);
  if (!BeginStep()) {
    return false;
  }

  int64_t budget = max_batched_tokens_;
  int64_t prefill_tokens = 0;
  // Requests that prefilled (or were restored) this step, in order. Each is stamped with this
  // step's tick, which the decode phase checks to skip them.
  std::vector<Request*>& prefilled = prefilled_buf_;
  prefilled.clear();
  const auto mark_prefilled = [&](Request& r) {
    prefilled.push_back(&r);
    r.prefilled_tick = tick_;
  };
  // Prefill chunks commit inline (both models run them before the macro step), so they
  // survive a step fault later in this step.
  const auto commit_prefill = [&](Request& r, int64_t n) {
    r.num_computed_tokens += n;
    {
      StepProfiler::Scope prof_commit(prof_, StepPhase::kCommit);
      StepComputedAll(r);
    }
    prefill_tokens += n;
    metrics_.prefill_tokens_computed += n;
    mark_prefilled(r);
  };

  {
    StepProfiler::Scope prof_schedule(prof_, StepPhase::kSchedule);
    // Phase 1: continue prefill (and post-preemption recompute) of running requests. A chunk
    // that does not fit retries next step, once decodes free memory, without preempting.
    for (const RequestQueue::Node* node = running_.first(); node != nullptr; node = node->next) {
      Request& r = *node->request;
      if (r.num_computed_tokens >= PrefillTarget(r) || budget <= 0) {
        continue;
      }
      const int64_t n = std::min<int64_t>(PrefillTarget(r) - r.num_computed_tokens, budget);
      bool allocated;
      {
        StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
        allocated = AllocateAll(r, n);
      }
      if (allocated) {
        commit_prefill(r, n);
        budget -= n;
      }
    }

    // Phase 2: admissions. A restored request's transfer is still in flight this step; it
    // decodes from the next step on.
    AdmitArrived(budget, PrefillTarget, [&](Request& r, int64_t n) {
      if (n == 0) {
        mark_prefilled(r);
      } else {
        commit_prefill(r, n);
      }
    });
  }

  // Phase 3: decode macro step — draft proposes, target verifies, accepted tokens commit.
  // Generated token ids are appended before allocation so block tables can cover them.
  std::vector<Emit>& decode_emits = emits_buf_;
  decode_emits.clear();
  int64_t decode_kv_read = 0;
  {
    StepProfiler::Scope prof_decode(prof_, StepPhase::kSchedule);
    for (const RequestQueue::Node* node = running_.first(); node != nullptr;) {
      Request& r = *node->request;
      if (r.prefilled_tick == tick_ || r.num_computed_tokens < PrefillTarget(r)) {
        node = node->next;
        continue;
      }
      int accepted = 0;
      while (accepted < config_.propose_len && rng_.Bernoulli(config_.acceptance_rate)) {
        ++accepted;
      }
      const int64_t emit = std::min<int64_t>(accepted + 1, r.output_len - r.num_generated);
      if (emit == 0) {
        // Every output token was already appended before a mid-decode self-preemption, and
        // the recompute that just completed re-covered their KV: the request finishes through
        // the normal commit path below without emitting anything new.
        decode_emits.push_back({&r, 0});
        node = node->next;
        continue;
      }
      for (int64_t j = 0; j < emit; ++j) {
        r.AppendGenerated(PseudoToken(r.id, r.total_len()));
      }
      if (!AllocateOrPreempt(r, emit)) {
        // Tokens stay appended; recompute covers their KV after re-admission. Everything after
        // `r` was already preempted back-first, so the iteration is over — and the successor
        // must be read after the preempt loop anyway, since the loop unlinks it.
        break;
      }
      {
        StepProfiler::Scope prof_gpu(prof_, StepPhase::kGpuSim);
        for (auto& manager : managers_) {
          decode_kv_read += manager->DecodeKvReadBytes(r);
        }
      }
      decode_emits.push_back({&r, emit});
      node = node->next;
    }
  }

  if (prefilled.empty() && decode_emits.empty()) {
    // Everything blocked (e.g. a prefill cannot fit next to the others): preempt the youngest
    // running request so the head of the line can progress.
    if (!running_.empty()) {
      Preempt(*running_.back());
      return true;
    }
    // Either the head of the waiting line retries next step (after the next arrival, when
    // none has arrived yet), or every remaining request was failed at admission above and no
    // work remains.
    AdvanceToNextArrival();
    return !waiting_.empty();
  }

  // Phase 4: time accounting — chunked prefill on both models + propose_len draft steps +
  // one target verification pass over batch × (k+1) tokens.
  bool step_failed;
  {
    StepProfiler::Scope prof_gpu(prof_, StepPhase::kGpuSim);
    double step_time = 0.0;
    if (prefill_tokens > 0) {
      step_time +=
          target_gpu_.StepTime(prefill_tokens, 0) + draft_gpu_.StepTime(prefill_tokens, 0);
    }
    if (!decode_emits.empty()) {
      const int64_t batch = static_cast<int64_t>(decode_emits.size());
      const int64_t per_pass_read = decode_kv_read / (config_.propose_len + 1);
      for (int j = 0; j < config_.propose_len; ++j) {
        step_time += draft_gpu_.StepTime(batch, per_pass_read);
      }
      step_time += target_gpu_.StepTime(batch * (config_.propose_len + 1), per_pass_read);
    }
    AdvanceClock(step_time);

    // A fired GPU step fault voids the whole draft+verify pass: the Phase 5 commit is
    // skipped, and the appended-but-uncommitted decode tokens recover through the Phase 1
    // recompute path next step (the same mechanism a mid-decode self-preemption relies on —
    // their pages are already allocated, so the retry is cheap). Prefill commits in Phases
    // 1–2 are inline and survive the fault.
    step_failed = target_gpu_.InjectStepFault();
  }
  if (step_failed) {
    metrics_.gpu_step_faults += 1;
    metrics_.RecordStep(now_, prefill_tokens, 0);
    return true;
  }

  // Phase 5: commit.
  int64_t emitted_total = 0;
  StepProfiler::Scope prof_commit(prof_, StepPhase::kCommit);
  for (const Emit& e : decode_emits) {
    Request& r = *e.request;
    r.num_computed_tokens += e.tokens;
    StepComputedAll(r);
    if (r.first_token_time < 0.0) {
      r.first_token_time = now_;
    }
    emitted_total += e.tokens;
    if (r.num_generated >= r.output_len) {
      ReleaseAll(r, /*finished=*/true);
      running_.Erase(r.id);
      FinishRequest(r, /*failed=*/false);
    }
  }
  for (Request* const p : prefilled) {
    Request& r = *p;
    if (r.state == RequestState::kRunning && r.num_generated == 0 &&
        r.num_computed_tokens >= r.prompt_len()) {
      r.AppendGenerated(PseudoToken(r.id, r.total_len()));
      r.first_token_time = now_;
      ++emitted_total;
    }
  }

  metrics_.RecordStep(now_, prefill_tokens + emitted_total,
                      static_cast<int>(decode_emits.size()));
  return true;
}

}  // namespace jenga

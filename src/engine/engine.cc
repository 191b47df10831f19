#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace jenga {

EngineConfig VllmProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config;
  config.model = std::move(model);
  config.gpu = std::move(gpu);
  config.jenga = false;
  config.vision_cache = false;
  return config;
}

EngineConfig SglangProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config = VllmProfile(std::move(model), std::move(gpu));
  config.memory_fraction = 1.04;  // SGLang reserves slightly less for runtime state.
  return config;
}

EngineConfig TgiProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config = VllmProfile(std::move(model), std::move(gpu));
  config.memory_fraction = 0.95;
  config.output_fraction = 0.6;  // No --ignore-eos: generation stops early (§7.3).
  return config;
}

EngineConfig JengaProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config;
  config.model = std::move(model);
  config.gpu = std::move(gpu);
  config.jenga = true;
  config.vision_cache = true;
  return config;
}

Engine::Engine(EngineConfig config)
    : SchedulerCore(config,
                    config.max_batched_tokens_override > 0 ? config.max_batched_tokens_override
                                                           : config.gpu.max_batched_tokens,
                    2.0 * config.model.params_b * 1e9),  // Dense forward ≈ 2·params.
      config_(std::move(config)),
      gpu_(config_.gpu, config_.model) {
  AddManager(BuildKvManager(config_.model, config_.pool_bytes_override, &reserved_bytes_));
  gpu_.set_fault_injector(fault_.get());
}

std::unique_ptr<KvManager> Engine::BuildKvManager(const ModelConfig& model, int64_t pool_bytes,
                                                  int64_t* reserved_bytes) const {
  int64_t pool = pool_bytes;
  if (pool <= 0) {
    const double derived = static_cast<double>(GpuSim(config_.gpu, model).KvPoolBytes());
    pool = static_cast<int64_t>(derived * config_.memory_fraction);
  }
  *reserved_bytes = config_.gpu.reserved_bytes;
  if (!config_.jenga && model.HasKind(LayerKind::kMamba)) {
    // Homogeneous engines reserve Mamba state statically for the full batch capacity.
    const int64_t reservation = StaticMambaReservationBytes(model, max_num_seqs_);
    JENGA_CHECK_LT(reservation, pool) << "mamba reservation exceeds the KV pool";
    pool -= reservation;
    *reserved_bytes += reservation;
  }
  const bool vision = config_.jenga && config_.vision_cache && model.vision.present;
  KvSpec alloc_spec = config_.jenga ? MakeJengaSpec(model, config_.tokens_per_page, vision)
                                    : MakeHomogeneousSpec(model, config_.tokens_per_page);
  KvSpec accounting_spec = MakeJengaSpec(model, config_.tokens_per_page, vision);
  KvManager::Options options;
  options.tokens_per_page = config_.tokens_per_page;
  options.enable_prefix_caching = config_.enable_prefix_caching;
  options.memoize_admission = config_.memoize_admission;
  options.jenga = config_.jenga;
  options.tokens_per_image = model.vision.tokens_per_image;
  return std::make_unique<KvManager>(std::move(alloc_spec), std::move(accounting_spec), pool,
                                     options);
}

int64_t Engine::EffectiveOutputLen(const Request& r) const {
  if (config_.output_fraction >= 1.0) {
    return r.output_len;
  }
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(static_cast<double>(r.output_len) *
                                           config_.output_fraction)));
}

int32_t Engine::GrowKvPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  metrics_.pool_grow_attempts += 1;
  if (TransitionFaultFired(FaultSite::kPoolGrow, &metrics_.pool_grow_rollbacks)) {
    return 0;  // The reservation failed: the ledger records the attempt with zero net delta.
  }
  kv().allocator_mutable().GrowPool(pages);
  metrics_.pool_grow_pages += pages;
  return pages;
}

int32_t Engine::ShrinkKvPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  metrics_.pool_shrink_attempts += 1;
  if (TransitionFaultFired(FaultSite::kPoolShrinkDrain, &metrics_.pool_shrink_rollbacks)) {
    return 0;
  }
  // Draining the free tail can evict cached blocks that the offload tier parks to host;
  // an injected host failure in that path may degrade the tier outside any engine step.
  const int32_t removed = kv().allocator_mutable().ShrinkPool(pages);
  metrics_.pool_shrink_pages += removed;
  return removed;
}

bool Engine::RepartitionKvPool(const ModelConfig& new_model, int64_t new_pool_bytes) {
  metrics_.repartition_attempts += 1;
  // Quiesce: preempt every running request back to the waiting queue through the recompute
  // path. Swap sets bind their fingerprints to the layout being replaced, so parking here
  // would only produce restore failures later.
  while (!running_.empty()) {
    Preempt(*running_.back(), /*allow_swap=*/false);
  }

  // Build the replacement layout exactly the way the constructor built the old one.
  int64_t reserved = 0;
  std::unique_ptr<KvManager> fresh = BuildKvManager(new_model, new_pool_bytes, &reserved);

  if (TransitionFaultFired(FaultSite::kRepartitionCommit, &metrics_.repartition_rollbacks)) {
    // Rollback: discard the freshly built manager; the old layout never stopped being
    // authoritative and the quiesced requests re-admit against it on the next step.
    return false;
  }

  // Commit. Host-tier state (swap sets, parked cache pages) is keyed by the old layout's
  // group structure and hash salts — flush it wholesale and clear the per-request swap flags
  // so every quiesced request takes the recompute admission path.
  if (swap_ != nullptr) {
    swap_->FlushHostState();
  }
  for (auto& [id, r] : requests_) {
    if (r.swapped_out) {
      FallBackFromSwap(r);
    }
  }
  config_.model = new_model;
  gpu_ = GpuSim(config_.gpu, new_model);
  gpu_.set_fault_injector(fault_.get());
  reserved_bytes_ = reserved;
  ReplaceManager(0, std::move(fresh));
  metrics_.repartitions += 1;
  return true;
}

double Engine::MaybeEncodeVision(Request& r, int64_t chunk_begin, int64_t chunk_end) {
  if (!config_.model.vision.present || r.ImageTokens() == 0) {
    return 0.0;
  }
  const int64_t total_image_tokens = r.ImageTokens();
  if (config_.jenga && config_.vision_cache) {
    // Encode once per admission; the embeddings then live in the vision-embedding cache.
    if (r.vision_encoder_runs_this_admission > 0) {
      return 0.0;
    }
    r.vision_encoder_runs_this_admission += 1;
    r.vision_encoder_runs += 1;
    metrics_.vision_encoder_runs += 1;
    const double t = gpu_.VisionEncodeTime(total_image_tokens);
    metrics_.vision_encode_time += t;
    return t;
  }
  // No vision cache: the encoder re-runs on every chunk that consumes image tokens (§7.4).
  const int64_t images_in_chunk =
      r.ImageTokensBefore(std::min<int64_t>(chunk_end, r.prompt_len())) -
      r.ImageTokensBefore(std::min<int64_t>(chunk_begin, r.prompt_len()));
  if (images_in_chunk <= 0) {
    return 0.0;
  }
  r.vision_encoder_runs += 1;
  metrics_.vision_encoder_runs += 1;
  const double t = gpu_.VisionEncodeTime(total_image_tokens);
  metrics_.vision_encode_time += t;
  return t;
}

bool Engine::StepOnce() {
  if (running_.empty() && waiting_.empty()) {
    return false;
  }
  StepProfiler::StepScope prof_step(prof_);
  if (!BeginStep()) {
    return false;
  }

  int64_t budget = max_batched_tokens_;
  // Reused across steps: per-step construction showed up as malloc traffic on the
  // steps-per-second path (ROADMAP item 5).
  std::vector<Scheduled>& scheduled = scheduled_buf_;
  scheduled.clear();
  double vision_time = 0.0;

  {
    StepProfiler::Scope prof_schedule(prof_, StepPhase::kSchedule);
    // Phase 1: running requests, FCFS. Decode requests take one token; prefilling requests
    // take a chunk. Allocation failure preempts from the back of the running list.
    for (const RequestQueue::Node* node = running_.first(); node != nullptr;) {
      Request& r = *node->request;
      const bool prefill = r.InPrefill();
      int64_t n = prefill ? std::min<int64_t>(r.prompt_len() - r.num_computed_tokens, budget) : 1;
      if (budget <= 0 || n <= 0) {
        node = node->next;
        continue;
      }
      n = std::min<int64_t>(n, budget);
      if (!AllocateOrPreempt(r, n)) {
        // Every entry after `r` was preempted (back-first) before `r` itself was; nothing is
        // left to visit. The successor must be read after the preempt loop either way — the
        // loop unlinks it.
        break;
      }
      {
        StepProfiler::Scope prof_vision(prof_, StepPhase::kGpuSim);
        vision_time += MaybeEncodeVision(r, r.num_computed_tokens, r.num_computed_tokens + n);
      }
      budget -= n;
      scheduled.push_back({&r, n, prefill});
      node = node->next;
    }

    // Phase 2: admissions. Every scheduled request is still in running_ (phase 1 preempts
    // only from behind the request it schedules), so the core's "nothing runnable" test
    // covers this step's batch too.
    AdmitArrived(
        budget, [](const Request& r) { return r.prompt_len(); },
        [&](Request& r, int64_t n) {
          if (n == 0) {
            // Restored from its swap set: the vision-embedding pages came back with it, so the
            // encoder does not re-run. It decodes (or resumes) next step.
            if (config_.jenga && config_.vision_cache && config_.model.vision.present &&
                r.ImageTokens() > 0) {
              r.vision_encoder_runs_this_admission =
                  std::max(r.vision_encoder_runs_this_admission, 1);
            }
            return;
          }
          {
            StepProfiler::Scope prof_vision(prof_, StepPhase::kGpuSim);
            vision_time += MaybeEncodeVision(r, r.num_computed_tokens, r.num_computed_tokens + n);
          }
          scheduled.push_back({&r, n, true});
        });
  }

  if (scheduled.empty()) {
    // Pending PCIe transfers have no compute to hide behind; drain them as pure stall.
    if (swap_ != nullptr && swap_->HasPendingTransfer()) {
      AdvanceClock(/*compute_time=*/0.0);
    }
    // Nothing runnable now: advance to the next arrival if one exists. Otherwise every
    // waiting request has arrived but none was schedulable: either decodes blocked on a
    // transiently full pool (running non-empty — retry next step) or this step only drained
    // failed requests and the queues are settling.
    AdvanceToNextArrival();
    return true;
  }

  // Phase 3: execute the step on the simulated GPU.
  int64_t scheduled_tokens = 0;
  int decode_batch = 0;
  bool step_failed;
  {
    StepProfiler::Scope prof_gpu(prof_, StepPhase::kGpuSim);
    int64_t new_tokens = 0;
    int64_t kv_read_bytes = 0;
    for (const Scheduled& s : scheduled) {
      new_tokens += s.tokens;
      kv_read_bytes += kv().DecodeKvReadBytes(*s.request);
      if (!s.was_prefill) {
        ++decode_batch;
      }
    }
    scheduled_tokens = new_tokens;
    AdvanceClock(gpu_.StepTime(new_tokens, kv_read_bytes) + vision_time);

    // The step's GPU time is spent either way; on an injected step fault its results are
    // lost, so the commit below is skipped. Allocations are target-based (AllocateForTokens
    // is idempotent at an unchanged num_computed_tokens), so retrying the same chunk next
    // step is safe and re-uses the pages taken this step.
    step_failed = gpu_.InjectStepFault();
    if (step_failed) {
      metrics_.gpu_step_faults += 1;
    }
  }

  // Phase 4: commit progress, emit tokens, finish requests.
  if (!step_failed) {
    StepProfiler::Scope prof_commit(prof_, StepPhase::kCommit);
    for (const Scheduled& s : scheduled) {
      Request& r = *s.request;
      r.num_computed_tokens += s.tokens;
      if (s.was_prefill) {
        metrics_.prefill_tokens_computed += s.tokens;
      }
      kv().OnStepComputed(r, tick_);
      const int64_t effective_output = EffectiveOutputLen(r);
      while (r.num_generated < effective_output &&
             r.num_computed_tokens >= r.prompt_len() + r.num_generated) {
        r.AppendGenerated(PseudoToken(r.id, r.prompt_len() + r.num_generated));
        if (r.first_token_time < 0.0) {
          r.first_token_time = now_;
        }
      }
      if (r.num_generated >= effective_output) {
        kv().Release(r, /*finished=*/true);
        running_.Erase(r.id);
        FinishRequest(r, /*failed=*/false);
      }
    }
  }

  metrics_.RecordStep(now_, step_failed ? 0 : scheduled_tokens, step_failed ? 0 : decode_batch);
  if (config_.memory_sample_every > 0 &&
      metrics_.total_steps() % config_.memory_sample_every == 0) {
    const KvManager::MemoryStats stats = kv().GetMemoryStats();
    MemorySample sample;
    sample.time = now_;
    sample.weight_bytes = config_.model.WeightBytes();
    sample.reserved_bytes = reserved_bytes_;
    sample.used_bytes = stats.needed_bytes;
    sample.wasted_bytes = stats.wasted_bytes;
    sample.cached_bytes = stats.cached_bytes;
    sample.unallocated_bytes = stats.unallocated_bytes;
    sample.host_bytes = swap_ != nullptr ? swap_->host().used_bytes() : 0;
    metrics_.RecordMemory(sample);
  }
  return true;
}

}  // namespace jenga

#include "src/elastic/memory_governor.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace jenga {

namespace {

// Engine-mode ladder rungs, climbed in order while pressure persists.
constexpr int kRungPark = 0;
constexpr int kRungShed = 1;
constexpr int kRungRepartition = 2;
constexpr int kMaxRung = kRungRepartition;

}  // namespace

MemoryGovernor::MemoryGovernor(GovernorConfig config)
    : config_(config), gate_(config.low_watermark, config.high_watermark) {
  JENGA_CHECK_LE(config_.low_watermark, config_.high_watermark);
  JENGA_CHECK_GT(config_.grow_step_pages, 0);
  JENGA_CHECK_GT(config_.shrink_step_pages, 0);
}

void MemoryGovernor::RequestHotSwap(ModelConfig model, int64_t pool_bytes) {
  PendingSwap swap;
  swap.model = std::move(model);
  swap.pool_bytes = pool_bytes;
  pending_swap_ = std::move(swap);
}

bool MemoryGovernor::TryRung(Engine& engine, int rung) {
  switch (rung) {
    case kRungPark:
      return engine.ParkNewestRunning();
    case kRungShed:
      return engine.ShedOldestWaiting();
    case kRungRepartition: {
      if (!config_.fallback_model.has_value() || fallback_applied_) {
        return false;
      }
      if (engine.RepartitionKvPool(*config_.fallback_model, config_.fallback_pool_bytes)) {
        stats_.repartition_actions += 1;
        fallback_applied_ = true;
      }
      // A rollback still consumed this step's transition; cooldown applies and the rung
      // retries after it (the fault plan decides whether the retry commits).
      return true;
    }
    default:
      return false;
  }
}

void MemoryGovernor::OnStepBoundary(SchedulerCore& core) {
  if (cooldown_ > 0) {
    cooldown_ -= 1;
    return;
  }
  if (auto* spec = dynamic_cast<SpecDecodeEngine*>(&core)) {
    StepSplit(*spec);
  } else {
    StepLadder(static_cast<Engine&>(core));
  }
}

void MemoryGovernor::StepLadder(Engine& engine) {
  // Highest priority: an outstanding hot swap. The engine drains (the fleet router spills
  // around it) until the repartition commits or the retry budget runs out.
  if (pending_swap_.has_value()) {
    engine.set_elastic_draining(true);
    if (engine.RepartitionKvPool(pending_swap_->model, pending_swap_->pool_bytes)) {
      stats_.hot_swaps_applied += 1;
      pending_swap_.reset();
      engine.set_elastic_draining(false);
    } else {
      stats_.hot_swap_rollbacks += 1;
      pending_swap_->retries += 1;
      if (pending_swap_->retries >= config_.max_hot_swap_retries) {
        stats_.hot_swaps_abandoned += 1;
        pending_swap_.reset();
        engine.set_elastic_draining(false);
      }
    }
    cooldown_ = config_.cooldown_steps;
    return;
  }

  // External capacity deltas, a few pages per step. A grow rollback (0 pages) retries next
  // step; a shrink blocked by a pinned tail falls through to the ladder so parking/shedding
  // can free the tail first.
  if (pending_pool_delta_ > 0) {
    const int32_t ask = std::min(pending_pool_delta_, config_.grow_step_pages);
    const int32_t got = engine.GrowKvPool(ask);
    if (got > 0) {
      stats_.grow_actions += 1;
      pending_pool_delta_ -= got;
    }
    cooldown_ = config_.cooldown_steps;
    return;
  }
  bool shrink_blocked = false;
  if (pending_pool_delta_ < 0) {
    const int32_t ask = std::min(-pending_pool_delta_, config_.shrink_step_pages);
    const int32_t got = engine.ShrinkKvPool(ask);
    if (got > 0) {
      stats_.shrink_actions += 1;
      pending_pool_delta_ += got;
      cooldown_ = config_.cooldown_steps;
      return;
    }
    shrink_blocked = true;
  }

  // Pressure ladder. A blocked shrink counts as pressure even below the watermark: the tail
  // must drain, and parking/shedding is how it does.
  const bool engaged = gate_.Update(engine.PoolOccupancy()) || shrink_blocked;
  if (!engaged) {
    rung_ = 0;
    acted_since_engage_ = false;
    return;
  }
  if (acted_since_engage_ && rung_ < kMaxRung) {
    // The previous action didn't bring occupancy below the band: climb.
    rung_ += 1;
    stats_.escalations += 1;
  }
  if (!acted_since_engage_) {
    stats_.engagements += 1;
  }
  for (int r = rung_; r <= kMaxRung; ++r) {
    if (TryRung(engine, r)) {
      rung_ = r;
      acted_since_engage_ = true;
      cooldown_ = config_.cooldown_steps;
      return;
    }
  }
  // No rung applicable right now (e.g. a single runner, nothing waiting, no fallback
  // model): stay engaged at the current rung and re-test next step.
  acted_since_engage_ = true;
}

int64_t MemoryGovernor::SplitShiftBytes(const SpecDecodeEngine& engine, int donor) const {
  if (config_.split_shift_bytes > 0) {
    return config_.split_shift_bytes;
  }
  return engine.manager(donor).allocator().lcm().large_page_bytes();
}

void MemoryGovernor::StepSplit(SpecDecodeEngine& engine) {
  if (engine.config().strategy != SpecStrategy::kVllmManual || engine.num_managers() < 2) {
    return;
  }
  // Adaptive draft/target split: shift capacity toward the pressured pool, but only when the
  // other pool has genuine slack (below the low watermark) — symmetric pressure means the
  // whole GPU is full and moving pages would just thrash.
  const double target_occ = engine.PoolOccupancyOf(0);
  const double draft_occ = engine.PoolOccupancyOf(1);
  int donor = -1;
  if (target_occ >= config_.high_watermark && draft_occ < config_.low_watermark) {
    donor = 1;
  } else if (draft_occ >= config_.high_watermark && target_occ < config_.low_watermark) {
    donor = 0;
  }
  if (donor < 0) {
    return;
  }
  if (engine.ShiftSplit(donor, 1 - donor, SplitShiftBytes(engine, donor)) > 0) {
    stats_.split_shifts += 1;
    cooldown_ = config_.cooldown_steps;
  }
}

}  // namespace jenga

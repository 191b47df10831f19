// Deterministic, seedable fault injection for the serving simulator.
//
// Real serving stacks survive PCIe transfer errors, host-memory pressure spikes, and GPU step
// failures; the simulator's recovery paths (retry + backoff, recompute fallback, GPU-only
// degradation, load shedding) need a way to exercise those conditions reproducibly. The
// FaultInjector is consulted at a small number of named sites (FaultSite); each site can be
// armed with a probability, a scheduled consult index, or a periodic interval. All randomness
// comes from per-site SplitMix64 streams forked from a single seed, so a (plan, seed) pair
// replays the exact same fault sequence — the chaos fuzz tier prints both on failure.
//
// When no site is armed (the default), engines do not construct an injector at all and every
// consult site short-circuits on a null pointer, keeping the disabled overhead at ~0 and all
// bench/golden outputs byte-identical to a build without the subsystem.

#ifndef JENGA_SRC_FAULT_FAULT_INJECTOR_H_
#define JENGA_SRC_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/random.h"
#include "src/common/status.h"

namespace jenga {

// Sites where the injector can be consulted. Each maps to one concrete failure the recovery
// machinery must survive.
enum class FaultSite : int {
  kPcieD2H = 0,       // Swap-out (device-to-host) transfer error.
  kPcieH2D = 1,       // Swap-in (host-to-device) transfer error.
  kPcieTimeout = 2,   // Transfer hangs until the PCIe timeout budget expires.
  kHostPoolAlloc = 3, // Host pool rejects an insert (allocation failure).
  kHostPoolShrink = 4,// Host pool capacity is forcibly halved (memory pressure spike).
  kGpuStep = 5,       // A GPU step fails; its results must be discarded and recomputed.
  kReplicaDeath = 6,  // A fleet replica dies; its work must be re-routed (cluster scope).
  kReplicaStall = 7,  // A fleet replica stops stepping for a while (cluster scope).
  kPoolGrow = 8,      // A pool-grow reservation fails mid-flight (elastic governor scope).
  kPoolShrinkDrain = 9,    // The drain phase of a pool shrink aborts (governor scope).
  kRepartitionCommit = 10, // A repartition faults at the commit point (governor scope).
  kNumSites = 11,
};

inline constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

// Canonical lower_snake names used in fault plans ("pcie_d2h", "gpu_step", ...).
const char* FaultSiteName(FaultSite site);

// Parses a canonical site name; returns kNumSites if unknown.
FaultSite FaultSiteFromName(const std::string& name);

// How one site fires. A consult fires if any armed trigger matches:
//   - probability:  Bernoulli(probability) on the site's private stream,
//   - at_consult:   exactly on the site's N-th consult (0-based),
//   - every:        on every N-th consult (consult index % every == every - 1).
struct FaultSpec {
  double probability = 0.0;
  int64_t at_consult = -1;
  int64_t every = 0;

  bool armed() const { return probability > 0.0 || at_consult >= 0 || every > 0; }
};

// A full plan: one optional spec per site. Parsed from the compact text form used by
// JENGA_FAULT_PLAN and the chaos tier:
//
//   plan      := entry (',' entry)*
//   entry     := site ':' trigger
//   trigger   := 'p=' float | 'at=' int | 'every=' int
//
// e.g. "pcie_d2h:p=0.05,gpu_step:every=100,host_alloc:at=2". Repeating a site merges triggers
// into its single spec (so "pcie_d2h:p=0.1,pcie_d2h:at=7" arms both a probability and a
// scheduled consult).
struct FaultPlan {
  std::array<FaultSpec, kNumFaultSites> specs;

  const FaultSpec& spec(FaultSite site) const { return specs[static_cast<int>(site)]; }
  FaultSpec& spec(FaultSite site) { return specs[static_cast<int>(site)]; }
  bool empty() const;
  std::string ToString() const;

  // Parses `text` into `plan`; on error returns InvalidArgument naming the bad token.
  static Status Parse(const std::string& text, FaultPlan* plan);
};

// Plan plus RNG seed — everything needed to replay a fault sequence.
struct FaultConfig {
  FaultPlan plan;
  uint64_t seed = 1;

  bool enabled() const { return !plan.empty(); }
};

// Reads JENGA_FAULT_PLAN / JENGA_FAULT_SEED. Used only by the replay paths of the engine and
// fleet chaos tiers; engines and benches never consult the environment. Returns
// InvalidArgument if the plan text or the seed does not parse.
Status FaultConfigFromEnv(FaultConfig* config);

// The injector itself. Deterministic: consult order at a site fully determines its fires.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  // Consults the site; returns true if a fault fires now.
  bool Fire(FaultSite site);

  struct SiteCounters {
    int64_t consults = 0;
    int64_t fires = 0;
  };
  const SiteCounters& counters(FaultSite site) const {
    return counters_[static_cast<int>(site)];
  }
  int64_t total_fires() const;

  const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
  std::array<Rng, kNumFaultSites> streams_;
  std::array<SiteCounters, kNumFaultSites> counters_;
};

}  // namespace jenga

#endif  // JENGA_SRC_FAULT_FAULT_INJECTOR_H_

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "zc/adapt/decision.hpp"
#include "zc/apu/params.hpp"
#include "zc/mem/address.hpp"

namespace zc::adapt {

/// Everything the policy engine knows about a region at decision time,
/// gathered by the runtime from the memory system's pure state (no clock
/// advances, no side effects).
struct RegionFeatures {
  mem::AddrRange range;
  std::uint64_t pages = 0;               ///< pages the range overlaps
  std::uint64_t cpu_resident_pages = 0;  ///< already created by host touch
  std::uint64_t gpu_absent_pages = 0;    ///< missing from the GPU page table
  /// Pages homed on a socket other than the mapping device — zero-copy and
  /// eager handling would stream them over the fabric on every kernel,
  /// while DmaCopy pays the link once and then reads locally.
  std::uint64_t remote_pages = 0;
  /// Pages of the range spilled to the DDR tier by watermark reclaim —
  /// any zero-copy-style first use must promote them back to HBM first
  /// (per-page driver work), a cost DmaCopy's fresh pool storage avoids.
  std::uint64_t ddr_pages = 0;
  bool copies_in = false;   ///< map type transfers host->device on entry
  bool copies_out = false;  ///< map type transfers device->host on exit
  /// The device's pool has failed an allocation this run (sticky flag set
  /// by the runtime's OOM fallback): DmaCopy would likely fail again and
  /// degrade anyway, so the predictor prices it out.
  bool memory_pressure = false;
  /// The device's circuit breaker is open (watchdog trips / degraded-mode
  /// events crossed the threshold): the predictor prices out both DmaCopy
  /// (the SDMA engines are suspect) and demand faulting (XNACK-replay
  /// storms are a hang site), leaving eager prefault — the device's safest
  /// handling — as the only finite choice.
  bool breaker_open = false;
  /// Multi-tenant service occupancy of the device's admission budget, in
  /// [0, 1]: 0 outside the service (or with admission control off), 1 when
  /// the admitted working sets fill the budget. High occupancy makes fresh
  /// pool allocations the costliest choice — they fence off HBM other
  /// tenants' zero-copy pages are competing for — so the predictor
  /// surcharges DmaCopy proportionally (`AdaptParams::
  /// tenant_pressure_surcharge`) before the hard pressure/breaker
  /// overrides apply.
  double tenant_pressure = 0.0;
};

/// Predicted first-use cost of each handling, in virtual microseconds.
/// Derived purely from `apu::CostParams` so the policy and the simulated
/// machine can never disagree about what an operation costs.
struct PredictedCosts {
  double copy_us = 0.0;
  double zero_copy_us = 0.0;
  double eager_us = 0.0;

  [[nodiscard]] double cost_of(Decision d) const {
    switch (d) {
      case Decision::DmaCopy:
        return copy_us;
      case Decision::ZeroCopy:
        return zero_copy_us;
      case Decision::EagerPrefault:
        return eager_us;
    }
    return copy_us;
  }

  /// Cheapest handling; ties break toward ZeroCopy (no setup work at all),
  /// then EagerPrefault, then DmaCopy.
  [[nodiscard]] Decision best() const {
    Decision d = Decision::ZeroCopy;
    double c = zero_copy_us;
    if (eager_us < c) {
      d = Decision::EagerPrefault;
      c = eager_us;
    }
    if (copy_us < c) {
      d = Decision::DmaCopy;
    }
    return d;
  }
};

/// What `decide` concluded for one map request.
struct Outcome {
  Decision decision = Decision::ZeroCopy;
  /// True when the engine freshly evaluated the cost model (cache miss or
  /// hysteresis-window re-evaluation); false on a plain cache hit.
  bool fresh = false;
  /// True when a re-evaluation changed an earlier cached decision.
  bool revised = false;
  /// Populated only when `fresh`.
  PredictedCosts costs;
};

/// The Adaptive Maps policy engine: per-device decision caches keyed by
/// each mapping's host range (containment lookups, like the present
/// table), a cost-model-driven classifier, and hysteresis that makes
/// flip-flopping impossible:
///
///  * a cached decision is never revisited while the range is actively
///    mapped (`active_maps > 0` — nested/overlapping data regions pin it);
///  * between evaluations at least `AdaptParams::hysteresis_maps` further
///    maps must pass, and the engine switches only when the cached choice
///    predicts worse than the best alternative by `switch_margin`.
///
/// The engine is deliberately passive — no scheduler, clock, or memory
/// system dependency. The runtime gathers `RegionFeatures`, calls `decide`
/// inside its present-table transaction, and charges
/// `AdaptParams::eval_cost`/`cache_hit_cost` itself. This keeps the hot
/// path directly drivable from a real-time microbenchmark. Each `Outcome`
/// says whether the call hit the cache, evaluated fresh or revised; the
/// runtime's `trace::DecisionTrace` holds those counts.
class PolicyEngine {
 public:
  PolicyEngine(const apu::CostParams& costs, const apu::AdaptParams& params,
               int devices, std::uint64_t page_bytes, bool xnack_enabled);

  /// Classify one map request on `device`. Increments the range's
  /// active-map count; the runtime must pair every `decide` with exactly
  /// one `release` when the mapping lifetime it opened ends.
  [[nodiscard]] Outcome decide(int device, const RegionFeatures& features);

  /// A mapping lifetime opened by `decide` ended (structured end of the
  /// data region for engine-managed ranges, present-table erase for
  /// DmaCopy-classified ones).
  void release(int device, mem::AddrRange range);

  /// The host freed the backing allocation: drop every cached decision
  /// overlapping `range` on all devices (addresses can be recycled).
  void forget(mem::AddrRange range);

  /// Cost prediction alone, exposed for tests and calibration tooling.
  [[nodiscard]] PredictedCosts predict(const RegionFeatures& features) const;

  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::size_t cache_size(int device) const {
    return caches_.at(static_cast<std::size_t>(device)).size();
  }

 private:
  struct CacheEntry {
    std::uint64_t bytes = 0;  ///< extent of the cached range
    Decision decision = Decision::ZeroCopy;
    std::uint32_t maps_since_eval = 0;
    std::uint32_t active_maps = 0;
    std::uint64_t last_used = 0;  ///< decision sequence number, for eviction
  };
  /// Keyed by range base address; containment lookups via lower_bound.
  using Cache = std::map<std::uint64_t, CacheEntry>;

  [[nodiscard]] Cache::iterator find_containing(Cache& cache,
                                                mem::AddrRange range);
  void evict_if_needed(Cache& cache);

  apu::CostParams costs_;
  apu::AdaptParams params_;
  std::uint64_t page_bytes_;
  bool xnack_enabled_;
  std::vector<Cache> caches_;
  std::uint64_t seqno_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace zc::adapt

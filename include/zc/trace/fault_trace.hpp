#pragma once

#include <cstdint>
#include <vector>

#include "zc/sim/time.hpp"

namespace zc::trace {

/// What happened at a fault-handling point: injections (the fault engine or
/// the capacity model made an operation fail) and the runtime's degraded-
/// mode reactions to them. Raw address values for the same reason as
/// `DecisionRecord`: the trace layer depends on nothing above `zc::sim`.
enum class FaultEvent {
  // -- injected / organic failures ---------------------------------------
  OomInjected,         ///< fault engine failed a pool allocation
  HbmExhausted,        ///< capacity accounting failed a pool allocation
  EintrInjected,       ///< fault engine EINTR'd a prefault syscall
  EbusyInjected,       ///< fault engine EBUSY'd a prefault syscall
  SdmaErrorInjected,   ///< fault engine errored an async copy's signal
  ReplayStormInjected, ///< fault engine inflated XNACK fault servicing
  KernelHangInjected,  ///< fault engine hung a kernel's completion signal
  SdmaStallInjected,   ///< fault engine stalled an async copy's signal
  PrefaultHangInjected,///< fault engine hung a prefault syscall
  XnackLivelockInjected,///< fault engine livelocked XNACK fault servicing
  // -- degraded-mode reactions -------------------------------------------
  OomFallbackZeroCopy,   ///< Copy map degraded to a zero-copy mapping
  PrefaultRetry,         ///< prefault retried after a transient error
  PrefaultRetrySucceeded,///< a retried prefault eventually succeeded
  PrefaultFallbackXnack, ///< retries exhausted; relying on XNACK replay
  CopyRetry,             ///< errored async copy was resubmitted
  CopyRetrySucceeded,    ///< the resubmitted copy completed cleanly
  RegionFailed,          ///< degradation exhausted; OffloadError raised
  // -- watchdog / circuit breaker -----------------------------------------
  WatchdogTrip,          ///< watchdog aborted a hung op via queue teardown
  WatchdogReplay,        ///< runtime replayed the aborted operation
  WatchdogRecovered,     ///< a replayed operation completed cleanly
  BreakerOpened,         ///< device breaker opened (trips over threshold)
  BreakerHalfOpened,     ///< breaker probing again after the cooldown
  BreakerClosed,         ///< breaker closed after a quiet period
  BreakerPinnedMap,      ///< open breaker pinned a map to eager zero-copy
  // -- memory pressure / UPM dynamics --------------------------------------
  EvictStormInjected,    ///< fault engine inflated a reclaim batch
  MigrationStallInjected,///< fault engine stalled an auto-migration
  ThpSplitStormInjected, ///< fault engine split huge spans under an op
  CounterLossInjected,   ///< fault engine dropped the access-counter state
  PagesEvicted,          ///< watermark reclaim spilled HBM pages to DDR
  PagesPromoted,         ///< GPU fault promoted DDR-spilled pages to HBM
  AutoMigrated,          ///< access counters migrated a page's home
  ThpSplit,              ///< a 2 MB span split to 4 KB pricing
  ThpCollapsed,          ///< a split span re-homogenized and collapsed
  PoolReclaimed,         ///< pool allocation succeeded only after reclaim
  // -- multi-tenant service (`zc::service`) --------------------------------
  TenantBurstInjected,   ///< fault engine collapsed a tenant's interarrivals
  AdmissionFlapInjected, ///< fault engine made admission read "full"
  JobShed,               ///< service shed a job (typed OffloadError + hint)
  JobDeAdmitted,         ///< memory pressure paused a low-priority tenant
  JobResumed,            ///< a de-admitted tenant resumed dispatching
  TenantBreakerOpened,   ///< a tenant's circuit breaker opened
  TenantBreakerClosed,   ///< a tenant's circuit breaker closed again
  StarvationBoost,       ///< the DRR starvation watchdog force-served a tenant
};

[[nodiscard]] constexpr const char* to_string(FaultEvent e) {
  switch (e) {
    case FaultEvent::OomInjected:
      return "oom-injected";
    case FaultEvent::HbmExhausted:
      return "hbm-exhausted";
    case FaultEvent::EintrInjected:
      return "eintr-injected";
    case FaultEvent::EbusyInjected:
      return "ebusy-injected";
    case FaultEvent::SdmaErrorInjected:
      return "sdma-error-injected";
    case FaultEvent::ReplayStormInjected:
      return "replay-storm-injected";
    case FaultEvent::OomFallbackZeroCopy:
      return "oom-fallback-zero-copy";
    case FaultEvent::PrefaultRetry:
      return "prefault-retry";
    case FaultEvent::PrefaultRetrySucceeded:
      return "prefault-retry-succeeded";
    case FaultEvent::PrefaultFallbackXnack:
      return "prefault-fallback-xnack";
    case FaultEvent::CopyRetry:
      return "copy-retry";
    case FaultEvent::CopyRetrySucceeded:
      return "copy-retry-succeeded";
    case FaultEvent::RegionFailed:
      return "region-failed";
    case FaultEvent::KernelHangInjected:
      return "kernel-hang-injected";
    case FaultEvent::SdmaStallInjected:
      return "sdma-stall-injected";
    case FaultEvent::PrefaultHangInjected:
      return "prefault-hang-injected";
    case FaultEvent::XnackLivelockInjected:
      return "xnack-livelock-injected";
    case FaultEvent::WatchdogTrip:
      return "watchdog-trip";
    case FaultEvent::WatchdogReplay:
      return "watchdog-replay";
    case FaultEvent::WatchdogRecovered:
      return "watchdog-recovered";
    case FaultEvent::BreakerOpened:
      return "breaker-opened";
    case FaultEvent::BreakerHalfOpened:
      return "breaker-half-opened";
    case FaultEvent::BreakerClosed:
      return "breaker-closed";
    case FaultEvent::BreakerPinnedMap:
      return "breaker-pinned-map";
    case FaultEvent::EvictStormInjected:
      return "evict-storm-injected";
    case FaultEvent::MigrationStallInjected:
      return "migration-stall-injected";
    case FaultEvent::ThpSplitStormInjected:
      return "thp-split-storm-injected";
    case FaultEvent::CounterLossInjected:
      return "counter-loss-injected";
    case FaultEvent::PagesEvicted:
      return "pages-evicted";
    case FaultEvent::PagesPromoted:
      return "pages-promoted";
    case FaultEvent::AutoMigrated:
      return "auto-migrated";
    case FaultEvent::ThpSplit:
      return "thp-split";
    case FaultEvent::ThpCollapsed:
      return "thp-collapsed";
    case FaultEvent::PoolReclaimed:
      return "pool-reclaimed";
    case FaultEvent::TenantBurstInjected:
      return "tenant-burst-injected";
    case FaultEvent::AdmissionFlapInjected:
      return "admission-flap-injected";
    case FaultEvent::JobShed:
      return "job-shed";
    case FaultEvent::JobDeAdmitted:
      return "job-de-admitted";
    case FaultEvent::JobResumed:
      return "job-resumed";
    case FaultEvent::TenantBreakerOpened:
      return "tenant-breaker-opened";
    case FaultEvent::TenantBreakerClosed:
      return "tenant-breaker-closed";
    case FaultEvent::StarvationBoost:
      return "starvation-boost";
  }
  return "?";
}

/// One fault-handling event.
struct FaultRecord {
  FaultEvent event = FaultEvent::OomInjected;
  int device = 0;
  sim::TimePoint time;
  std::uint64_t host_base = 0;  ///< affected host range (0 when n/a)
  std::uint64_t bytes = 0;
  /// Retry-ladder events: the 1-based ordinal of the call this record
  /// reports on, the operation's first call being 1. A retry or replay
  /// names the call that failed or hung, a success record the call that
  /// succeeded, RegionFailed and PrefaultFallbackXnack the last call made.
  /// 0 on every other event.
  int attempt = 0;
  double factor = 1.0;   ///< replay-storm latency multiplier
  int tenant = -1;       ///< owning service tenant (-1 outside the service)
};

/// Record of every injected fault and degraded-mode reaction in a run.
/// Always on: faults are rare by construction (fault-free runs record
/// nothing), so the trace stays small even on full-fidelity runs.
class FaultTrace {
 public:
  void record(const FaultRecord& r) { records_.push_back(r); }

  [[nodiscard]] const std::vector<FaultRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t count(FaultEvent e) const {
    std::uint64_t n = 0;
    for (const FaultRecord& r : records_) {
      if (r.event == e) {
        ++n;
      }
    }
    return n;
  }
  [[nodiscard]] bool any(FaultEvent e) const { return count(e) > 0; }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  void clear() { records_.clear(); }

 private:
  std::vector<FaultRecord> records_;
};

}  // namespace zc::trace

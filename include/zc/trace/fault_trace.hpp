#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "zc/fault/spec.hpp"
#include "zc/sim/time.hpp"

namespace zc::trace {

/// What happened at a fault-handling point: a fault (an injection the
/// fault engine fired, or HBM genuinely exhausted) and the runtime's
/// degraded-mode and watchdog reactions to it. Pressure dynamics and
/// service outcomes are not faults; their counts live in
/// `hsa::DeviceCounters`, `mem::MemorySystem::split_spans` and
/// `workloads::TenantServiceStats`. Raw address values for the same reason
/// as `DecisionRecord`: the trace layer links nothing above `zc::sim` (fault
/// kinds come from the header-only part of `zc/fault/spec.hpp`).
enum class FaultEvent {
  // -- faults --------------------------------------------------------------
  Injected,            ///< the fault engine fired; `FaultRecord::injected`
                       ///< says which kind
  HbmExhausted,        ///< capacity accounting failed a pool allocation
  // -- degraded-mode reactions -------------------------------------------
  OomFallbackZeroCopy,   ///< Copy map degraded to a zero-copy mapping
  PrefaultRetry,         ///< prefault retried after a transient error
  PrefaultRetrySucceeded,///< a retried prefault eventually succeeded
  PrefaultFallbackXnack, ///< retries exhausted; relying on XNACK replay
  CopyRetry,             ///< errored async copy was resubmitted
  CopyRetrySucceeded,    ///< the resubmitted copy completed cleanly
  RegionFailed,          ///< degradation exhausted; OffloadError raised
  PoolReclaimed,         ///< a pool allocation that would have failed
                         ///< succeeded after a watermark reclaim
  // -- watchdog / circuit breaker -----------------------------------------
  WatchdogTrip,          ///< watchdog aborted a hung op via queue teardown
  WatchdogReplay,        ///< runtime replayed the aborted operation
  WatchdogRecovered,     ///< a replayed operation completed cleanly
  BreakerOpened,         ///< device breaker opened (trips over threshold)
  BreakerHalfOpened,     ///< breaker probing again after the cooldown
  BreakerClosed,         ///< breaker closed after a quiet period
  BreakerPinnedMap,      ///< open breaker pinned a map to eager zero-copy
};

[[nodiscard]] constexpr const char* to_string(FaultEvent e) {
  switch (e) {
    case FaultEvent::Injected:
      return "injected";
    case FaultEvent::HbmExhausted:
      return "hbm-exhausted";
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
    case FaultEvent::PoolReclaimed:
      return "pool-reclaimed";
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
  }
  return "?";
}

/// One fault-handling event.
struct FaultRecord {
  FaultEvent event = FaultEvent::Injected;
  /// The kind that fired (`Injected` records only; `None` otherwise).
  fault::Kind injected = fault::Kind::None;
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
  /// `Injected` records: the firing clause's `:xF` factor, which scales the
  /// stall of the kinds that take one. 1 on every other event.
  double factor = 1.0;
};

/// The record's spelling: the event's, or for an injection the
/// `OMPX_APU_FAULTS` token that asks for it (`sdma`, `kernel_hang`, ...).
[[nodiscard]] constexpr const char* to_string(const FaultRecord& r) {
  return r.event == FaultEvent::Injected ? fault::to_string(r.injected)
                                         : to_string(r.event);
}

/// Record of every fault and degraded-mode reaction in a run. Always on:
/// faults are rare by construction (fault-free runs record nothing), so
/// the trace stays small even on full-fidelity runs.
class FaultTrace {
 public:
  void record(const FaultRecord& r) { records_.push_back(r); }

  [[nodiscard]] const std::vector<FaultRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t count(FaultEvent e) const {
    return static_cast<std::uint64_t>(std::ranges::count_if(
        records_, [e](const FaultRecord& r) { return r.event == e; }));
  }
  /// Injections of one kind.
  [[nodiscard]] std::uint64_t count(fault::Kind k) const {
    return static_cast<std::uint64_t>(
        std::ranges::count_if(records_, [k](const FaultRecord& r) {
          return r.event == FaultEvent::Injected && r.injected == k;
        }));
  }
  [[nodiscard]] bool any(FaultEvent e) const { return count(e) > 0; }
  [[nodiscard]] bool any(fault::Kind k) const { return count(k) > 0; }
  [[nodiscard]] bool empty() const { return records_.empty(); }

 private:
  std::vector<FaultRecord> records_;
};

}  // namespace zc::trace

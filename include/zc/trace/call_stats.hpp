#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "zc/sim/time.hpp"

namespace zc::trace {

/// The ROCr/HSA API calls the instrumentation distinguishes — the ones the
/// paper's Table I reports, plus the dispatch and prefault entry points.
enum class HsaCall : int {
  SignalCreate = 0,
  SignalWaitScacquire,   ///< kernel/copy completion waits
  SignalAsyncHandler,    ///< async-copy completion callbacks
  MemoryPoolAllocate,    ///< "device" memory allocation
  MemoryPoolFree,
  MemoryAsyncCopy,       ///< DMA copy submission
  QueueDispatch,         ///< kernel dispatch packet submission
  SvmAttributesSet,      ///< GPU page-table prefault syscall
  kCount,
};

[[nodiscard]] const char* to_string(HsaCall c);

/// Per-API call counters: number of calls and total attributed latency.
///
/// This is the simulator's equivalent of `rocprof --hsa-trace` output, from
/// which the paper derives Table I (call counts and Copy/zero-copy latency
/// ratios). Latency attribution follows the tracer's view: a wait call is
/// charged the time the caller was blocked, a copy is charged its engine
/// time, an allocation its driver round trip.
///
/// Concurrency discipline: plain bookkeeping, not synchronized. Every
/// virtual host thread accumulates into it through `hsa::Runtime` without a
/// lock (DESIGN.md §5); `reset`, `merge`, and the readers run on quiescent
/// instances or snapshots.
class CallStats {
 public:
  void record(HsaCall call, sim::Duration latency);

  [[nodiscard]] std::uint64_t count(HsaCall call) const {
    return entries_[index(call)].count;
  }
  [[nodiscard]] sim::Duration total_latency(HsaCall call) const {
    return entries_[index(call)].latency;
  }
  [[nodiscard]] std::uint64_t total_calls() const;
  [[nodiscard]] sim::Duration total_time() const;

  void reset();

  /// Merge another run's counters into this one.
  void merge(const CallStats& other);

  /// "call,count,total_us" CSV rows (one per nonzero call).
  void write_csv(std::ostream& os) const;

 private:
  struct Entry {
    std::uint64_t count = 0;
    sim::Duration latency;
  };

  [[nodiscard]] static std::size_t index(HsaCall call) {
    return static_cast<std::size_t>(call);
  }

  std::array<Entry, static_cast<std::size_t>(HsaCall::kCount)> entries_{};
};

}  // namespace zc::trace

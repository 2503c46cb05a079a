#pragma once

#include <cstdint>

#include "zc/sim/time.hpp"

namespace zc::trace {

/// The paper's Table III overhead decomposition.
///
/// * **MM** (memory management): GPU-specific memory allocation/free, CPU-GPU
///   memory copies, and — for Eager Maps — the host-issued prefault syscalls
///   performed while mapping.
/// * **MI** (memory initialization): time kernels spend stalled on GPU
///   first-touch page faults (the XNACK protocol executing page-by-page
///   while the kernel runs).
///
/// Concurrency discipline: like `CallStats`, plain unsynchronized
/// bookkeeping; readers see quiescent state.
class OverheadLedger {
 public:
  void add_alloc(sim::Duration d) { mm_alloc_ += d; }
  void add_copy(sim::Duration d) { mm_copy_ += d; }
  void add_prefault(sim::Duration d) {
    mm_prefault_ += d;
    ++prefault_calls_;
  }
  void add_first_touch(sim::Duration d) { mi_ += d; }

  /// Durations are integer nanoseconds, so the sum is exact.
  [[nodiscard]] sim::Duration mm() const {
    return mm_alloc_ + mm_copy_ + mm_prefault_;
  }
  [[nodiscard]] sim::Duration mm_alloc() const { return mm_alloc_; }
  [[nodiscard]] sim::Duration mm_copy() const { return mm_copy_; }
  [[nodiscard]] sim::Duration mm_prefault() const { return mm_prefault_; }
  [[nodiscard]] sim::Duration mi() const { return mi_; }
  [[nodiscard]] std::uint64_t prefault_calls() const { return prefault_calls_; }

  void reset() { *this = OverheadLedger{}; }

 private:
  sim::Duration mm_alloc_;
  sim::Duration mm_copy_;
  sim::Duration mm_prefault_;
  sim::Duration mi_;
  std::uint64_t prefault_calls_ = 0;
};

/// Render a duration as a power-of-ten order of magnitude in microseconds,
/// as Table III does: "O(0)" for zero, otherwise "O(10^k)".
[[nodiscard]] const char* order_of_magnitude_us(sim::Duration d);

}  // namespace zc::trace

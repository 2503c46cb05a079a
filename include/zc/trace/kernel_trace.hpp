#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "zc/sim/time.hpp"

namespace zc::trace {

/// One kernel launch, as `LIBOMPTARGET_KERNEL_TRACE`-style tracing sees it.
struct KernelRecord {
  std::string name;
  int host_thread = 0;
  int device = 0;             ///< socket GPU the kernel ran on
  sim::TimePoint dispatch;    ///< CPU submitted the packet
  sim::TimePoint start;       ///< GPU began execution
  sim::TimePoint end;         ///< completion signal fired
  sim::Duration compute;      ///< modeled compute portion
  sim::Duration fault_stall;  ///< XNACK fault-service portion
  sim::Duration tlb_stall;    ///< page-table walk portion
  std::uint64_t page_faults = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t remote_bytes = 0;  ///< buffer bytes homed on other sockets

  [[nodiscard]] sim::Duration duration() const { return end - start; }
};

/// "name,thread,start_us,dur_us,compute_us,fault_us,tlb_us,faults" rows,
/// one per launch, after a header line.
void write_kernel_csv(std::ostream& os, std::span<const KernelRecord> records);

}  // namespace zc::trace

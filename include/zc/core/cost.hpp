#pragma once

#include <cstdint>

#include "zc/apu/machine.hpp"
#include "zc/sim/time.hpp"

namespace zc::omp {

/// Modeled GPU-resident compute time of a memory-bound kernel that streams
/// `bytes` through HBM (reads + writes combined).
[[nodiscard]] inline sim::Duration stream_kernel_cost(
    const apu::Machine& machine, std::uint64_t bytes) {
  return sim::Duration::from_seconds(
      static_cast<double>(bytes) /
      machine.costs().gpu_stream_bandwidth_bytes_per_s);
}

}  // namespace zc::omp

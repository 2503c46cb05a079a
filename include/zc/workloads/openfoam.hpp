#pragma once

#include <cstdint>

#include "zc/sim/time.hpp"
#include "zc/workloads/runner.hpp"

namespace zc::workloads {

/// Proxy of an OpenFOAM-style CFD solver built with
/// `#pragma omp requires unified_shared_memory` — the porting approach the
/// paper cites as the main production user of the USM configuration
/// (Tandon et al. [29]).
///
/// Characteristics it exercises, distinct from QMCPack and SPECaccel:
///  * the binary *requires* USM: no map clauses anywhere; kernels receive
///    host pointers for the mesh, matrix, and field arrays directly;
///  * declare-target globals (solver controls) accessed through double
///    indirection, updated by the host between iterations without any
///    mapping;
///  * host-side convergence checks every iteration read GPU-written
///    residuals from shared storage;
///  * consequently the binary is NOT portable to non-unified-memory
///    deployments — `resolve_config` throws, which the tests assert.
struct OpenfoamParams {
  std::uint64_t cells = 1 << 20;          ///< mesh cells
  int time_steps = 20;                    ///< outer time loop
  int pcg_iterations = 15;                ///< inner linear-solver iterations
  sim::Duration spmv_compute = sim::Duration::from_us(400);
  sim::Duration dot_compute = sim::Duration::from_us(60);
  sim::Duration axpy_compute = sim::Duration::from_us(120);

  [[nodiscard]] std::uint64_t matrix_bytes() const {
    return cells * 8 * sizeof(double);  // ~7-point stencil + diagonal
  }
};

/// Build the runnable USM program (binary has requires_unified_shared_memory
/// set; running it in an environment without XNACK raises ConfigError).
[[nodiscard]] Program make_openfoam(const OpenfoamParams& params = {});

}  // namespace zc::workloads

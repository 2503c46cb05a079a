#pragma once

/// Convenience umbrella header: the full public API of the apuzc library —
/// the reproduction of "Performance Analysis of Runtime Handling of
/// Zero-Copy for OpenMP Programs on MI300A APUs" (Bertolli et al., SC'24).
///
/// Typical use:
///
///   zc::omp::OffloadStack stack{
///       zc::omp::OffloadStack::machine_config_for(
///           zc::omp::RuntimeConfig::ImplicitZeroCopy),
///       zc::omp::ProgramBinary{"my-app"}};
///   stack.sched().run_single([&] {
///     auto& rt = stack.omp();
///     zc::omp::HostArray<double> x{rt, n, "x"};
///     rt.target({.name = "kernel", .maps = {x.tofrom()}, .compute = ...});
///   });

#include "zc/apu/env.hpp"
#include "zc/apu/machine.hpp"
#include "zc/apu/params.hpp"
#include "zc/core/config.hpp"
#include "zc/core/cost.hpp"
#include "zc/core/host_array.hpp"
#include "zc/core/mapping.hpp"
#include "zc/core/offload_runtime.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/core/program.hpp"
#include "zc/core/target_region.hpp"
#include "zc/hsa/kernel.hpp"
#include "zc/hsa/runtime.hpp"
#include "zc/hsa/signal.hpp"
#include "zc/mem/address.hpp"
#include "zc/mem/address_space.hpp"
#include "zc/mem/memory_system.hpp"
#include "zc/mem/page_table.hpp"
#include "zc/mem/tlb.hpp"
#include "zc/sim/jitter.hpp"
#include "zc/sim/rng.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/sim/time.hpp"
#include "zc/sim/timeline.hpp"
#include "zc/stats/repetition.hpp"
#include "zc/stats/summary.hpp"
#include "zc/stats/table.hpp"
#include "zc/trace/call_stats.hpp"
#include "zc/trace/kernel_trace.hpp"
#include "zc/trace/overhead_ledger.hpp"
#include "zc/workloads/openfoam.hpp"
#include "zc/workloads/qmcpack.hpp"
#include "zc/workloads/runner.hpp"
#include "zc/workloads/spec.hpp"

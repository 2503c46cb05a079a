#include "zc/workloads/openfoam.hpp"

#include <gtest/gtest.h>

#include "zc/core/offload_stack.hpp"

namespace zc::workloads {
namespace {

using omp::RuntimeConfig;
using trace::HsaCall;

OpenfoamParams tiny() {
  OpenfoamParams p;
  p.cells = 1 << 14;
  p.time_steps = 2;
  p.pcg_iterations = 3;
  return p;
}

TEST(Openfoam, RunsAsUsmRegardlessOfRequestedConfig) {
  // The binary carries `requires unified_shared_memory`; in an
  // XNACK-enabled environment it always resolves to USM — it cannot be
  // "switched back" to Implicit Z-C or Eager Maps (§IV-B).
  for (const RuntimeConfig requested :
       {RuntimeConfig::UnifiedSharedMemory, RuntimeConfig::ImplicitZeroCopy,
        RuntimeConfig::EagerMaps}) {
    omp::OffloadStack stack{
        omp::OffloadStack::machine_config_for(requested),
        omp::OffloadStack::program_for(requested, make_openfoam(tiny()).binary)};
    EXPECT_EQ(stack.omp().config(), RuntimeConfig::UnifiedSharedMemory)
        << to_string(requested);
  }
}

TEST(Openfoam, NotDeployableWithoutUnifiedMemory) {
  // Legacy Copy environment = XNACK disabled: the USM binary cannot run.
  EXPECT_THROW(
      (omp::OffloadStack{
          omp::OffloadStack::machine_config_for(RuntimeConfig::LegacyCopy),
          make_openfoam(tiny()).binary}),
      omp::ConfigError);
}

TEST(Openfoam, NoMappingTrafficAtAll) {
  const RunResult r = run_program(
      make_openfoam(tiny()), {.config = RuntimeConfig::UnifiedSharedMemory});
  // Only image-load allocations/copies; zero map-driven traffic.
  EXPECT_EQ(r.stats.count(HsaCall::MemoryPoolAllocate),
            static_cast<std::uint64_t>(omp::OffloadRuntime::kImageLoadAllocs +
                                       omp::OffloadRuntime::kThreadInitAllocs));
  EXPECT_EQ(r.stats.count(HsaCall::MemoryAsyncCopy),
            static_cast<std::uint64_t>(omp::OffloadRuntime::kImageLoadCopies));
  EXPECT_EQ(r.ledger.mm(), sim::Duration::zero());
}

TEST(Openfoam, GlobalsUseIndirectionNoDeviceCopies) {
  const RunResult r = run_program(
      make_openfoam(tiny()), {.config = RuntimeConfig::UnifiedSharedMemory});
  // The relax global never triggers a DMA transfer (double indirection);
  // the host updates it between time steps and kernels see it — the run
  // completing with a nonzero checksum proves the data flow.
  EXPECT_NE(r.checksum, 0.0);
}

TEST(Openfoam, KernelsFaultOnFirstTouchOnly) {
  const RunResult r = run_program(
      make_openfoam(tiny()), {.config = RuntimeConfig::UnifiedSharedMemory});
  // Matrix + fields fault once; steady state is fault-free. With tiny()
  // everything fits in a handful of pages.
  EXPECT_GT(r.totals().page_faults, 0u);
  EXPECT_LT(r.totals().page_faults, 64u);
  const std::uint64_t kernels = static_cast<std::uint64_t>(
      tiny().time_steps * tiny().pcg_iterations * 3);
  EXPECT_EQ(r.totals().kernels, kernels);
}

TEST(Openfoam, DeterministicChecksum) {
  const Program p = make_openfoam(tiny());
  const RunResult a =
      run_program(p, {.config = RuntimeConfig::UnifiedSharedMemory});
  const RunResult b =
      run_program(p, {.config = RuntimeConfig::UnifiedSharedMemory});
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.wall_time, b.wall_time);
}

}  // namespace
}  // namespace zc::workloads

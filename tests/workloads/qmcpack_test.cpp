#include "zc/workloads/qmcpack.hpp"

#include <gtest/gtest.h>

namespace zc::workloads {
namespace {

using omp::RuntimeConfig;
using trace::HsaCall;

QmcpackParams tiny(int threads = 2) {
  QmcpackParams p;
  p.size = 2;
  p.threads = threads;
  p.walkers_per_thread = 2;
  p.steps = 3;
  return p;
}

constexpr RuntimeConfig kAllConfigs[] = {
    RuntimeConfig::LegacyCopy,
    RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy,
    RuntimeConfig::EagerMaps,
};

TEST(Qmcpack, ChecksumIdenticalAcrossConfigurations) {
  const Program program = make_qmcpack(tiny());
  const double reference =
      run_program(program, {.config = RuntimeConfig::LegacyCopy}).checksum;
  EXPECT_NE(reference, 0.0);
  for (const RuntimeConfig cfg : kAllConfigs) {
    const RunResult r = run_program(program, {.config = cfg});
    EXPECT_DOUBLE_EQ(r.checksum, reference) << to_string(cfg);
  }
}

TEST(Qmcpack, DeterministicAcrossRepeatedRuns) {
  const Program program = make_qmcpack(tiny());
  const RunOptions opts{.config = RuntimeConfig::ImplicitZeroCopy, .seed = 7};
  const RunResult a = run_program(program, opts);
  const RunResult b = run_program(program, opts);
  EXPECT_EQ(a.wall_time, b.wall_time);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(Qmcpack, CopyConfigPerformsPerStepAllocationsAndCopies) {
  const Program program = make_qmcpack(tiny());
  const RunResult copy =
      run_program(program, {.config = RuntimeConfig::LegacyCopy});
  const RunResult zc =
      run_program(program, {.config = RuntimeConfig::ImplicitZeroCopy});

  // Zero-copy performs only image-load/thread-init allocations and the
  // image-upload copies.
  const auto init_allocs = static_cast<std::uint64_t>(
      omp::OffloadRuntime::kImageLoadAllocs +
      2 * omp::OffloadRuntime::kThreadInitAllocs);
  EXPECT_EQ(zc.stats.count(HsaCall::MemoryPoolAllocate), init_allocs);
  EXPECT_EQ(zc.stats.count(HsaCall::MemoryAsyncCopy),
            static_cast<std::uint64_t>(omp::OffloadRuntime::kImageLoadCopies));

  // Legacy Copy adds the spline + persistent arrays + one scratch per
  // walker-step, and orders of magnitude more copies.
  EXPECT_GT(copy.stats.count(HsaCall::MemoryPoolAllocate), init_allocs + 10);
  EXPECT_GT(copy.stats.count(HsaCall::MemoryAsyncCopy), 100u);
  EXPECT_GT(copy.stats.count(HsaCall::SignalWaitScacquire),
            zc.stats.count(HsaCall::SignalWaitScacquire));
}

TEST(Qmcpack, ZeroCopyIsFasterThanCopy) {
  const Program program = make_qmcpack(tiny());
  const RunResult copy =
      run_program(program, {.config = RuntimeConfig::LegacyCopy});
  for (const RuntimeConfig cfg :
       {RuntimeConfig::UnifiedSharedMemory, RuntimeConfig::ImplicitZeroCopy,
        RuntimeConfig::EagerMaps}) {
    const RunResult r = run_program(program, {.config = cfg});
    EXPECT_GT(copy.wall_time, r.wall_time) << to_string(cfg);
  }
}

TEST(Qmcpack, EagerMapsIssuesPrefaultsPerMap) {
  const Program program = make_qmcpack(tiny());
  const RunResult eager =
      run_program(program, {.config = RuntimeConfig::EagerMaps});
  const RunResult zc =
      run_program(program, {.config = RuntimeConfig::ImplicitZeroCopy});
  // Spline map + persistent maps + per-step maps, per thread.
  EXPECT_GT(eager.stats.count(HsaCall::SvmAttributesSet), 50u);
  EXPECT_EQ(zc.stats.count(HsaCall::SvmAttributesSet), 0u);
  // Eager Maps kernels never page-fault; Implicit Z-C faults on first GPU
  // touch of the spline windows.
  EXPECT_EQ(eager.totals().page_faults, 0u);
  EXPECT_GT(zc.totals().page_faults, 0u);
}

TEST(Qmcpack, MoreThreadsMoreTotalWork) {
  const RunResult one =
      run_program(make_qmcpack(tiny(1)), {.config = RuntimeConfig::LegacyCopy});
  const RunResult four =
      run_program(make_qmcpack(tiny(4)), {.config = RuntimeConfig::LegacyCopy});
  EXPECT_GT(four.totals().kernels, one.totals().kernels * 3);
  // Contention means wall time grows, but far less than 4x (work overlaps).
  EXPECT_GT(four.wall_time, one.wall_time);
}

TEST(Qmcpack, UsmAndImplicitZcIdenticalWithoutGlobals) {
  // QMCPack uses no declare-target globals, so the two configurations only
  // differ in name (the paper's §V-A.2 observation).
  const Program program = make_qmcpack(tiny());
  const RunResult usm =
      run_program(program, {.config = RuntimeConfig::UnifiedSharedMemory});
  const RunResult zc =
      run_program(program, {.config = RuntimeConfig::ImplicitZeroCopy});
  EXPECT_EQ(usm.wall_time, zc.wall_time);
  EXPECT_EQ(usm.stats.total_calls(), zc.stats.total_calls());
}

TEST(Qmcpack, ParamDerivations) {
  QmcpackParams p;
  p.size = 4;
  EXPECT_EQ(p.spline_bytes(), 96ULL * 4 * (1ULL << 20));
  EXPECT_EQ(p.walker_buf_bytes(), 4096u * 4);  // linear in size
  EXPECT_EQ(p.kernel_compute(), sim::Duration::from_us(50.0));
  EXPECT_EQ(qmcpack_paper_sizes().size(), 8u);
}

TEST(Qmcpack, MultiSocketAffinityRelievesDriverContention) {
  // §III-A: spreading 8 host threads over two sockets halves the pressure
  // on each socket's driver lock. Eager Maps is the driver-bound
  // configuration (a prefault syscall per map), so it shows the benefit;
  // under Legacy Copy the shared runtime lock remains the bottleneck and
  // the duplicated per-device spline transfer can even make two sockets
  // slightly slower at tiny scale.
  QmcpackParams p = tiny(8);
  p.walkers_per_thread = 4;
  p.steps = 30;
  apu::Topology two_sockets;
  two_sockets.sockets = 2;

  QmcpackParams spread = p;
  spread.sockets = 2;

  RunOptions opts{.config = RuntimeConfig::EagerMaps};
  opts.topology = two_sockets;
  const RunResult one_socket = run_program(make_qmcpack(p), opts);
  const RunResult two_socket = run_program(make_qmcpack(spread), opts);
  EXPECT_DOUBLE_EQ(one_socket.checksum, two_socket.checksum);
  EXPECT_LT(two_socket.wall_time, one_socket.wall_time);
}

TEST(Qmcpack, MultiSocketNeedsMatchingTopology) {
  QmcpackParams p = tiny(2);
  p.sockets = 2;  // but the default machine has one socket
  EXPECT_THROW((void)run_program(make_qmcpack(p),
                                 {.config = RuntimeConfig::LegacyCopy}),
               omp::MappingError);
}

}  // namespace
}  // namespace zc::workloads

// The simulator doubles as a mapping sanitizer: misuse that silently
// corrupts real systems is caught loudly here.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/workloads/qmcpack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;

std::unique_ptr<OffloadStack> make_stack(RuntimeConfig cfg) {
  return std::make_unique<OffloadStack>(OffloadStack::machine_config_for(cfg),
                                        OffloadStack::program_for(cfg, {}));
}

TEST(MapSanitizer, FreeingMappedMemoryThrows) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 const mem::VirtAddr buf = rt.host_alloc(1 << 20, "buf");
                 const MapEntry entry = MapEntry::tofrom(buf, 1 << 20);
                 rt.target_data_begin({&entry, 1});
                 rt.host_free(buf);  // still mapped!
               }),
               MappingError);
}

TEST(MapSanitizer, FreeAfterUnmapIsFine) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const mem::VirtAddr buf = rt.host_alloc(1 << 20, "buf");
    const MapEntry entry = MapEntry::tofrom(buf, 1 << 20);
    rt.target_data_begin({&entry, 1});
    rt.target_data_end({&entry, 1});
    EXPECT_NO_THROW(rt.host_free(buf));
  });
}

TEST(MapSanitizer, ChecksEveryDevice) {
  apu::Machine::Config mc =
      OffloadStack::machine_config_for(RuntimeConfig::LegacyCopy);
  mc.topology.sockets = 2;
  OffloadStack stack{std::move(mc), ProgramBinary{}};
  EXPECT_THROW(stack.sched().run_single([&] {
                 OffloadRuntime& rt = stack.omp();
                 const mem::VirtAddr buf = rt.host_alloc(1 << 20, "buf");
                 const MapEntry entry = MapEntry::tofrom(buf, 1 << 20);
                 rt.target_data_begin({&entry, 1}, /*device=*/1);
                 rt.host_free(buf);  // mapped on device 1
               }),
               MappingError);
}

TEST(KernelTraceCsv, EmitsOneRowPerLaunch) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->hsa().set_keep_records(true);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 64, "x"};
    rt.target(TargetRegion{.name = "csvk",
                           .maps = {x.tofrom()},
                           .compute = 5_us,
                           .body = {}});
    x.release();
  });
  std::ostringstream os;
  trace::write_kernel_csv(os, stack->hsa().kernel_records());
  const std::string out = os.str();
  EXPECT_NE(out.find("name,thread,start_us"), std::string::npos);
  EXPECT_NE(out.find("csvk,0,"), std::string::npos);
}

TEST(BlockSync, BarrierAlignsThreadsAtBlockBoundaries) {
  // With block synchronization on, per-thread finish times bunch together;
  // the run still completes and computes the same checksum.
  workloads::QmcpackParams p;
  p.size = 2;
  p.threads = 4;
  p.walkers_per_thread = 2;
  p.steps = 12;

  workloads::QmcpackParams synced = p;
  synced.block_sync_period = 3;

  const workloads::RunResult free_run = workloads::run_program(
      workloads::make_qmcpack(p),
      {.config = RuntimeConfig::ImplicitZeroCopy});
  const workloads::RunResult synced_run = workloads::run_program(
      workloads::make_qmcpack(synced),
      {.config = RuntimeConfig::ImplicitZeroCopy});
  EXPECT_DOUBLE_EQ(free_run.checksum, synced_run.checksum);
  // Barriers can only slow the makespan down (threads wait for stragglers).
  EXPECT_GE(synced_run.wall_time, free_run.wall_time);
}

}  // namespace
}  // namespace zc::omp

#include "zc/workloads/runner.hpp"

#include <gtest/gtest.h>

#include <string>

#include "zc/core/host_array.hpp"

namespace zc::workloads {
namespace {

using namespace zc::sim::literals;
using omp::RuntimeConfig;

Program trivial_program() {
  Program p;
  p.binary.name = "trivial";
  p.setup_threads = [](omp::OffloadStack& stack) {
    stack.sched().spawn("main", [&stack] {
      omp::OffloadRuntime& rt = stack.omp();
      omp::HostArray<double> x{rt, 64, "x"};
      rt.target(omp::TargetRegion{.name = "noop",
                                  .maps = {x.tofrom()},
                                  .compute = 10_us,
                                  .body = {}});
      x.release();
    });
  };
  p.finalize = [](omp::OffloadStack&) { return 42.0; };
  return p;
}

TEST(Runner, RunsAndCollectsTelemetry) {
  const RunResult r =
      run_program(trivial_program(), {.config = RuntimeConfig::LegacyCopy});
  EXPECT_EQ(r.config, RuntimeConfig::LegacyCopy);
  EXPECT_GT(r.wall_time, sim::Duration::zero());
  EXPECT_EQ(r.totals().kernels, 1u);
  EXPECT_GT(r.stats.total_calls(), 0u);
  EXPECT_DOUBLE_EQ(r.checksum, 42.0);
}

TEST(Runner, MissingSetupThrows) {
  Program p;
  EXPECT_THROW((void)run_program(p, {}), std::invalid_argument);
}

TEST(Runner, MalformedSpecRaisesTheEnvironmentVariablesError) {
  // Every *_spec string goes through the environment parser: a malformed
  // fault schedule fails exactly as OMPX_APU_FAULTS would, before any
  // machine is built.
  try {
    (void)run_program(trivial_program(), {.fault_spec = "oom@call=0"});
    FAIL() << "expected apu::EnvError";
  } catch (const apu::EnvError& e) {
    EXPECT_EQ(std::string{e.what()}.rfind("OMPX_APU_FAULTS: ", 0), 0u)
        << e.what();
  }
  EXPECT_THROW((void)run_program(trivial_program(), {.thp_spec = "huge"}),
               apu::EnvError);
}

TEST(Runner, JitterMakesRunsVaryAndSeedsReproduce) {
  const Program p = trivial_program();
  RunOptions a{.config = RuntimeConfig::ImplicitZeroCopy,
               .jitter = {.sigma = 0.1},
               .seed = 5};
  const RunResult r1 = run_program(p, a);
  const RunResult r2 = run_program(p, a);
  EXPECT_EQ(r1.wall_time, r2.wall_time);  // same seed
  a.seed = 6;
  const RunResult r3 = run_program(p, a);
  EXPECT_NE(r1.wall_time, r3.wall_time);  // different seed
}

TEST(Runner, RepeatProgramUsesDistinctSeeds) {
  const Program p = trivial_program();
  const stats::RepeatedRuns runs = repeat_program(
      p,
      {.config = RuntimeConfig::ImplicitZeroCopy, .jitter = {.sigma = 0.05}},
      4);
  ASSERT_EQ(runs.times.size(), 4u);
  EXPECT_GT(runs.cov(), 0.0);
  EXPECT_GT(runs.median_time(), sim::Duration::zero());
}

TEST(Runner, KernelRecordsOptIn) {
  const Program p = trivial_program();
  omp::OffloadStack probe{
      omp::OffloadStack::machine_config_for(RuntimeConfig::ImplicitZeroCopy),
      omp::OffloadStack::program_for(RuntimeConfig::ImplicitZeroCopy, {})};
  // The runtime keeps counters only unless asked; records flag is honored.
  EXPECT_FALSE(probe.hsa().keep_records());
  const RunResult off = run_program(p, {.keep_kernel_records = false});
  EXPECT_EQ(off.totals().kernels, 1u);
  EXPECT_TRUE(off.kernel_records.empty());
  const RunResult on = run_program(p, {.keep_kernel_records = true});
  ASSERT_EQ(on.kernel_records.size(), 1u);
  EXPECT_GE(on.kernel_records.front().duration().us(), 10.0);  // noop kernel
}

TEST(Runner, SingleApuRunsReportOneDevice) {
  const RunResult r = run_program(trivial_program(), {});
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.devices[0].counters.kernels, 1u);
}

TEST(Runner, PerDeviceStatsOnAMultiApuNode) {
  Program p;
  p.binary.name = "four-way";
  p.setup_threads = [](omp::OffloadStack& stack) {
    for (int d = 0; d < 4; ++d) {
      stack.sched().spawn("omp-host-" + std::to_string(d), [&stack, d] {
        omp::OffloadRuntime& rt = stack.omp();
        const std::uint64_t bytes = 4 * stack.machine().page_bytes();
        const mem::VirtAddr buf = rt.host_alloc(
            bytes, "buf-" + std::to_string(d), /*home_socket=*/d);
        rt.host_first_touch(mem::AddrRange{buf, bytes});
        for (int i = 0; i < 3; ++i) {
          rt.target(omp::TargetRegion{
              .name = "work",
              .maps = {omp::MapEntry::tofrom(buf, bytes)},
              .compute = sim::Duration::microseconds(100 + 10 * d),
              .body = {},
              .device = d,
          });
        }
        // One deliberately misplaced launch: device (d+1)%4 reaches this
        // shard's memory over the fabric.
        rt.target(omp::TargetRegion{
            .name = "remote",
            .maps = {omp::MapEntry::tofrom(buf, bytes)},
            .compute = 100_us,
            .body = {},
            .device = (d + 1) % 4,
        });
        rt.host_free(buf);
      });
    }
  };
  p.finalize = [](omp::OffloadStack&) { return 1.0; };

  const RunResult r = run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy,
                                      .keep_kernel_records = true,
                                      .sockets = 4,
                                      .fabric_spec = "xgmi"});
  ASSERT_EQ(r.devices.size(), 4u);
  for (int d = 0; d < 4; ++d) {
    const DeviceStats& ds = r.devices[static_cast<std::size_t>(d)];
    EXPECT_EQ(ds.counters.kernels, 4u) << "device " << d;  // 3 local + 1 remote
    EXPECT_EQ(ds.counters.remote_kernels, 1u) << "device " << d;
    EXPECT_GT(ds.counters.page_faults, 0u) << "device " << d;
  }
  // Buffers were freed, so final HBM occupancy is back to the image/globals
  // footprint — but the kernel records kept per-device identities.
  std::uint64_t per_device[4] = {0, 0, 0, 0};
  for (const trace::KernelRecord& k : r.kernel_records) {
    ASSERT_GE(k.device, 0);
    ASSERT_LT(k.device, 4);
    ++per_device[k.device];
    // Every launch took at least its compute floor.
    EXPECT_GE(k.duration().us(), 100.0) << "device " << k.device;
  }
  for (std::uint64_t n : per_device) {
    EXPECT_EQ(n, 4u);
  }
}

}  // namespace
}  // namespace zc::workloads

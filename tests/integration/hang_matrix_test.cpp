// The tentpole invariant end-to-end: a survivable hang schedule — one
// injection per hang site, bounded by the watchdog in recover mode — must
// leave every runtime configuration's QMCPack checksum bit-identical to
// its fault-free run, with the trip and recovery visible in the fault
// trace. In abort mode the same schedule fails with exactly one structured
// OffloadError naming the hung operation; with no watchdog at all it is a
// loud simulation deadlock naming the stuck signal.
#include <gtest/gtest.h>

#include <string>

#include "zc/core/offload_error.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/workloads/qmcpack.hpp"

namespace zc::workloads {
namespace {

using omp::ErrorCode;
using omp::OffloadError;
using omp::RuntimeConfig;
using trace::FaultEvent;

constexpr RuntimeConfig kAllConfigs[] = {
    RuntimeConfig::LegacyCopy,       RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps,
    RuntimeConfig::AdaptiveMaps,
};

QmcpackParams tiny_qmcpack() {
  QmcpackParams p;
  p.size = 2;
  p.threads = 1;
  p.walkers_per_thread = 2;
  p.steps = 10;
  return p;
}

/// One hang per injection site. Not every site fires in every
/// configuration (Eager Maps issues no async copies on the mapped data;
/// USM issues no prefaults), so the matrix test asserts recovery when a
/// trip happened and plain checksum equality otherwise.
const char* kHangSchedules[] = {
    "kernel_hang@call=3",
    "sdma_stall@call=2",
    "prefault_hang@call=1",
    "xnack_livelock@call=1",
};

TEST(HangMatrix, AllConfigsMatchFaultFreeChecksumsUnderRecovery) {
  const Program prog = make_qmcpack(tiny_qmcpack());
  for (RuntimeConfig cfg : kAllConfigs) {
    const RunResult clean = run_program(prog, {.config = cfg});
    for (const char* schedule : kHangSchedules) {
      RunOptions opts{.config = cfg};
      opts.fault_spec = schedule;
      opts.watchdog_spec = "500us:recover";
      const RunResult hung = run_program(prog, opts);
      EXPECT_EQ(hung.checksum, clean.checksum)
          << omp::to_string(cfg) << " under " << schedule;
      EXPECT_FALSE(hung.faults.any(FaultEvent::RegionFailed))
          << omp::to_string(cfg) << " under " << schedule;
      // Where the site fired, the watchdog must have tripped and the
      // runtime recovered — a hang is never survived by accident.
      if (!hung.faults.empty()) {
        EXPECT_GE(hung.faults.count(FaultEvent::WatchdogTrip), 1u)
            << omp::to_string(cfg) << " under " << schedule;
        EXPECT_GE(hung.faults.count(FaultEvent::WatchdogRecovered), 1u)
            << omp::to_string(cfg) << " under " << schedule;
      }
    }
  }
}

TEST(HangMatrix, EverySiteFiresSomewhereInTheMatrix) {
  // Guard against the schedules above silently missing their sites: each
  // hang kind must be injected by at least one configuration.
  const Program prog = make_qmcpack(tiny_qmcpack());
  const struct {
    const char* schedule;
    fault::Kind injected;
  } sites[] = {
      {"kernel_hang@call=3", fault::Kind::KernelHang},
      {"sdma_stall@call=2", fault::Kind::SdmaStall},
      {"prefault_hang@call=1", fault::Kind::PrefaultHang},
      {"xnack_livelock@call=1", fault::Kind::XnackLivelock},
  };
  for (const auto& site : sites) {
    bool fired = false;
    for (RuntimeConfig cfg : kAllConfigs) {
      RunOptions opts{.config = cfg};
      opts.fault_spec = site.schedule;
      opts.watchdog_spec = "500us:recover";
      fired |= run_program(prog, opts).faults.any(site.injected);
    }
    EXPECT_TRUE(fired) << site.schedule;
  }
}

TEST(HangMatrix, AbortModeRaisesExactlyOneErrorNamingTheKernel) {
  const Program prog = make_qmcpack(tiny_qmcpack());
  RunOptions opts{.config = RuntimeConfig::ImplicitZeroCopy};
  opts.fault_spec = "kernel_hang@call=3";
  opts.watchdog_spec = "500us:abort";
  try {
    (void)run_program(prog, opts);
    FAIL() << "expected OffloadError(OperationHung)";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::OperationHung);
    EXPECT_EQ(e.device(), 0);
    EXPECT_NE(std::string{e.what()}.find("kernel"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("hung"), std::string::npos)
        << e.what();
  }
}

TEST(HangMatrix, NoWatchdogMeansALoudDeadlockNamingTheSignal) {
  const Program prog = make_qmcpack(tiny_qmcpack());
  RunOptions opts{.config = RuntimeConfig::ImplicitZeroCopy};
  opts.fault_spec = "kernel_hang@call=3";
  try {
    (void)run_program(prog, opts);
    FAIL() << "expected simulation deadlock";
  } catch (const sim::SimError& e) {
    EXPECT_NE(std::string{e.what()}.find("Signal(kernel:"),
              std::string::npos)
        << e.what();
  }
}

TEST(HangMatrix, RecoveryCostsTimeNotCorrectness) {
  const Program prog = make_qmcpack(tiny_qmcpack());
  const RunResult clean =
      run_program(prog, {.config = RuntimeConfig::ImplicitZeroCopy});
  RunOptions opts{.config = RuntimeConfig::ImplicitZeroCopy};
  opts.fault_spec = "kernel_hang@call=3";
  opts.watchdog_spec = "500us:recover";
  const RunResult hung = run_program(prog, opts);
  EXPECT_GT(hung.wall_time, clean.wall_time);
  EXPECT_EQ(hung.checksum, clean.checksum);
}

}  // namespace
}  // namespace zc::workloads

// End-to-end fault injection on the QMCPack proxy: under a survivable
// fault schedule every runtime configuration must reach the exact
// checksum of its fault-free run through degraded paths; an unsurvivable
// schedule must fail with a single structured OffloadError (no abort, no
// hang, no corrupted result).
#include <gtest/gtest.h>

#include <string>

#include "zc/core/offload_error.hpp"
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
  p.size = 2;  // 192 MB spline table
  p.threads = 1;
  p.walkers_per_thread = 2;
  p.steps = 10;
  return p;
}

/// Runtime initialization occupies ~278 MB and the host-touched spline
/// another 192 MB, so a 512 MB socket leaves the ROCr pool unable to hand
/// out the 192 MB device copy of the spline — an organic capacity OOM on
/// the run's first Copy-managed map — while every smaller per-walker
/// allocation still fits.
apu::Topology capped_topology() {
  apu::Topology t;
  t.hbm_bytes = 512ULL << 20;
  return t;
}

/// EINTR on the first three prefault syscalls (recovered by the backoff
/// ladder) plus one errored SDMA copy mid-batch (recovered by
/// resubmission). Calls 1..3 of the AsyncCopy site are the image upload.
const char kSurvivable[] = "eintr@call=1..3;sdma@call=5";

TEST(FaultDegradation, AllConfigsMatchFaultFreeChecksums) {
  const Program prog = make_qmcpack(tiny_qmcpack());
  for (RuntimeConfig cfg : kAllConfigs) {
    const RunResult clean = run_program(prog, {.config = cfg});
    EXPECT_TRUE(clean.faults.empty()) << omp::to_string(cfg);
    RunOptions faulted_opts{.config = cfg};
    faulted_opts.topology = capped_topology();
    faulted_opts.fault_spec = kSurvivable;
    const RunResult faulted = run_program(prog, faulted_opts);
    // Bit-identical: degradation may change timing, never data.
    EXPECT_EQ(faulted.checksum, clean.checksum) << omp::to_string(cfg);
    EXPECT_FALSE(faulted.faults.any(FaultEvent::RegionFailed))
        << omp::to_string(cfg);
  }
}

TEST(FaultDegradation, LegacyCopyClimbsTheWholeDegradationLadder) {
  // One capped Legacy Copy run exercises all three rungs: the spline map
  // OOMs and degrades to zero-copy, the degraded mapping's prefault (XNACK
  // is off) eats the EINTR burst and recovers via backoff, and the errored
  // SDMA copy in the persistent-buffer batch is resubmitted.
  const Program prog = make_qmcpack(tiny_qmcpack());
  RunOptions opts{.config = RuntimeConfig::LegacyCopy};
  opts.topology = capped_topology();
  opts.fault_spec = kSurvivable;
  const RunResult r = run_program(prog, opts);
  EXPECT_GE(r.faults.count(FaultEvent::HbmExhausted), 1u);
  EXPECT_GE(r.faults.count(FaultEvent::OomFallbackZeroCopy), 1u);
  EXPECT_EQ(r.faults.count(fault::Kind::Eintr), 3u);
  EXPECT_EQ(r.faults.count(FaultEvent::PrefaultRetry), 3u);
  EXPECT_EQ(r.faults.count(FaultEvent::PrefaultRetrySucceeded), 1u);
  EXPECT_EQ(r.faults.count(fault::Kind::CopyError), 1u);
  EXPECT_EQ(r.faults.count(FaultEvent::CopyRetry), 1u);
  EXPECT_EQ(r.faults.count(FaultEvent::CopyRetrySucceeded), 1u);
  EXPECT_FALSE(r.faults.any(FaultEvent::RegionFailed));

  const RunResult clean =
      run_program(prog, {.config = RuntimeConfig::LegacyCopy});
  EXPECT_EQ(r.checksum, clean.checksum);
}

TEST(FaultDegradation, EagerMapsRecoversAPrefaultBurst) {
  const Program prog = make_qmcpack(tiny_qmcpack());
  RunOptions opts{.config = RuntimeConfig::EagerMaps};
  opts.fault_spec = "eintr@call=1..3";
  const RunResult r = run_program(prog, opts);
  EXPECT_EQ(r.faults.count(fault::Kind::Eintr), 3u);
  EXPECT_EQ(r.faults.count(FaultEvent::PrefaultRetrySucceeded), 1u);
  EXPECT_FALSE(r.faults.any(FaultEvent::PrefaultFallbackXnack));
  const RunResult clean =
      run_program(prog, {.config = RuntimeConfig::EagerMaps});
  EXPECT_EQ(r.checksum, clean.checksum);
}

TEST(FaultDegradation, DegradedRunsCostTimeNotCorrectness) {
  // The backoff ladder and the copy resubmission both advance virtual
  // time, so the faulted run is strictly slower — that overhead is the
  // quantity bench/abl_fault_inject reports.
  const Program prog = make_qmcpack(tiny_qmcpack());
  const RunResult clean =
      run_program(prog, {.config = RuntimeConfig::EagerMaps});
  RunOptions opts{.config = RuntimeConfig::EagerMaps};
  opts.fault_spec = "eintr@call=1..3";
  const RunResult faulted = run_program(prog, opts);
  EXPECT_GT(faulted.wall_time, clean.wall_time);
  EXPECT_EQ(faulted.checksum, clean.checksum);
}

TEST(FaultDegradation, UnsurvivableScheduleFailsWithOneStructuredError) {
  // Every SDMA copy errors and every resubmission errors again: the image
  // upload cannot complete, and the failure must surface as a single
  // typed OffloadError — not an abort, a hang, or a wrong answer.
  const Program prog = make_qmcpack(tiny_qmcpack());
  RunOptions opts{.config = RuntimeConfig::LegacyCopy};
  opts.fault_spec = "sdma@p=1.0";
  try {
    (void)run_program(prog, opts);
    FAIL() << "expected OffloadError(CopyFailed)";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::CopyFailed);
    EXPECT_EQ(e.device(), 0);
    EXPECT_NE(std::string{e.what()}.find("copy-failed"), std::string::npos);
  }
}

TEST(FaultDegradation, SeededSchedulesAreReproducible) {
  // A probabilistic schedule is still deterministic per seed: two runs
  // with the same seed inject the same faults at the same sites and land
  // on the same checksum and makespan.
  const Program prog = make_qmcpack(tiny_qmcpack());
  RunOptions opts{.config = RuntimeConfig::EagerMaps};
  opts.fault_spec = "eintr@p=0.2";
  opts.seed = 7;
  const RunResult a = run_program(prog, opts);
  const RunResult b = run_program(prog, opts);
  EXPECT_EQ(a.faults.records().size(), b.faults.records().size());
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.wall_time, b.wall_time);
}

}  // namespace
}  // namespace zc::workloads

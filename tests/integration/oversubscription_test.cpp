// The oversubscription robustness suite: working sets of 1.25x/2x/4x the
// socket's HBM drive the watermark-reclaim, DDR-spill, promotion, and THP
// machinery under every runtime configuration. Completion is not enough —
// every run must reproduce the bit-identical checksum of its in-capacity
// sibling, with and without injected pressure faults, across seeds, and
// with the race detector in report mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "zc/workloads/oversubscribe.hpp"

namespace zc::workloads {
namespace {

using omp::RuntimeConfig;
using trace::FaultEvent;

constexpr RuntimeConfig kAllConfigs[] = {
    RuntimeConfig::LegacyCopy,       RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps,
    RuntimeConfig::AdaptiveMaps,
};

constexpr double kRatios[] = {1.25, 2.0, 4.0};

/// Survivable pressure-fault schedule: an inflated eviction batch, stalled
/// auto-migrations, one huge-page split storm, and lossy access counters.
const char kPressureFaults[] =
    "evict_storm@p=0.25:x4;migration_stall@p=0.5:x6;"
    "thp_split_storm@call=5;counter_loss@p=0.2";

OversubscribeParams params_for(double ratio) {
  OversubscribeParams p;
  p.working_set_ratio = ratio;
  return p;
}

RunOptions pressured_opts(RuntimeConfig cfg, const OversubscribeParams& p,
                          std::uint64_t seed) {
  RunOptions o{.config = cfg, .seed = seed};
  o.topology = oversubscribed_topology(p);
  o.pressure_spec = "watermarks";
  // Built, then moved: GCC 12 flags assigning this one-character literal
  // with a false-positive -Wrestrict.
  o.automigrate_spec = std::string{"4"};
  o.thp_spec = "dynamic";
  return o;
}

TEST(Oversubscription, AllConfigsAgreeAtEveryRatio) {
  for (const double ratio : kRatios) {
    const OversubscribeParams p = params_for(ratio);
    const Program prog = make_oversubscribe(p);
    double expected = 0.0;
    bool have_expected = false;
    for (const RuntimeConfig cfg : kAllConfigs) {
      const RunResult r = run_program(prog, pressured_opts(cfg, p, 1));
      EXPECT_FALSE(r.faults.any(FaultEvent::RegionFailed))
          << omp::to_string(cfg) << " @" << ratio;
      if (!have_expected) {
        expected = r.checksum;
        have_expected = true;
      }
      EXPECT_EQ(r.checksum, expected) << omp::to_string(cfg) << " @" << ratio;
    }
  }
}

TEST(Oversubscription, InjectedPressureFaultsNeverChangeTheChecksum) {
  const OversubscribeParams p = params_for(2.0);
  const Program prog = make_oversubscribe(p);
  for (const RuntimeConfig cfg : kAllConfigs) {
    const RunResult clean = run_program(prog, pressured_opts(cfg, p, 1));
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      RunOptions opts = pressured_opts(cfg, p, seed);
      opts.fault_spec = kPressureFaults;
      const RunResult faulted = run_program(prog, opts);
      EXPECT_EQ(faulted.checksum, clean.checksum)
          << omp::to_string(cfg) << " seed " << seed;
      EXPECT_FALSE(faulted.faults.any(FaultEvent::RegionFailed))
          << omp::to_string(cfg) << " seed " << seed;
    }
  }
}

TEST(Oversubscription, RaceReportModeStaysSilentUnderPressure) {
  const OversubscribeParams p = params_for(2.0);
  const Program prog = make_oversubscribe(p);
  for (const RuntimeConfig cfg : kAllConfigs) {
    RunOptions opts = pressured_opts(cfg, p, 7);
    opts.fault_spec = kPressureFaults;
    opts.race_check_spec = "report";
    const RunResult r = run_program(prog, opts);
    EXPECT_TRUE(r.races.empty()) << omp::to_string(cfg);
    EXPECT_FALSE(r.faults.any(FaultEvent::RegionFailed)) << omp::to_string(cfg);
  }
}

TEST(Oversubscription, WatermarksTurnPoolOomIntoReclaim) {
  const OversubscribeParams p = params_for(4.0);
  const Program prog = make_oversubscribe(p);

  // Pressure off: the per-phase pool copies never fit next to the ballast
  // — the historical graded path is the OOM fallback ladder.
  RunOptions off{.config = RuntimeConfig::LegacyCopy, .seed = 1};
  off.topology = oversubscribed_topology(p);
  const RunResult hard = run_program(prog, off);
  EXPECT_GT(hard.faults.count(FaultEvent::HbmExhausted), 0u);
  EXPECT_GT(hard.faults.count(FaultEvent::OomFallbackZeroCopy), 0u);

  // Watermarks: cold ballast spills to DDR and every pool copy lands; the
  // fallback ladder is never entered.
  const RunResult graded =
      run_program(prog, pressured_opts(RuntimeConfig::LegacyCopy, p, 1));
  EXPECT_EQ(graded.faults.count(FaultEvent::HbmExhausted), 0u);
  EXPECT_EQ(graded.faults.count(FaultEvent::OomFallbackZeroCopy), 0u);
  EXPECT_GT(graded.faults.count(FaultEvent::PoolReclaimed), 0u);
  EXPECT_GT(graded.totals().evicted_pages, 0u);
  // The spill itself is pressure, not a fault: the trace holds only the
  // allocations that degraded to a reclaim.
  EXPECT_EQ(graded.faults.count(FaultEvent::PoolReclaimed),
            graded.faults.records().size());

  EXPECT_EQ(graded.checksum, hard.checksum);
}

TEST(Oversubscription, ZeroCopySweepsChurnTheSpillTier) {
  const OversubscribeParams p = params_for(4.0);
  const Program prog = make_oversubscribe(p);

  RunOptions off{.config = RuntimeConfig::ImplicitZeroCopy, .seed = 1};
  off.topology = oversubscribed_topology(p);
  const RunResult baseline = run_program(prog, off);

  const RunResult pressured =
      run_program(prog, pressured_opts(RuntimeConfig::ImplicitZeroCopy, p, 1));
  // The second sweep revisits evicted chunks: pages spill on the watermark
  // and promote back on the GPU fault, repeatedly. That churn is counted,
  // not recorded as faults: this run injects none and never fails a call.
  EXPECT_TRUE(pressured.faults.empty());
  ASSERT_FALSE(pressured.devices.empty());
  EXPECT_GT(pressured.devices[0].counters.evicted_pages, 0u);
  EXPECT_GT(pressured.devices[0].counters.promoted_pages, 0u);
  // Reclaim costs virtual time; it must never cost correctness.
  EXPECT_GT(pressured.wall_time, baseline.wall_time);
  EXPECT_EQ(pressured.checksum, baseline.checksum);
}

}  // namespace
}  // namespace zc::workloads

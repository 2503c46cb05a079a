// The core layer's recovery ladders above the watchdog: hung kernels,
// stalled copies, and hung prefaults are replayed transparently in recover
// mode, raise exactly one structured OffloadError in abort mode (or when
// the replay budget drains), and repeated trips open the device's circuit
// breaker, which pins new mappings to eager zero-copy until a quiet
// period closes it again.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_runtime.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;
using trace::FaultEvent;

std::unique_ptr<OffloadStack> make_stack(RuntimeConfig cfg,
                                         const std::string& fault_spec,
                                         const std::string& watchdog) {
  apu::Machine::Config config = OffloadStack::machine_config_for(cfg);
  config.env.ompx_apu_faults = fault_spec;
  if (!watchdog.empty()) {
    config.env.watchdog = apu::parse_watchdog(watchdog);
  }
  return std::make_unique<OffloadStack>(std::move(config),
                                        OffloadStack::program_for(cfg, {}));
}

/// x[i] += 1 over an n-double array mapped tofrom; returns final contents.
std::vector<double> run_increment(OffloadStack& stack, std::size_t n,
                                  int rounds = 1) {
  std::vector<double> result(n);
  stack.sched().run_single([&] {
    OffloadRuntime& rt = stack.omp();
    HostArray<double> x{rt, n, "x"};
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(i);
    }
    const mem::VirtAddr xv = x.addr();
    TargetRegion region{
        .name = "incr",
        .maps = {x.tofrom()},
        .compute = 5_us,
        .body = [xv, n](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          double* xd = ctx.ptr<double>(tr.device(xv));
          for (std::size_t i = 0; i < n; ++i) {
            xd[i] += 1.0;
          }
        },
    };
    for (int r = 0; r < rounds; ++r) {
      rt.target(region);
    }
    for (std::size_t i = 0; i < n; ++i) {
      result[i] = x[i];
    }
  });
  return result;
}

void expect_incremented(const std::vector<double>& result, int rounds) {
  for (std::size_t i = 0; i < result.size(); ++i) {
    ASSERT_DOUBLE_EQ(result[i], static_cast<double>(i) + rounds);
  }
}

TEST(WatchdogRecovery, HungKernelIsReplayedTransparently) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy,
                          "kernel_hang@call=1", "200us:recover");
  expect_incremented(run_increment(*stack, 1024), 1);
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(fault::Kind::KernelHang), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogTrip), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogReplay), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogRecovered), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
}

TEST(WatchdogRecovery, AbortModeRaisesOneStructuredError) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy,
                          "kernel_hang@call=1", "200us:abort");
  try {
    (void)run_increment(*stack, 1024);
    FAIL() << "expected OffloadError(OperationHung)";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::OperationHung);
    EXPECT_EQ(e.device(), 0);
    EXPECT_NE(std::string{e.what()}.find("incr"), std::string::npos)
        << e.what();
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(FaultEvent::WatchdogTrip), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::WatchdogReplay));
  EXPECT_EQ(faults.count(FaultEvent::RegionFailed), 1u);
}

TEST(WatchdogRecovery, ReplayBudgetExhaustionFailsTheRegion) {
  // The original dispatch and both replays hang (calls 1..3); with
  // watchdog_max_replays=2 the ladder then raises OperationHung even in
  // recover mode.
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy,
                          "kernel_hang@call=1..3", "200us:recover");
  try {
    (void)run_increment(*stack, 1024);
    FAIL() << "expected OffloadError(OperationHung)";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::OperationHung);
    EXPECT_NE(std::string{e.what()}.find("replays were exhausted"),
              std::string::npos)
        << e.what();
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(FaultEvent::WatchdogTrip), 3u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogReplay), 2u);
  EXPECT_FALSE(faults.any(FaultEvent::WatchdogRecovered));
  EXPECT_EQ(faults.count(FaultEvent::RegionFailed), 1u);
}

TEST(WatchdogRecovery, StalledCopyIsResubmitted) {
  // AsyncCopy site calls 1..3 are the image upload; call 4 is the region's
  // h2d transfer, which stalls and is replayed after the watchdog abort.
  auto stack = make_stack(RuntimeConfig::LegacyCopy, "sdma_stall@call=4",
                          "150us:recover");
  expect_incremented(run_increment(*stack, 1024), 1);
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(fault::Kind::SdmaStall), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogTrip), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogReplay), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogRecovered), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
}

/// The event names of `faults` in record order.
std::vector<std::string> events_of(const trace::FaultTrace& faults) {
  std::vector<std::string> out;
  for (const trace::FaultRecord& r : faults.records()) {
    out.emplace_back(trace::to_string(r));
  }
  return out;
}

TEST(WatchdogRecovery, StalledCopyResubmissionIsReplayedNotTakenAsSuccess) {
  // The region's h2d copy (call 4) errors and its resubmission (call 5)
  // stalls. The stalled resubmission delivered no bytes, so it must be
  // replayed in turn; taking it for a success leaves the device copy
  // unwritten and the region computes 1 + 0 instead of 1 + i.
  auto stack = make_stack(RuntimeConfig::LegacyCopy,
                          "sdma@call=4;sdma_stall@call=5", "150us:recover");
  expect_incremented(run_increment(*stack, 1024), 1);
  EXPECT_EQ(events_of(stack->hsa().fault_trace()),
            (std::vector<std::string>{
                "sdma", "copy-retry", "sdma_stall",
                "watchdog-trip", "watchdog-replay", "watchdog-recovered",
                "copy-retry-succeeded"}));
}

TEST(WatchdogRecovery, StalledCopyResubmissionRaisesOperationHungInAbortMode) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy,
                          "sdma@call=4;sdma_stall@call=5", "150us:abort");
  try {
    (void)run_increment(*stack, 1024);
    FAIL() << "expected OffloadError(OperationHung)";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::OperationHung);
    EXPECT_NE(std::string{e.what()}.find("(abort mode)"), std::string::npos)
        << e.what();
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(FaultEvent::RegionFailed), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::CopyRetrySucceeded));
  EXPECT_FALSE(faults.any(FaultEvent::WatchdogReplay));
}

TEST(WatchdogRecovery, ErroredCopyReplayIsRetriedBeforeRecoveryIsRecorded) {
  // The reverse order: the h2d copy stalls, and its replay errors. The
  // episode is recovered only by the retry that follows the error.
  auto stack = make_stack(RuntimeConfig::LegacyCopy,
                          "sdma_stall@call=4;sdma@call=5", "150us:recover");
  expect_incremented(run_increment(*stack, 1024), 1);
  EXPECT_EQ(events_of(stack->hsa().fault_trace()),
            (std::vector<std::string>{
                "sdma_stall", "watchdog-trip", "watchdog-replay",
                "sdma", "copy-retry", "watchdog-recovered",
                "copy-retry-succeeded"}));
}

TEST(WatchdogRecovery, AttemptIsTheOrdinalOfTheCallARecordReportsOn) {
  // Calls are numbered from 1, the operation's first call. Retries and
  // replays name the call that failed or hung; success records name the
  // call that succeeded; RegionFailed and PrefaultFallbackXnack the last
  // call made. Injection events carry no ordinal.
  struct Case {
    RuntimeConfig config;
    std::string faults;
    std::string watchdog;
    std::vector<std::pair<std::string, int>> ladder;
  };
  const std::vector<Case> cases{
      {RuntimeConfig::LegacyCopy, "sdma@call=4", "",
       {{"copy-retry", 1}, {"copy-retry-succeeded", 2}}},
      {RuntimeConfig::LegacyCopy, "sdma@call=4..5", "",
       {{"copy-retry", 1}, {"region-failed", 2}}},
      {RuntimeConfig::LegacyCopy, "sdma_stall@call=4..6", "150us:recover",
       {{"watchdog-replay", 1},
        {"watchdog-replay", 2},
        {"region-failed", 3}}},
      {RuntimeConfig::LegacyCopy, "sdma@call=4;sdma_stall@call=5",
       "150us:recover",
       {{"copy-retry", 1},
        {"watchdog-replay", 2},
        {"watchdog-recovered", 3},
        {"copy-retry-succeeded", 3}}},
      {RuntimeConfig::ImplicitZeroCopy, "kernel_hang@call=1", "200us:recover",
       {{"watchdog-replay", 1}, {"watchdog-recovered", 2}}},
      {RuntimeConfig::ImplicitZeroCopy, "kernel_hang@call=1", "200us:abort",
       {{"region-failed", 1}}},
      {RuntimeConfig::EagerMaps, "eintr@call=1..3", "",
       {{"prefault-retry", 1},
        {"prefault-retry", 2},
        {"prefault-retry", 3},
        {"prefault-retry-succeeded", 4}}},
      {RuntimeConfig::EagerMaps, "eintr@call=1..5", "",
       {{"prefault-retry", 1},
        {"prefault-retry", 2},
        {"prefault-retry", 3},
        {"prefault-retry", 4},
        {"prefault-fallback-xnack", 5}}},
      {RuntimeConfig::EagerMaps, "prefault_hang@call=1;eintr@call=2",
       "150us:recover",
       {{"watchdog-replay", 1},
        {"prefault-retry", 2},
        {"watchdog-recovered", 3},
        {"prefault-retry-succeeded", 3}}},
  };
  for (const Case& c : cases) {
    auto stack = make_stack(c.config, c.faults, c.watchdog);
    try {
      (void)run_increment(*stack, 1024);
    } catch (const OffloadError&) {
      // The exhausted cases fail their region; the records are the point.
    }
    std::vector<std::pair<std::string, int>> ladder;
    for (const trace::FaultRecord& r : stack->hsa().fault_trace().records()) {
      switch (r.event) {
        case FaultEvent::CopyRetry:
        case FaultEvent::CopyRetrySucceeded:
        case FaultEvent::PrefaultRetry:
        case FaultEvent::PrefaultRetrySucceeded:
        case FaultEvent::PrefaultFallbackXnack:
        case FaultEvent::WatchdogReplay:
        case FaultEvent::WatchdogRecovered:
        case FaultEvent::RegionFailed:
          ladder.emplace_back(trace::to_string(r.event), r.attempt);
          break;
        default:
          EXPECT_EQ(r.attempt, 0) << trace::to_string(r);
      }
    }
    EXPECT_EQ(ladder, c.ladder) << c.faults << " / " << c.watchdog;
  }
}

TEST(WatchdogRecovery, HungPrefaultIsRetriedAfterTheAbort) {
  auto stack = make_stack(RuntimeConfig::EagerMaps, "prefault_hang@call=1",
                          "150us:recover");
  expect_incremented(run_increment(*stack, 1024), 1);
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(fault::Kind::PrefaultHang), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogTrip), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogReplay), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogRecovered), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
}

TEST(WatchdogRecovery, XnackLivelockIsReplayedLikeAHungKernel) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy,
                          "xnack_livelock@call=1", "300us:recover");
  expect_incremented(run_increment(*stack, 1024), 1);
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(fault::Kind::XnackLivelock), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogTrip), 1u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogRecovered), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
}

TEST(WatchdogRecovery, RepeatedTripsOpenTheBreakerAndPinNewMaps) {
  // Three regions each hang their first dispatch (the replay in between is
  // healthy), crossing breaker_trip_threshold=3 inside the 50 ms window;
  // the fourth region's fresh Copy-managed map must then be pinned to
  // eager zero-copy instead of touching the unhealthy device queue.
  auto stack = make_stack(
      RuntimeConfig::LegacyCopy,
      "kernel_hang@call=1;kernel_hang@call=3;kernel_hang@call=5",
      "100us:recover");
  expect_incremented(run_increment(*stack, 1024, /*rounds=*/4), 4);
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(FaultEvent::WatchdogTrip), 3u);
  EXPECT_EQ(faults.count(FaultEvent::WatchdogRecovered), 3u);
  EXPECT_EQ(faults.count(FaultEvent::BreakerOpened), 1u);
  EXPECT_GE(faults.count(FaultEvent::BreakerPinnedMap), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
  const CircuitBreaker& b = stack->omp().breaker(0);
  EXPECT_TRUE(b.open());
  EXPECT_EQ(b.total_trips(), 3u);
  EXPECT_EQ(b.times_opened(), 1u);
}

TEST(WatchdogRecovery, BreakerClosesAfterAQuietPeriod) {
  auto stack = make_stack(
      RuntimeConfig::LegacyCopy,
      "kernel_hang@call=1;kernel_hang@call=3;kernel_hang@call=5",
      "100us:recover");
  std::vector<double> result(256);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 256, "x"};
    for (std::size_t i = 0; i < 256; ++i) {
      x[i] = static_cast<double>(i);
    }
    const mem::VirtAddr xv = x.addr();
    TargetRegion region{
        .name = "incr",
        .maps = {x.tofrom()},
        .compute = 5_us,
        .body = [xv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          double* xd = ctx.ptr<double>(tr.device(xv));
          for (std::size_t i = 0; i < 256; ++i) {
            xd[i] += 1.0;
          }
        },
    };
    for (int r = 0; r < 3; ++r) {
      rt.target(region);  // three trips: the breaker opens
    }
    EXPECT_TRUE(rt.breaker(0).open());
    // A quiet period longer than 2x breaker_cooldown (20 ms) lets the
    // breaker probe half-open and then close; the next map runs the
    // normal Copy path again.
    stack->sched().advance(100_ms);
    rt.target(region);
    EXPECT_FALSE(rt.breaker(0).open());
    for (std::size_t i = 0; i < 256; ++i) {
      result[i] = x[i];
    }
  });
  expect_incremented(result, 4);
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(FaultEvent::BreakerOpened), 1u);
  EXPECT_EQ(faults.count(FaultEvent::BreakerHalfOpened), 1u);
  EXPECT_EQ(faults.count(FaultEvent::BreakerClosed), 1u);
  // The post-recovery map went back to the healthy Copy path.
  EXPECT_FALSE(faults.any(FaultEvent::BreakerPinnedMap));
}

TEST(WatchdogRecovery, AdaptiveMapsConsumesBreakerState) {
  // Once the breaker opens, the adaptive policy must see breaker_open on
  // fresh evaluations and pick eager prefault (both the copy and the
  // demand-faulting paths are priced out).
  auto stack = make_stack(
      RuntimeConfig::AdaptiveMaps,
      "kernel_hang@call=1;kernel_hang@call=3;kernel_hang@call=5",
      "100us:recover");
  // Adaptive entries stay resident once mapped, so each round maps a fresh
  // array to force a fresh policy evaluation.
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    for (int r = 0; r < 4; ++r) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "x";
      name += std::to_string(r);
      HostArray<double> x{rt, 1024, std::move(name)};
      for (std::size_t i = 0; i < 1024; ++i) {
        x[i] = static_cast<double>(i);
      }
      const mem::VirtAddr xv = x.addr();
      TargetRegion region{
          .name = "incr",
          .maps = {x.tofrom()},
          .compute = 5_us,
          .body = [xv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
            double* xd = ctx.ptr<double>(tr.device(xv));
            for (std::size_t i = 0; i < 1024; ++i) {
              xd[i] += 1.0;
            }
          },
      };
      rt.target(region);
      for (std::size_t i = 0; i < 1024; ++i) {
        ASSERT_DOUBLE_EQ(x[i], static_cast<double>(i) + 1.0);
      }
    }
  });
  const auto& decisions = stack->omp().decision_trace().records();
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_FALSE(decisions[0].breaker_open);
  EXPECT_TRUE(decisions[3].breaker_open);
  EXPECT_EQ(decisions[3].decision, adapt::Decision::EagerPrefault);
}

}  // namespace
}  // namespace zc::omp

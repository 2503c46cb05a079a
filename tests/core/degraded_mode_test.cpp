// Degraded-mode behaviour of the offload runtime under injected and
// organic faults: pool OOM degrades Copy-managed maps to zero-copy,
// transient prefault errors are retried with backoff, errored async copies
// are resubmitted — and when no degradation survives, exactly one region
// fails with a structured OffloadError while the runtime stays usable.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_runtime.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;
using trace::FaultEvent;
using trace::HsaCall;

// Image load (128 MB + 8x16 MB) plus one thread's init allocations
// (4 MB + 9 page-rounded slabs) occupy ~278 MB of pool storage before any
// map runs; this cap leaves ~22 MB of headroom so initialization succeeds
// while a 32 MB mapped array cannot be allocated.
constexpr std::uint64_t kTightHbm = 300ULL << 20;

std::unique_ptr<OffloadStack> make_stack(RuntimeConfig cfg,
                                         const std::string& fault_spec,
                                         std::uint64_t hbm_bytes = 128ULL
                                                                   << 30) {
  apu::Machine::Config config = OffloadStack::machine_config_for(cfg);
  config.env.ompx_apu_faults = fault_spec;
  config.topology.hbm_bytes = hbm_bytes;
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

TEST(DegradedMode, LegacyCopyFallsBackToZeroCopyOnPoolOom) {
  const std::size_t n = (32ULL << 20) / sizeof(double);  // 32 MB > headroom
  auto stack = make_stack(RuntimeConfig::LegacyCopy, "", kTightHbm);
  const std::vector<double> result = run_increment(*stack, n, /*rounds=*/2);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(result[i], static_cast<double>(i) + 2.0);
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  // Each of the two regions hit the capacity wall and degraded.
  EXPECT_EQ(faults.count(FaultEvent::HbmExhausted), 2u);
  EXPECT_EQ(faults.count(FaultEvent::OomFallbackZeroCopy), 2u);
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
  // The sticky pressure flag is up, the degraded entries were released
  // cleanly (no pool storage was ever attached to them), and no transfer
  // was issued for the degraded region.
  EXPECT_TRUE(stack->omp().memory_pressure(0));
  EXPECT_EQ(stack->omp().present_table(0).size(), 0u);
  EXPECT_EQ(stack->hsa().stats().count(HsaCall::MemoryPoolFree), 0u);
  EXPECT_EQ(stack->hsa().stats().count(HsaCall::MemoryAsyncCopy),
            static_cast<std::uint64_t>(OffloadRuntime::kImageLoadCopies));
}

TEST(DegradedMode, UncappedLegacyCopyStaysOnThePoolPath) {
  const std::size_t n = (32ULL << 20) / sizeof(double);
  auto stack = make_stack(RuntimeConfig::LegacyCopy, "");
  const std::vector<double> result = run_increment(*stack, n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(result[i], static_cast<double>(i) + 1.0);
  }
  EXPECT_TRUE(stack->hsa().fault_trace().empty());
  EXPECT_FALSE(stack->omp().memory_pressure(0));
  EXPECT_EQ(stack->hsa().stats().count(HsaCall::MemoryPoolFree), 1u);
}

TEST(DegradedMode, EagerMapsRetriesTransientPrefaultWithBackoff) {
  auto stack = make_stack(RuntimeConfig::EagerMaps, "eintr@call=1..3");
  const std::vector<double> result = run_increment(*stack, 1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_DOUBLE_EQ(result[i], static_cast<double>(i) + 1.0);
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(fault::Kind::Eintr), 3u);
  EXPECT_EQ(faults.count(FaultEvent::PrefaultRetry), 3u);
  EXPECT_EQ(faults.count(FaultEvent::PrefaultRetrySucceeded), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::PrefaultFallbackXnack));
  // The retry ladder's attempt ordinal on the success record counts the
  // successful call (attempt 4 after three failures).
  for (const trace::FaultRecord& r : faults.records()) {
    if (r.event == FaultEvent::PrefaultRetrySucceeded) {
      EXPECT_EQ(r.attempt, 4);
    }
  }
}

TEST(DegradedMode, ExponentialBackoffAdvancesVirtualTime) {
  // Four failed attempts back off 50+100+200+400 us before the fifth call;
  // with a persistent EINTR under XNACK the runtime then falls back, so
  // total added virtual time is at least the backoff sum.
  auto fast = make_stack(RuntimeConfig::EagerMaps, "");
  auto slow = make_stack(RuntimeConfig::EagerMaps, "eintr@p=1.0");
  (void)run_increment(*fast, 64);
  (void)run_increment(*slow, 64);
  const sim::Duration fast_t = fast->sched().horizon().since_start();
  const sim::Duration slow_t = slow->sched().horizon().since_start();
  EXPECT_GT(slow_t, fast_t + 750_us);
}

TEST(DegradedMode, EagerMapsFallsBackToXnackWhenRetriesExhaust) {
  auto stack = make_stack(RuntimeConfig::EagerMaps, "eintr@p=1.0");
  const std::vector<double> result = run_increment(*stack, 1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_DOUBLE_EQ(result[i], static_cast<double>(i) + 1.0);
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_GE(faults.count(FaultEvent::PrefaultFallbackXnack), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::PrefaultRetrySucceeded));
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
}

TEST(DegradedMode, ErroredAsyncCopyIsResubmittedOnce) {
  // AsyncCopy site calls 1..3 are the image upload; call 4 is the region's
  // h2d transfer. Its resubmission (call 5) is outside the schedule.
  auto stack = make_stack(RuntimeConfig::LegacyCopy, "sdma@call=4");
  const std::vector<double> result = run_increment(*stack, 1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_DOUBLE_EQ(result[i], static_cast<double>(i) + 1.0);
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_EQ(faults.count(fault::Kind::CopyError), 1u);
  EXPECT_EQ(faults.count(FaultEvent::CopyRetry), 1u);
  EXPECT_EQ(faults.count(FaultEvent::CopyRetrySucceeded), 1u);
  EXPECT_FALSE(faults.any(FaultEvent::RegionFailed));
}

TEST(DegradedMode, PersistentSdmaFailureRaisesStructuredCopyError) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy, "sdma@p=1.0");
  try {
    (void)run_increment(*stack, 1024);
    FAIL() << "expected OffloadError(CopyFailed)";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::CopyFailed);
    EXPECT_EQ(e.device(), 0);
  }
  EXPECT_GE(stack->hsa().fault_trace().count(FaultEvent::RegionFailed), 1u);
}

TEST(DegradedMode, OomWithXnackOffAndPersistentEintrIsUnsurvivable) {
  // Legacy Copy under memory pressure must prefault its zero-copy fallback
  // (XNACK off); when every prefault attempt fails, the region — and only
  // the region — fails with a structured error, not an abort.
  const std::size_t n = (32ULL << 20) / sizeof(double);
  auto stack =
      make_stack(RuntimeConfig::LegacyCopy, "eintr@p=1.0", kTightHbm);
  try {
    (void)run_increment(*stack, n);
    FAIL() << "expected OffloadError(PrefaultFailed)";
  } catch (const OffloadError& e) {
    EXPECT_EQ(e.code(), ErrorCode::PrefaultFailed);
    EXPECT_EQ(e.device(), 0);
    EXPECT_EQ(e.host_range().bytes, n * sizeof(double));
  }
  const trace::FaultTrace& faults = stack->hsa().fault_trace();
  EXPECT_TRUE(faults.any(FaultEvent::OomFallbackZeroCopy));
  EXPECT_GE(faults.count(FaultEvent::RegionFailed), 1u);
}

TEST(DegradedMode, AdaptiveMapsPricesDmaCopyOutUnderPressure) {
  // Make the prefault path pathological so the policy's argmin for an
  // untouched region is DmaCopy; under the tight cap that allocation
  // fails, degrades to zero-copy, and sets the sticky pressure flag — the
  // next fresh evaluation must price DmaCopy out and pick a non-copy
  // handling (recorded with memory_pressure=true).
  apu::Machine::Config config =
      OffloadStack::machine_config_for(RuntimeConfig::AdaptiveMaps);
  config.topology.hbm_bytes = kTightHbm;
  config.costs.prefault_insert_per_page = sim::Duration::from_us(5000.0);
  config.costs.prefault_populate_per_page = sim::Duration::from_us(5000.0);
  auto stack = std::make_unique<OffloadStack>(
      std::move(config),
      OffloadStack::program_for(RuntimeConfig::AdaptiveMaps, {}));
  const std::size_t n = (32ULL << 20) / sizeof(double);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, n, "x"};
    HostArray<double> y{rt, n, "y"};
    const MapEntry mx = x.tofrom();
    rt.target_data_begin({&mx, 1});
    rt.target_data_end({&mx, 1});
    EXPECT_TRUE(rt.memory_pressure(0));
    const MapEntry my = y.tofrom();
    rt.target_data_begin({&my, 1});
    rt.target_data_end({&my, 1});
  });
  const auto& decisions = stack->omp().decision_trace().records();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].decision, adapt::Decision::DmaCopy);
  EXPECT_FALSE(decisions[0].memory_pressure);
  EXPECT_NE(decisions[1].decision, adapt::Decision::DmaCopy);
  EXPECT_TRUE(decisions[1].memory_pressure);
  EXPECT_TRUE(
      stack->hsa().fault_trace().any(FaultEvent::OomFallbackZeroCopy));
}

TEST(DegradedMode, AllConfigsProduceIdenticalResultsUnderSurvivableFaults) {
  // The headline invariant: under a survivable schedule every
  // configuration completes through its degraded paths and computes
  // bit-identical results to its own fault-free run.
  constexpr RuntimeConfig kAll[] = {
      RuntimeConfig::LegacyCopy,      RuntimeConfig::UnifiedSharedMemory,
      RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps,
      RuntimeConfig::AdaptiveMaps,
  };
  const std::size_t n = 4096;
  for (RuntimeConfig cfg : kAll) {
    auto clean = make_stack(cfg, "");
    auto faulty = make_stack(cfg, "eintr@call=1..3;sdma@call=4;xnack@call=1");
    const std::vector<double> expect = run_increment(*clean, n);
    const std::vector<double> actual = run_increment(*faulty, n);
    EXPECT_EQ(actual, expect) << to_string(cfg);
  }
}

}  // namespace
}  // namespace zc::omp

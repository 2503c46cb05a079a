// End-to-end behaviour of the Adaptive Maps configuration: the runtime
// gathers region features inside its present-table transaction, the policy
// engine classifies each mapping, all three handlings execute their full
// protocol (prefault syscalls, demand faults, or pool-alloc + DMA), the
// decision trace explains every verdict, and results stay correct.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;
using adapt::Decision;

constexpr std::size_t kDoublesPerPage = (2ULL << 20) / sizeof(double);

std::unique_ptr<OffloadStack> adaptive_stack(
    std::optional<apu::CostParams> costs = std::nullopt) {
  apu::Machine::Config mc =
      OffloadStack::machine_config_for(RuntimeConfig::AdaptiveMaps);
  if (costs) {
    mc.costs = *costs;
  }
  return std::make_unique<OffloadStack>(
      std::move(mc), OffloadStack::program_for(RuntimeConfig::AdaptiveMaps, {}));
}

TEST(AdaptiveMaps, StackSelectsTheAdaptiveConfiguration) {
  auto stack = adaptive_stack();
  EXPECT_EQ(stack->omp().config(), RuntimeConfig::AdaptiveMaps);
  // Shared-storage semantics: arguments translate to host addresses unless
  // the engine put a region behind a device copy.
  EXPECT_TRUE(stack->omp().zero_copy());
}

TEST(AdaptiveMaps, UntouchedRegionIsPrefaultedAndComputesCorrectly) {
  auto stack = adaptive_stack();
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 4 * kDoublesPerPage, "ep-like"};
    const mem::VirtAddr xv = x.addr();
    rt.target(TargetRegion{
        .name = "gpu_first_touch",
        .maps = {x.tofrom()},
        .compute = 10_us,
        .body = [xv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          double* w = ctx.ptr<double>(tr.device(xv));
          for (int i = 0; i < 8; ++i) {
            w[i] = 3.0 * i;
          }
        }});
    // Shared storage: kernel writes are host-visible with no copy-back.
    EXPECT_DOUBLE_EQ(x[7], 21.0);
    x.release();
  });
  const auto& records = stack->omp().decision_trace().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].decision, Decision::EagerPrefault);
  EXPECT_EQ(records[0].pages, 4u);
  EXPECT_EQ(records[0].cpu_resident_pages, 0u);
  EXPECT_EQ(records[0].gpu_absent_pages, 4u);
  EXPECT_LT(records[0].predicted_eager_us, records[0].predicted_zero_copy_us);
  // The prefault protocol really ran.
  EXPECT_GT(stack->hsa().ledger().prefault_calls(), 0u);
  // No device copy was created; the table is clean.
  EXPECT_EQ(stack->omp().present_table().size(), 0u);
}

TEST(AdaptiveMaps, HostTouchedSinglePageGoesZeroCopy) {
  auto stack = adaptive_stack();
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 4096, "small"};  // well inside one 2 MB page
    x.first_touch();
    rt.target(TargetRegion{
        .name = "k", .maps = {x.tofrom()}, .compute = 5_us, .body = {}});
    x.release();
  });
  const auto& records = stack->omp().decision_trace().records();
  ASSERT_EQ(records.size(), 1u);
  // One resident page: a single XNACK fault (10us) undercuts the prefault
  // syscall + insert (10.2us) — the cheapest handling per the cost model.
  EXPECT_EQ(records[0].decision, Decision::ZeroCopy);
  EXPECT_EQ(records[0].pages, 1u);
  // The kernel paid for that choice with a real demand fault.
  EXPECT_GT(stack->hsa().device_counters()[0].page_faults, 0u);
}

TEST(AdaptiveMaps, SteadyStateHitsTheCacheThenRevisesOnce) {
  auto stack = adaptive_stack();
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 4 * kDoublesPerPage, "steady"};
    x.first_touch();
    for (int step = 0; step < 10; ++step) {
      rt.target(TargetRegion{
          .name = "step", .maps = {x.tofrom()}, .compute = 5_us, .body = {}});
    }
    x.release();
  });
  const trace::DecisionTrace& trace = stack->omp().decision_trace();
  // Map 1 evaluates fresh (CPU-resident, GPU-absent -> eager prefault);
  // maps 2-5 ride the hysteresis window as cache hits; map 6 re-evaluates
  // against the now-GPU-resident pages and revises to zero-copy (cost 0);
  // maps 7-10 hit the cache again. Exactly two evaluations, eight hits.
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.cache_hits(), 8u);
  EXPECT_EQ(trace.records()[0].decision, Decision::EagerPrefault);
  EXPECT_FALSE(trace.records()[0].revised);
  EXPECT_EQ(trace.records()[1].decision, Decision::ZeroCopy);
  EXPECT_TRUE(trace.records()[1].revised);
  EXPECT_EQ(trace.records()[1].gpu_absent_pages, 0u);
}

TEST(AdaptiveMaps, DmaCopyDecisionRunsTheFullCopyProtocol) {
  // A cost model where both unified-memory paths are pathological: the
  // engine must fall back to the classic pool-alloc + DMA handling, and
  // the data must still round-trip correctly through the device copy.
  apu::CostParams costs = apu::mi300a_costs();
  costs.xnack_fault_resident = sim::Duration::from_us(5000.0);
  costs.page_materialize = sim::Duration::from_us(50000.0);
  costs.prefault_insert_per_page = sim::Duration::from_us(5000.0);
  costs.prefault_populate_per_page = sim::Duration::from_us(5000.0);
  auto stack = adaptive_stack(costs);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 2 * kDoublesPerPage, "copied"};
    x.first_touch();
    for (std::size_t i = 0; i < 16; ++i) {
      x[i] = static_cast<double>(i);
    }
    const mem::VirtAddr xv = x.addr();
    rt.target(TargetRegion{
        .name = "double_it",
        .maps = {x.tofrom()},
        .compute = 5_us,
        .body = [xv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          double* w = ctx.ptr<double>(tr.device(xv));
          for (int i = 0; i < 16; ++i) {
            w[i] *= 2.0;
          }
        }});
    // tofrom copied the device results back over the host values.
    EXPECT_DOUBLE_EQ(x[0], 0.0);
    EXPECT_DOUBLE_EQ(x[15], 30.0);
    // The copy's present-table entry was reclaimed at region end.
    EXPECT_EQ(rt.present_table().size(), 0u);
    x.release();
  });
  const auto& records = stack->omp().decision_trace().records();
  ASSERT_GE(records.size(), 1u);
  EXPECT_EQ(records[0].decision, Decision::DmaCopy);
  EXPECT_LT(records[0].predicted_copy_us, records[0].predicted_eager_us);
  EXPECT_LT(records[0].predicted_copy_us, records[0].predicted_zero_copy_us);
}

TEST(AdaptiveMaps, BeatsPlainZeroCopyOnGpuFirstTouch) {
  // The paper's 452.ep lesson: demand-faulting untouched memory one page at
  // a time is the worst case for implicit zero-copy. The adaptive runtime
  // must recognize the pattern and prefault instead.
  auto run = [](RuntimeConfig config) {
    OffloadStack stack{OffloadStack::machine_config_for(config),
                       OffloadStack::program_for(config, {})};
    stack.sched().run_single([&] {
      OffloadRuntime& rt = stack.omp();
      HostArray<double> x{rt, 8 * kDoublesPerPage, "ep"};
      rt.target(TargetRegion{
          .name = "ep", .maps = {x.tofrom()}, .compute = 50_us, .body = {}});
      x.release();
    });
    return stack.sched().horizon().since_start();
  };
  EXPECT_LT(run(RuntimeConfig::AdaptiveMaps),
            run(RuntimeConfig::ImplicitZeroCopy));
}

TEST(AdaptiveMaps, ConcurrentThreadsUnderStressStayConsistent) {
  // Several host threads mapping the same ranges concurrently, under the
  // seeded stress scheduler: decisions ride the present-table transaction,
  // so this must neither trip the lock-discipline checker nor leak
  // mappings or active-map pins.
  for (std::uint64_t stress_seed = 1; stress_seed <= 4; ++stress_seed) {
    auto stack = adaptive_stack();
    stack->sched().enable_stress(stress_seed);
    auto& sched = stack->sched();
    std::optional<HostArray<double>> shared;
    sched.spawn("setup", [&] {
      shared.emplace(stack->omp(), 4 * kDoublesPerPage, "shared");
      shared->first_touch();
    });
    sched.run();
    for (int t = 0; t < 4; ++t) {
      sched.spawn("omp-" + std::to_string(t), [&] {
        OffloadRuntime& rt = stack->omp();
        for (int step = 0; step < 5; ++step) {
          rt.target(TargetRegion{.name = "k",
                                 .maps = {shared->tofrom()},
                                 .compute = 2_us,
                                 .body = {}});
        }
      });
    }
    sched.run();
    sched.spawn("cleanup", [&] { shared->release(); });
    sched.run();
    EXPECT_EQ(stack->omp().present_table().size(), 0u)
        << "stress_seed=" << stress_seed;
    // 20 maps of one range: exactly the fresh evaluations the hysteresis
    // schedule allows, everything else cache hits.
    const trace::DecisionTrace& trace = stack->omp().decision_trace();
    EXPECT_GE(trace.cache_hits(), 15u) << "stress_seed=" << stress_seed;
  }
}

}  // namespace
}  // namespace zc::omp

// End-to-end validation of the cost model: drive the public API with
// stream-benchmark-style workloads and check that the *achieved* rates and
// latencies land on the configured machine parameters — guarding against
// regressions where layered overheads silently distort the calibration.

#include <gtest/gtest.h>

#include <memory>

#include "zc/core/cost.hpp"
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

TEST(ModelValidation, AchievedCopyBandwidthMatchesConfiguration) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  const std::uint64_t bytes = 4ULL << 30;
  sim::Duration elapsed;
  stack->sched().run_single([&] {
    hsa::Runtime& hsa = stack->hsa();
    mem::MemorySystem& mm = stack->memory();
    mem::Allocation& src = mm.os_alloc(bytes, "src");
    mem::Allocation& dst = mm.os_alloc(bytes, "dst");
    const sim::TimePoint t0 = stack->sched().now();
    hsa.signal_wait_scacquire(hsa.memory_async_copy(dst.base(), src.base(), bytes));
    elapsed = stack->sched().now() - t0;
  });
  const double achieved = static_cast<double>(bytes) / elapsed.sec();
  const double configured = stack->machine().costs().copy_bandwidth_bytes_per_s;
  EXPECT_NEAR(achieved / configured, 1.0, 0.02);  // setup cost is tiny at 4 GB
}

TEST(ModelValidation, StreamTriadKernelRateMatchesGpuBandwidth) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  const std::uint64_t n = 64ULL << 20;  // doubles
  const std::uint64_t streamed = 3 * n * sizeof(double);  // a = b + s*c
  sim::Duration kernel_time;
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const mem::VirtAddr a = rt.host_alloc(n * sizeof(double), "a");
    const mem::VirtAddr b = rt.host_alloc(n * sizeof(double), "b");
    const mem::VirtAddr c = rt.host_alloc(n * sizeof(double), "c");
    for (const mem::VirtAddr v : {a, b, c}) {
      rt.host_first_touch(mem::AddrRange{v, n * sizeof(double)});
    }
    const std::vector<MapEntry> maps{MapEntry::tofrom(a, n * sizeof(double)),
                                     MapEntry::to(b, n * sizeof(double)),
                                     MapEntry::to(c, n * sizeof(double))};
    rt.target_data_begin(maps);
    // Warm-up sweep absorbs the one-off faults; measure the second.
    auto triad = TargetRegion{
        .name = "triad",
        .uses = {BufferUse{a, n * sizeof(double), hsa::Access::Write},
                 BufferUse{b, n * sizeof(double), hsa::Access::Read},
                 BufferUse{c, n * sizeof(double), hsa::Access::Read}},
        .compute = stream_kernel_cost(stack->machine(), streamed),
        .body = {},
    };
    rt.target(triad);
    const auto before = stack->hsa().device_counters()[0].gpu_time;
    rt.target(triad);
    kernel_time = stack->hsa().device_counters()[0].gpu_time - before;
    rt.target_data_end(maps);
  });
  const double achieved = static_cast<double>(streamed) / kernel_time.sec();
  const double configured =
      stack->machine().costs().gpu_stream_bandwidth_bytes_per_s;
  // XNACK slowdown (2%) and launch latency shave a few percent.
  EXPECT_NEAR(achieved / configured, 1.0, 0.05);
}

TEST(ModelValidation, FirstTouchSweepCostsFaultServicePerPage) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  const std::uint64_t page = stack->machine().page_bytes();
  const std::uint64_t pages = 512;
  sim::Duration stall;
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const mem::VirtAddr buf = rt.host_alloc(pages * page, "arena");
    rt.target(TargetRegion{
        .name = "init",
        .uses = {BufferUse{buf, pages * page, hsa::Access::Write}},
        .compute = 1_us,
        .body = {},
    });
    stall = stack->hsa().device_counters()[0].fault_stall;
  });
  const sim::Duration expected =
      stack->machine().fault_service_duration(false) *
      static_cast<double>(pages);
  EXPECT_EQ(stall, expected);  // uncontended: no queueing delay
}

TEST(ModelValidation, PrefaultThroughputMatchesBulkPopulateRate) {
  auto stack = make_stack(RuntimeConfig::EagerMaps);
  const std::uint64_t page = stack->machine().page_bytes();
  const std::uint64_t pages = 1024;
  sim::Duration elapsed;
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    rt.target_data_begin({});  // init
    const mem::VirtAddr buf = rt.host_alloc(pages * page, "arena");
    const MapEntry entry = MapEntry::alloc(buf, pages * page);
    const sim::TimePoint t0 = stack->sched().now();
    rt.target_data_begin({&entry, 1});
    elapsed = stack->sched().now() - t0;
    rt.target_data_end({&entry, 1});
  });
  const apu::CostParams& c = stack->machine().costs();
  const sim::Duration expected =
      c.prefault_syscall_base +
      (c.prefault_insert_per_page + c.prefault_populate_per_page) *
          static_cast<double>(pages) +
      c.map_bookkeeping;
  EXPECT_NEAR(elapsed / expected, 1.0, 0.01);
}

TEST(ShapeIntegration, ThreadScalingAndSizeDecay) {
  // Micro-scale re-derivation of the Fig. 3 / Fig. 4 shapes from the public
  // API: the Copy/zero-copy ratio grows with host threads and shrinks with
  // problem size; Eager Maps trails Implicit Z-C at small sizes.
  auto measure = [](RuntimeConfig cfg, int size, int threads) {
    zc::workloads::QmcpackParams p;
    p.size = size;
    p.threads = threads;
    p.walkers_per_thread = 4;
    p.steps = 120;
    return zc::workloads::run_program(zc::workloads::make_qmcpack(p),
                                      {.config = cfg})
        .wall_time;
  };
  const double r_1t =
      measure(RuntimeConfig::LegacyCopy, 2, 1) /
      measure(RuntimeConfig::ImplicitZeroCopy, 2, 1);
  const double r_8t =
      measure(RuntimeConfig::LegacyCopy, 2, 8) /
      measure(RuntimeConfig::ImplicitZeroCopy, 2, 8);
  EXPECT_GT(r_8t, r_1t);  // Fig. 3: ratio rises with threads
  EXPECT_GT(r_1t, 1.0);

  const double big =
      measure(RuntimeConfig::LegacyCopy, 64, 8) /
      measure(RuntimeConfig::ImplicitZeroCopy, 64, 8);
  EXPECT_LT(big, r_8t);  // Fig. 4: advantage shrinks with size
  EXPECT_GT(big, 1.0);   // but zero-copy still wins

  const double eager_8t =
      measure(RuntimeConfig::LegacyCopy, 2, 8) /
      measure(RuntimeConfig::EagerMaps, 2, 8);
  EXPECT_LT(eager_8t, r_8t);  // Eager Maps trails at small sizes
}

}  // namespace
}  // namespace zc::omp

#include <gtest/gtest.h>

#include <memory>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;

std::unique_ptr<OffloadStack> make_stack(RuntimeConfig cfg) {
  return std::make_unique<OffloadStack>(OffloadStack::machine_config_for(cfg),
                                        OffloadStack::program_for(cfg, {}));
}

TEST(AsyncTarget, NowaitReturnsBeforeKernelCompletes) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 64, "x"};
    rt.target_data_begin({});  // image load / thread init up front
    TargetRegion region{.name = "long",
                        .maps = {x.tofrom()},
                        .compute = sim::Duration::milliseconds(50),
                        .body = {}};
    const sim::TimePoint before = stack->sched().now();
    TargetTask task = rt.target_nowait(region);
    const sim::Duration elapsed = stack->sched().now() - before;
    EXPECT_LT(elapsed, sim::Duration::milliseconds(5));  // did not wait
    rt.target_wait(task);
    EXPECT_GE(stack->sched().now() - before, sim::Duration::milliseconds(50));
    EXPECT_TRUE(task.completed());
  });
}

TEST(AsyncTarget, ResultsVisibleAfterWaitUnderCopy) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 8, "x"};
    x[0] = 2.0;
    const mem::VirtAddr xv = x.addr();
    TargetRegion region{
        .name = "sq",
        .maps = {x.tofrom()},
        .compute = 10_us,
        .body = [xv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          double* d = ctx.ptr<double>(tr.device(xv));
          d[0] = d[0] * d[0];
        },
    };
    TargetTask task = rt.target_nowait(region);
    rt.target_wait(task);
    EXPECT_DOUBLE_EQ(x[0], 4.0);  // d2h performed by the deferred data-end
  });
}

TEST(AsyncTarget, TwoNowaitKernelsOverlapOnOneThread) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> a{rt, 64, "a"};
    HostArray<double> b{rt, 64, "b"};
    rt.target_data_begin({});  // image load / thread init up front
    auto region = [](HostArray<double>& arr, const char* name) {
      return TargetRegion{.name = name,
                          .maps = {arr.tofrom()},
                          .compute = sim::Duration::milliseconds(20),
                          .body = {}};
    };
    const sim::TimePoint before = stack->sched().now();
    TargetTask t1 = rt.target_nowait(region(a, "k1"));
    TargetTask t2 = rt.target_nowait(region(b, "k2"));
    rt.target_wait(t1);
    rt.target_wait(t2);
    const sim::Duration elapsed = stack->sched().now() - before;
    // Overlapped on the GPU slots: well under 2x20ms.
    EXPECT_LT(elapsed, sim::Duration::milliseconds(30));
  });
}

TEST(AsyncTarget, DoubleWaitThrows) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 HostArray<double> x{rt, 8, "x"};
                 TargetRegion region{.name = "k",
                                     .maps = {x.tofrom()},
                                     .compute = 1_us,
                                     .body = {}};
                 TargetTask task = rt.target_nowait(region);
                 rt.target_wait(task);
                 rt.target_wait(task);
               }),
               MappingError);
}

TEST(AsyncTarget, EmptyTaskRejected) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 TargetTask task;
                 stack->omp().target_wait(task);
               }),
               MappingError);
}

TEST(DevicePtrApi, AllocWorksInEveryConfigButAlwaysAllocates) {
  for (RuntimeConfig cfg :
       {RuntimeConfig::LegacyCopy, RuntimeConfig::UnifiedSharedMemory,
        RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps}) {
    auto stack = make_stack(cfg);
    stack->sched().run_single([&] {
      OffloadRuntime& rt = stack->omp();
      rt.target_data_begin({});  // init
      const auto allocs_before =
          stack->hsa().stats().count(trace::HsaCall::MemoryPoolAllocate);
      const mem::VirtAddr dev = rt.device_alloc(1 << 20, "devbuf");
      // The pitfall: the pool allocation happens regardless of zero-copy.
      EXPECT_EQ(stack->hsa().stats().count(trace::HsaCall::MemoryPoolAllocate),
                allocs_before + 1)
          << to_string(cfg);
      rt.device_free(dev);
    });
  }
}

TEST(DevicePtrApi, MemcpyAndIsDevicePtrKernelRoundTrip) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> host{rt, 8, "host"};
    host[0] = 5.0;
    const mem::VirtAddr dev = rt.device_alloc(8 * sizeof(double), "dev");

    // omp_target_memcpy h2d, kernel via is_device_ptr, memcpy d2h.
    rt.target_memcpy(dev, host.addr(), host.bytes());
    TargetRegion region{
        .name = "devptr_kernel",
        .maps = {},
        .uses = {BufferUse{dev, 8 * sizeof(double), hsa::Access::ReadWrite}},
        .compute = 1_us,
        .body = [dev](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          // is_device_ptr: translation is identity even under Legacy Copy.
          ctx.ptr<double>(tr.device(dev))[0] += 1.5;
        },
    };
    rt.target(region);
    rt.target_memcpy(host.addr(), dev, host.bytes());
    EXPECT_DOUBLE_EQ(host[0], 6.5);
    rt.device_free(dev);
  });
}

TEST(DevicePtrApi, NullifiesZeroCopyBenefit) {
  // The paper's QMCPack build note: code that allocates through the device
  // runtime keeps paying allocation + transfer costs even under Implicit
  // Zero-Copy.
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> host{rt, 1 << 16, "host"};
    rt.target_data_begin({});
    const auto copies_before = stack->hsa().ledger().mm_copy();
    const mem::VirtAddr dev = rt.device_alloc(host.bytes(), "dev");
    rt.target_memcpy(dev, host.addr(), host.bytes());
    rt.target_memcpy(host.addr(), dev, host.bytes());
    rt.device_free(dev);
    EXPECT_GT(stack->hsa().ledger().mm_copy(), copies_before);
    EXPECT_GT(stack->hsa().ledger().mm_alloc(), sim::Duration::zero());
  });
}

TEST(AsyncTarget, DependentTasksSerializeOnTheGpu) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->hsa().set_keep_records(true);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> a{rt, 64, "a"};
    HostArray<double> b{rt, 64, "b"};
    rt.target_data_begin({});
    auto region = [](HostArray<double>& arr, const char* name) {
      return TargetRegion{.name = name,
                          .maps = {arr.tofrom()},
                          .compute = sim::Duration::milliseconds(20),
                          .body = {}};
    };
    TargetTask t1 = rt.target_nowait(region(a, "producer"));
    const TargetTask* deps[] = {&t1};
    TargetTask t2 = rt.target_nowait(region(b, "consumer"), deps);
    rt.target_wait(t1);
    rt.target_wait(t2);
  });
  const auto& recs = stack->hsa().kernel_records();
  // Find the two steady-state kernels (skip none: only two launched).
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_GE(recs[1].start, recs[0].end);  // dependence respected
}

TEST(AsyncTarget, IndependentTasksStillOverlap) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->hsa().set_keep_records(true);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> a{rt, 64, "a"};
    HostArray<double> b{rt, 64, "b"};
    rt.target_data_begin({});
    auto region = [](HostArray<double>& arr, const char* name) {
      return TargetRegion{.name = name,
                          .maps = {arr.tofrom()},
                          .compute = sim::Duration::milliseconds(20),
                          .body = {}};
    };
    TargetTask t1 = rt.target_nowait(region(a, "k1"));
    TargetTask t2 = rt.target_nowait(region(b, "k2"));
    rt.target_wait(t1);
    rt.target_wait(t2);
  });
  const auto& recs = stack->hsa().kernel_records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_LT(recs[1].start, recs[0].end);  // concurrent on the slots
}

TEST(AsyncTarget, DependenceChainAccumulates) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> a{rt, 64, "a"};
    rt.target_data_begin({});
    TargetRegion region{.name = "link",
                        .maps = {a.tofrom()},
                        .compute = sim::Duration::milliseconds(10),
                        .body = {}};
    TargetTask t1 = rt.target_nowait(region);
    const TargetTask* d1[] = {&t1};
    TargetTask t2 = rt.target_nowait(region, d1);
    const TargetTask* d2[] = {&t2};
    TargetTask t3 = rt.target_nowait(region, d2);
    rt.target_wait(t1);
    rt.target_wait(t2);
    rt.target_wait(t3);
    // Three links of >= 10ms each, serialized.
    EXPECT_GE(stack->sched().now().since_start(),
              sim::Duration::milliseconds(30));
  });
}

TEST(AsyncTarget, NullDependenceRejected) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 HostArray<double> x{rt, 8, "x"};
                 TargetRegion region{.name = "k",
                                     .maps = {x.tofrom()},
                                     .compute = 1_us,
                                     .body = {}};
                 const TargetTask* deps[] = {nullptr};
                 (void)rt.target_nowait(region, deps);
               }),
               MappingError);
}

}  // namespace
}  // namespace zc::omp

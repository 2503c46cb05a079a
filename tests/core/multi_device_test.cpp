// Multi-socket APU support (§III-A of the paper): each socket's GPU is one
// OpenMP device with its own page table, driver, and engines; memory homed
// on the other socket is reachable at a fabric penalty.

#include <gtest/gtest.h>

#include <memory>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;

std::unique_ptr<OffloadStack> make_card(RuntimeConfig cfg, int sockets,
                                        ProgramBinary prog = {}) {
  apu::Machine::Config mc = OffloadStack::machine_config_for(cfg);
  mc.topology.sockets = sockets;
  return std::make_unique<OffloadStack>(std::move(mc),
                                        OffloadStack::program_for(cfg, std::move(prog)));
}

TEST(MultiDevice, SocketResourcesAreIndependent) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  apu::Machine& m = stack->machine();
  EXPECT_EQ(m.sockets(), 2);
  (void)m.gpu(0).reserve(sim::TimePoint::zero(), 10_ms);
  EXPECT_GT(m.gpu(0).drained_at(), sim::TimePoint::zero());
  EXPECT_EQ(m.gpu(1).drained_at(), sim::TimePoint::zero());
  EXPECT_THROW((void)m.gpu(2), std::out_of_range);
  EXPECT_THROW((void)m.driver(-1), std::out_of_range);
}

TEST(MultiDevice, PageTablesPerSocket) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  mem::MemorySystem& mm = stack->memory();
  mem::Allocation& a = mm.os_alloc(4 * stack->machine().page_bytes(), "buf");
  (void)mm.gpu_fault_in(a.range(), 0);
  EXPECT_EQ(mm.gpu_absent_pages(a.range(), 0), 0u);
  EXPECT_EQ(mm.gpu_absent_pages(a.range(), 1), 4u);  // socket 1 never faulted
}

TEST(MultiDevice, KernelsFaultPerDevice) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const std::uint64_t page = stack->machine().page_bytes();
    HostArray<std::byte> x{rt, static_cast<std::size_t>(4 * page), "x"};
    TargetRegion on0{.name = "k0",
                     .maps = {x.tofrom()},
                     .compute = 10_us,
                     .body = {},
                     .device = 0};
    TargetRegion on1{on0};
    on1.name = "k1";
    on1.device = 1;
    rt.target(on0);
    rt.target(on1);  // same host range faults again on the other socket
  });
  const auto& dc = stack->hsa().device_counters();
  EXPECT_EQ(dc[0].page_faults + dc[1].page_faults, 8u);
}

TEST(MultiDevice, RemoteMemoryPenalizesKernelCompute) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  sim::Duration local;
  sim::Duration remote;
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const mem::VirtAddr near =
        rt.host_alloc(1 << 20, "near", /*home_socket=*/0);
    const mem::VirtAddr far = rt.host_alloc(1 << 20, "far", /*home_socket=*/1);
    rt.host_first_touch(mem::AddrRange{near, 1 << 20});
    rt.host_first_touch(mem::AddrRange{far, 1 << 20});
    auto run_on0 = [&](mem::VirtAddr buf) {
      const auto before = stack->hsa().device_counters()[0].compute;
      rt.target(TargetRegion{
          .name = "probe",
          .maps = {MapEntry::tofrom(buf, 1 << 20)},
          .compute = 1000_us,
          .body = {},
          .device = 0,
      });
      return stack->hsa().device_counters()[0].compute - before;
    };
    local = run_on0(near);
    remote = run_on0(far);
  });
  const double penalty = stack->machine().costs().remote_memory_penalty;
  EXPECT_NEAR(remote / local, penalty, 0.01);
}

TEST(MultiDevice, CrossSocketCopiesAreSlower) {
  auto stack = make_card(RuntimeConfig::LegacyCopy, 2);
  sim::Duration same;
  sim::Duration cross;
  stack->sched().run_single([&] {
    hsa::Runtime& hsa = stack->hsa();
    mem::MemorySystem& mm = stack->memory();
    const std::uint64_t bytes = 256ULL << 20;
    mem::Allocation& a0 = mm.os_alloc(bytes, "a0", 0);
    mem::Allocation& b0 = mm.os_alloc(bytes, "b0", 0);
    mem::Allocation& c1 = mm.os_alloc(bytes, "c1", 1);
    {
      hsa::Signal s = hsa.memory_async_copy(b0.base(), a0.base(), bytes);
      same = s.complete_at().since_start();
    }
    const sim::TimePoint before = stack->sched().now();
    {
      hsa::Signal s = hsa.memory_async_copy(c1.base(), a0.base(), bytes);
      cross = s.complete_at() - before;
    }
  });
  EXPECT_GT(cross, same);
}

TEST(MultiDevice, GlobalsGetOneDeviceCopyPerSocket) {
  ProgramBinary prog;
  prog.globals.push_back(GlobalVar{"g", sizeof(double)});
  auto two = make_card(RuntimeConfig::ImplicitZeroCopy, 2, prog);
  auto one = make_card(RuntimeConfig::ImplicitZeroCopy, 1, prog);
  auto count_global_allocs = [](OffloadStack& stack) {
    stack.sched().run_single(
        [&] { (void)stack.omp().global_host_addr("g"); });
    return stack.hsa().stats().count(trace::HsaCall::MemoryPoolAllocate);
  };
  // Image-load allocations are identical; the two-socket card adds one
  // extra device copy of the global.
  EXPECT_EQ(count_global_allocs(*two), count_global_allocs(*one) + 1);
}

TEST(MultiDevice, PresentTablesIndependentAcrossDevices) {
  auto stack = make_card(RuntimeConfig::LegacyCopy, 2);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 64, "x"};
    const MapEntry entry = x.tofrom();
    rt.target_data_begin({&entry, 1}, 0);
    EXPECT_EQ(rt.present_table(0).size(), 1u);
    EXPECT_EQ(rt.present_table(1).size(), 0u);
    rt.target_data_begin({&entry, 1}, 1);  // independent second mapping
    EXPECT_EQ(rt.present_table(1).size(), 1u);
    rt.target_data_end({&entry, 1}, 1);
    rt.target_data_end({&entry, 1}, 0);
    EXPECT_EQ(rt.present_table(0).size(), 0u);
    EXPECT_EQ(rt.present_table(1).size(), 0u);
  });
}

TEST(MultiDevice, OutOfRangeDeviceRejected) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 HostArray<double> x{rt, 8, "x"};
                 TargetRegion region{.name = "k",
                                     .maps = {x.tofrom()},
                                     .compute = 1_us,
                                     .body = {},
                                     .device = 2};
                 rt.target(region);
               }),
               MappingError);
}

TEST(MultiDevice, AutoDeviceFollowsTheData) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const std::uint64_t page = stack->machine().page_bytes();
    const mem::VirtAddr far =
        rt.host_alloc(4 * page, "far", /*home_socket=*/1);
    rt.host_first_touch(mem::AddrRange{far, 4 * page});
    rt.target(TargetRegion{
        .name = "auto",
        .maps = {MapEntry::tofrom(far, 4 * page)},
        .compute = 10_us,
        .body = {},
        .device = OffloadRuntime::kDeviceAuto,
    });
    // The kernel ran where the data lives: socket 1's page table filled,
    // socket 0's never did.
    mem::MemorySystem& mm = stack->memory();
    EXPECT_EQ(mm.gpu_absent_pages(mem::AddrRange{far, 4 * page}, 1), 0u);
    EXPECT_EQ(mm.gpu_absent_pages(mem::AddrRange{far, 4 * page}, 0), 4u);
  });
  EXPECT_EQ(stack->hsa().device_counters()[1].kernels, 1u);
  EXPECT_EQ(stack->hsa().device_counters()[0].kernels, 0u);
}

TEST(MultiDevice, AutoDeviceWeighsBytesAndBreaksTiesLow) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const std::uint64_t page = stack->machine().page_bytes();
    const mem::VirtAddr big = rt.host_alloc(3 * page, "big", 1);
    const mem::VirtAddr small = rt.host_alloc(1 * page, "small", 0);
    rt.host_first_touch(mem::AddrRange{big, 3 * page});
    rt.host_first_touch(mem::AddrRange{small, 1 * page});
    rt.target(TargetRegion{
        .name = "weighted",
        .maps = {MapEntry::tofrom(big, 3 * page),
                 MapEntry::tofrom(small, 1 * page)},
        .compute = 10_us,
        .body = {},
        .device = OffloadRuntime::kDeviceAuto,
    });
    // Equal bytes on both sockets: the tie breaks to the lower device.
    const mem::VirtAddr even0 = rt.host_alloc(2 * page, "even0", 0);
    const mem::VirtAddr even1 = rt.host_alloc(2 * page, "even1", 1);
    rt.host_first_touch(mem::AddrRange{even0, 2 * page});
    rt.host_first_touch(mem::AddrRange{even1, 2 * page});
    rt.target(TargetRegion{
        .name = "tied",
        .maps = {MapEntry::tofrom(even0, 2 * page),
                 MapEntry::tofrom(even1, 2 * page)},
        .compute = 10_us,
        .body = {},
        .device = OffloadRuntime::kDeviceAuto,
    });
  });
  EXPECT_EQ(stack->hsa().device_counters()[1].kernels, 1u);  // "weighted"
  EXPECT_EQ(stack->hsa().device_counters()[0].kernels, 1u);  // "tied"
}

TEST(MultiDevice, TargetMemcpyRunsOnTheDestinationSocketsEngine) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  // Image-load copies land on device 0's engine at first use; compare
  // against that baseline so only the memcpy itself is attributed.
  sim::Duration sdma0_before;
  hsa::DeviceCounters dev0_before;
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const std::uint64_t bytes = 8 << 20;
    const mem::VirtAddr src = rt.host_alloc(bytes, "src", 0);
    const mem::VirtAddr dst = rt.host_alloc(bytes, "dst", 1);
    rt.host_first_touch(mem::AddrRange{src, bytes});
    // Trigger the lazy image load (its copies ride device 0's engine).
    const MapEntry warm = MapEntry::to(src, bytes);
    rt.target_data_begin({&warm, 1}, 0);
    rt.target_data_end({&warm, 1}, 0);
    sdma0_before = stack->machine().sdma(0).busy_time();
    dev0_before = stack->hsa().device_counters()[0];
    rt.target_memcpy(dst, src, bytes);
  });
  apu::Machine& m = stack->machine();
  EXPECT_GT(m.sdma(1).busy_time(), sim::Duration{});
  EXPECT_EQ(m.sdma(0).busy_time(), sdma0_before);  // engine 0 untouched
  const std::vector<hsa::DeviceCounters>& dc = stack->hsa().device_counters();
  EXPECT_EQ(dc[1].copies, 1u);
  EXPECT_EQ(dc[1].cross_socket_copies, 1u);
  EXPECT_EQ(dc[0].copies, dev0_before.copies);
}

TEST(MultiDevice, MigrationMakesRemoteMemoryLocal) {
  auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
  sim::Duration remote;
  sim::Duration after_migrate;
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const std::uint64_t bytes = 4 * stack->machine().page_bytes();
    const mem::VirtAddr buf = rt.host_alloc(bytes, "buf", /*home_socket=*/0);
    rt.host_first_touch(mem::AddrRange{buf, bytes});
    auto run_on1 = [&] {
      const auto before = stack->hsa().device_counters()[1].compute;
      rt.target(TargetRegion{
          .name = "probe",
          .maps = {MapEntry::tofrom(buf, bytes)},
          .compute = 1000_us,
          .body = {},
          .device = 1,
      });
      return stack->hsa().device_counters()[1].compute - before;
    };
    remote = run_on1();
    const std::uint64_t moved =
        rt.migrate_to_device(mem::AddrRange{buf, bytes}, 1);
    EXPECT_EQ(moved, 4u);
    after_migrate = run_on1();
  });
  // Before: full remote penalty. After: the data is local to device 1.
  const double penalty = stack->machine().costs().remote_memory_penalty;
  EXPECT_NEAR(remote / after_migrate, penalty, 0.01);
  EXPECT_EQ(stack->hsa().device_counters()[1].migrated_pages, 4u);
}

TEST(MultiDevice, AffinityMattersForThroughput) {
  // Eight threads on a two-socket card: offloading with thread affinity
  // (half the threads to each socket, data homed locally) beats pinning
  // every thread to socket 0 — the §III-A programming guidance.
  auto run_card = [](bool good_affinity) {
    auto stack = make_card(RuntimeConfig::ImplicitZeroCopy, 2);
    auto& sched = stack->sched();
    for (int t = 0; t < 8; ++t) {
      const int device = good_affinity ? (t / 4) : 0;
      sched.spawn("omp-" + std::to_string(t), [&stack, t, device] {
        OffloadRuntime& rt = stack->omp();
        const mem::VirtAddr buf = rt.host_alloc(
            8 << 20, "buf-" + std::to_string(t), /*home=*/device);
        rt.host_first_touch(mem::AddrRange{buf, 8 << 20});
        for (int i = 0; i < 50; ++i) {
          rt.target(TargetRegion{
              .name = "work",
              .maps = {MapEntry::tofrom(buf, 8 << 20)},
              .compute = 200_us,
              .body = {},
              .device = device,
          });
        }
        rt.host_free(buf);
      });
    }
    sched.run();
    return stack->sched().horizon().since_start();
  };
  EXPECT_LT(run_card(true), run_card(false));
}

}  // namespace
}  // namespace zc::omp

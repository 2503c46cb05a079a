#include "zc/hsa/runtime.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstring>
#include <span>
#include <vector>

namespace zc::hsa {
namespace {

using namespace zc::sim::literals;
using sim::Duration;
using sim::TimePoint;
using trace::HsaCall;

class HsaRuntimeTest : public ::testing::Test {
 protected:
  HsaRuntimeTest() : machine_{apu::Machine::mi300a()}, mem_{machine_}, rt_{machine_, mem_} {
    rt_.set_keep_records(true);
  }

  /// Run `body` on a single virtual host thread.
  void run(std::function<void()> body) {
    machine_.sched().run_single(std::move(body));
  }

  apu::Machine machine_;
  mem::MemorySystem mem_;
  Runtime rt_;
};

TEST_F(HsaRuntimeTest, SignalCreateIsCountedAndCheap) {
  run([&] {
    (void)rt_.signal_create();
    (void)rt_.signal_create();
  });
  EXPECT_EQ(rt_.stats().count(HsaCall::SignalCreate), 2u);
  EXPECT_LT(rt_.stats().total_latency(HsaCall::SignalCreate), 1_us);
}

TEST_F(HsaRuntimeTest, PoolAllocateCostScalesWithPages) {
  Duration small;
  Duration large;
  run([&] {
    const TimePoint t0 = machine_.sched().now();
    (void)rt_.memory_pool_allocate(machine_.page_bytes(), "small");
    small = machine_.sched().now() - t0;
    const TimePoint t1 = machine_.sched().now();
    (void)rt_.memory_pool_allocate(machine_.page_bytes() * 1024, "large");
    large = machine_.sched().now() - t1;
  });
  EXPECT_GT(large, small);
  // 1024 pages at 0.35us/page dominates the 25us base.
  EXPECT_GT(large, 300_us);
  EXPECT_EQ(rt_.stats().count(HsaCall::MemoryPoolAllocate), 2u);
  EXPECT_EQ(rt_.ledger().mm_alloc(), rt_.stats().total_latency(HsaCall::MemoryPoolAllocate));
}

TEST_F(HsaRuntimeTest, PoolMemoryNeedsNoKernelFaults) {
  run([&] {
    const mem::VirtAddr dev =
        rt_.memory_pool_allocate(4 * machine_.page_bytes(), "dev");
    KernelLaunch k{.name = "touch",
                   .buffers = {{dev, 4 * machine_.page_bytes(), Access::ReadWrite}},
                   .compute = 10_us,
                   .body = {}};
    rt_.run_kernel(k);
  });
  EXPECT_EQ(rt_.device_counters()[0].page_faults, 0u);
  EXPECT_EQ(rt_.ledger().mi(), Duration::zero());
}

TEST_F(HsaRuntimeTest, OsMemoryFaultsOnceUnderXnack) {
  run([&] {
    mem::Allocation& a = mem_.os_alloc(8 * machine_.page_bytes(), "buf");
    KernelLaunch k{.name = "init",
                   .buffers = {{a.base(), a.bytes(), Access::Write}},
                   .compute = 10_us,
                   .body = {}};
    rt_.run_kernel(k);
    rt_.run_kernel(k);  // second launch: pages already resident
  });
  const auto& recs = rt_.kernel_records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].page_faults, 8u);
  EXPECT_EQ(recs[1].page_faults, 0u);
  EXPECT_GT(recs[0].fault_stall, recs[1].fault_stall);
  EXPECT_GT(recs[0].duration(), recs[1].duration());
  EXPECT_GT(rt_.ledger().mi(), Duration::zero());
}

TEST_F(HsaRuntimeTest, FaultStallMatchesPerPageServiceCost) {
  run([&] {
    // Two pages CPU-resident, two untouched: the stall must mix the two
    // service costs.
    mem::Allocation& a = mem_.os_alloc(4 * machine_.page_bytes(), "buf");
    (void)mem_.host_touch(mem::AddrRange{a.base(), 2 * machine_.page_bytes()});
    KernelLaunch k{.name = "t",
                   .buffers = {{a.base(), a.bytes(), Access::Read}},
                   .compute = Duration::zero(),
                   .body = {}};
    rt_.run_kernel(k);
  });
  const Duration expect = machine_.fault_service_duration(true) * 2.0 +
                          machine_.fault_service_duration(false) * 2.0;
  EXPECT_EQ(rt_.kernel_records()[0].fault_stall, expect);
}

TEST_F(HsaRuntimeTest, XnackDisabledThrowsOnUnmappedTouch) {
  apu::RunEnvironment env;
  env.hsa_xnack = false;
  apu::Machine machine = apu::Machine::mi300a(env);
  mem::MemorySystem mem{machine};
  Runtime rt{machine, mem};
  EXPECT_THROW(machine.sched().run_single([&] {
    mem::Allocation& a = mem.os_alloc(machine.page_bytes(), "buf");
    KernelLaunch k{.name = "bad",
                   .buffers = {{a.base(), a.bytes(), Access::Read}},
                   .compute = 1_us,
                   .body = {}};
    rt.run_kernel(k);
  }),
               GpuMemoryFault);
}

TEST_F(HsaRuntimeTest, XnackDisabledOkAfterPrefault) {
  apu::RunEnvironment env;
  env.hsa_xnack = false;
  apu::Machine machine = apu::Machine::mi300a(env);
  mem::MemorySystem mem{machine};
  Runtime rt{machine, mem};
  machine.sched().run_single([&] {
    mem::Allocation& a = mem.os_alloc(machine.page_bytes(), "buf");
    (void)rt.svm_attributes_set_prefault(a.range());
    KernelLaunch k{.name = "ok",
                   .buffers = {{a.base(), a.bytes(), Access::Read}},
                   .compute = 1_us,
                   .body = {}};
    rt.run_kernel(k);
  });
  EXPECT_EQ(rt.device_counters()[0].page_faults, 0u);
}

/// A buffer that starts two pages into a prefaulted 4-page allocation and
/// ends two pages into the next one: its guard page and the next
/// allocation's head are still unmapped, whatever the first allocation's
/// state.
mem::AddrRange straddle_prefaulted(Runtime& rt, mem::MemorySystem& mem) {
  const std::uint64_t page = mem.page_bytes();
  mem::Allocation& a = mem.os_alloc(4 * page, "a");
  mem::Allocation& b = mem.os_alloc(4 * page, "b");
  (void)rt.svm_attributes_set_prefault(a.range());
  const mem::VirtAddr lo = a.base() + 2 * page;
  return mem::AddrRange{lo, (b.base() + 2 * page) - lo};
}

TEST_F(HsaRuntimeTest, BufferPastAPrefaultedAllocationFaultsEveryAbsentPage) {
  // XNACK replay does not forgive a buffer that runs out of its
  // allocation: the dispatch raises a memory fault and faults nothing in.
  std::uint64_t absent = 0;
  run([&] {
    const mem::AddrRange r = straddle_prefaulted(rt_, mem_);
    absent = mem_.gpu_absent_pages(r, 0);
    KernelLaunch k{.name = "straddle",
                   .buffers = {{r.base, r.bytes, Access::Read}},
                   .compute = 1_us,
                   .body = {}};
    EXPECT_THROW(rt_.run_kernel(k), GpuMemoryFault);
    EXPECT_EQ(mem_.gpu_absent_pages(r, 0), absent);
  });
  EXPECT_EQ(absent, 3u);
  EXPECT_TRUE(rt_.kernel_records().empty());
  EXPECT_EQ(rt_.device_counters()[0].page_faults, 0u);
}

TEST_F(HsaRuntimeTest, KernelBufferPastItsAllocationFaultsInNoPage) {
  // A four-page buffer over a one-page allocation must fault nothing in,
  // guard page included, even under XNACK: a page faulted in past the
  // allocation would be taken over, already resident, by the next
  // allocation while socket 0 kept its charge, and the books would drift.
  apu::Machine::Config config;
  config.topology.sockets = 2;
  apu::Machine machine{std::move(config)};
  mem::MemorySystem mem{machine};
  Runtime rt{machine, mem};
  const std::uint64_t page = machine.page_bytes();
  machine.sched().run_single([&] {
    mem::Allocation& a = mem.os_alloc(page, "a");
    KernelLaunch k{.name = "overrun",
                   .buffers = {{a.base(), 4 * page, Access::ReadWrite}},
                   .compute = 1_us,
                   .body = {}};
    EXPECT_THROW(rt.run_kernel(k), GpuMemoryFault);
    mem::Allocation& b = mem.os_alloc(page, "b", /*home_socket=*/1);
    EXPECT_EQ(mem.cpu_resident_pages(b.range()), 0u);
    EXPECT_NO_THROW(mem.check_accounting());
  });
}

TEST_F(HsaRuntimeTest, XnackDisabledThrowsPastAPrefaultedAllocation) {
  apu::RunEnvironment env;
  env.hsa_xnack = false;
  apu::Machine machine = apu::Machine::mi300a(env);
  mem::MemorySystem mem{machine};
  Runtime rt{machine, mem};
  machine.sched().run_single([&] {
    const mem::AddrRange r = straddle_prefaulted(rt, mem);
    KernelLaunch k{.name = "straddle",
                   .buffers = {{r.base, r.bytes, Access::Read}},
                   .compute = 1_us,
                   .body = {}};
    EXPECT_THROW(rt.run_kernel(k), GpuMemoryFault);
  });
}

TEST_F(HsaRuntimeTest, PrefaultFirstExpensiveThenCheap) {
  Duration first;
  Duration second;
  run([&] {
    mem::Allocation& a = mem_.os_alloc(64 * machine_.page_bytes(), "buf");
    const TimePoint t0 = machine_.sched().now();
    const auto out1 = rt_.svm_attributes_set_prefault(a.range());
    first = machine_.sched().now() - t0;
    const TimePoint t1 = machine_.sched().now();
    const auto out2 = rt_.svm_attributes_set_prefault(a.range());
    second = machine_.sched().now() - t1;
    EXPECT_EQ(out1.inserted, 64u);
    EXPECT_EQ(out2.inserted, 0u);
    EXPECT_EQ(out2.present, 64u);
  });
  EXPECT_GT(first, second);
  // Second call is still a syscall: at least the base cost.
  EXPECT_GE(second, machine_.costs().prefault_syscall_base);
  EXPECT_EQ(rt_.stats().count(HsaCall::SvmAttributesSet), 2u);
  EXPECT_EQ(rt_.ledger().prefault_calls(), 2u);
  EXPECT_GT(rt_.ledger().mm_prefault(), Duration::zero());
}

TEST_F(HsaRuntimeTest, AsyncCopyMovesBytesFunctionally) {
  run([&] {
    mem::Allocation& src = mem_.os_alloc(256, "src");
    mem::Allocation& dst = mem_.os_alloc(256, "dst");
    auto* s = mem_.space().translate_as<std::uint8_t>(src.base());
    for (int i = 0; i < 256; ++i) {
      s[i] = static_cast<std::uint8_t>(i);
    }
    Signal sig = rt_.memory_async_copy(dst.base(), src.base(), 256);
    rt_.signal_wait_scacquire(sig);
    auto* d = mem_.space().translate_as<std::uint8_t>(dst.base());
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(d[i], static_cast<std::uint8_t>(i));
    }
  });
  EXPECT_EQ(rt_.stats().count(HsaCall::MemoryAsyncCopy), 1u);
  EXPECT_GT(rt_.ledger().mm_copy(), Duration::zero());
}

TEST_F(HsaRuntimeTest, CopyHandlerRecordedOnlyWhenRequested) {
  run([&] {
    mem::Allocation& a = mem_.os_alloc(64, "a");
    mem::Allocation& b = mem_.os_alloc(64, "b");
    rt_.signal_wait_scacquire(rt_.memory_async_copy(b.base(), a.base(), 64, true));
    rt_.signal_wait_scacquire(rt_.memory_async_copy(b.base(), a.base(), 64, false));
  });
  EXPECT_EQ(rt_.stats().count(HsaCall::SignalAsyncHandler), 1u);
}

TEST_F(HsaRuntimeTest, LargeCopyDurationTracksBandwidth) {
  const std::uint64_t bytes = 1ULL << 30;
  TimePoint done;
  run([&] {
    mem::Allocation& src = mem_.os_alloc(bytes, "src");
    mem::Allocation& dst = mem_.os_alloc(bytes, "dst");
    Signal sig = rt_.memory_async_copy(dst.base(), src.base(), bytes);
    rt_.signal_wait_scacquire(sig);
    done = machine_.sched().now();
  });
  const double expect_s =
      static_cast<double>(bytes) / machine_.costs().copy_bandwidth_bytes_per_s;
  EXPECT_NEAR(done.since_start().sec(), expect_s, expect_s * 0.05);
}

TEST_F(HsaRuntimeTest, ZeroByteCopyRejected) {
  EXPECT_THROW(run([&] {
                 mem::Allocation& a = mem_.os_alloc(64, "a");
                 (void)rt_.memory_async_copy(a.base(), a.base(), 0);
               }),
               std::invalid_argument);
}

TEST_F(HsaRuntimeTest, KernelBodyExecutes) {
  double result = 0.0;
  run([&] {
    mem::Allocation& a = mem_.os_alloc(sizeof(double) * 8, "v");
    const mem::VirtAddr va = a.base();
    KernelLaunch init{.name = "init",
                      .buffers = {{va, a.bytes(), Access::Write}},
                      .compute = 1_us,
                      .body = [va](KernelContext& ctx) {
                        double* v = ctx.ptr<double>(va);
                        for (int i = 0; i < 8; ++i) {
                          v[i] = i + 1.0;
                        }
                      }};
    rt_.run_kernel(init);
    KernelLaunch sum{.name = "sum",
                     .buffers = {{va, a.bytes(), Access::Read}},
                     .compute = 1_us,
                     .body = [va, &result](KernelContext& ctx) {
                       const double* v = ctx.ptr<double>(va);
                       for (int i = 0; i < 8; ++i) {
                         result += v[i];
                       }
                     }};
    rt_.run_kernel(sum);
  });
  EXPECT_DOUBLE_EQ(result, 36.0);
}

TEST_F(HsaRuntimeTest, WaitLatencyAttributedToSignalWait) {
  run([&] {
    mem::Allocation& a = mem_.os_alloc(machine_.page_bytes(), "a");
    (void)mem_.prefault(a.range());  // avoid fault noise
    KernelLaunch k{.name = "long",
                   .buffers = {{a.base(), a.bytes(), Access::Read}},
                   .compute = 500_us,
                   .body = {}};
    rt_.run_kernel(k);
  });
  // The wait call was blocked roughly for the kernel duration.
  EXPECT_GT(rt_.stats().total_latency(HsaCall::SignalWaitScacquire), 450_us);
  EXPECT_EQ(rt_.stats().count(HsaCall::SignalWaitScacquire), 1u);
}

TEST_F(HsaRuntimeTest, TlbMissesReportedInTrace) {
  run([&] {
    const mem::VirtAddr dev =
        rt_.memory_pool_allocate(8 * machine_.page_bytes(), "dev");
    KernelLaunch k{.name = "scan",
                   .buffers = {{dev, 8 * machine_.page_bytes(), Access::Read}},
                   .compute = 1_us,
                   .body = {}};
    rt_.run_kernel(k);
    rt_.run_kernel(k);
  });
  const auto& recs = rt_.kernel_records();
  EXPECT_EQ(recs[0].tlb_misses, 8u);  // cold TLB
  EXPECT_EQ(recs[1].tlb_misses, 0u);  // warm TLB (fits in capacity)
}

TEST_F(HsaRuntimeTest, CopyOverlapsKernelAcrossThreads) {
  // Thread A runs a long kernel; thread B issues a copy meanwhile. The copy
  // must ride the SDMA engine concurrently with the kernel: B's completion
  // time is far earlier than it would be if serialized after the kernel.
  const std::uint64_t bytes = 64ULL << 20;
  TimePoint kernel_done;
  TimePoint copy_done;
  auto& sched = machine_.sched();
  sched.spawn("A", [&] {
    mem::Allocation& a = mem_.os_alloc(machine_.page_bytes(), "a");
    (void)mem_.prefault(a.range());
    KernelLaunch k{.name = "long",
                   .buffers = {{a.base(), a.bytes(), Access::Read}},
                   .compute = Duration::milliseconds(50),
                   .body = {}};
    rt_.run_kernel(k, 0);
    kernel_done = sched.now();
  });
  sched.spawn("B", [&] {
    mem::Allocation& src = mem_.os_alloc(bytes, "src");
    mem::Allocation& dst = mem_.os_alloc(bytes, "dst");
    Signal sig = rt_.memory_async_copy(dst.base(), src.base(), bytes);
    rt_.signal_wait_scacquire(sig);
    copy_done = sched.now();
  });
  sched.run();
  EXPECT_LT(copy_done, kernel_done);  // overlapped, not serialized
}

TEST_F(HsaRuntimeTest, KernelsQueueWhenSlotsExhausted) {
  const int slots = machine_.topology().gpu_kernel_slots;
  const int kernels = slots * 2;
  std::vector<Signal> sigs;
  run([&] {
    mem::Allocation& a = mem_.os_alloc(machine_.page_bytes(), "a");
    (void)mem_.prefault(a.range());
    for (int i = 0; i < kernels; ++i) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "k";
      name += std::to_string(i);
      KernelLaunch k{.name = std::move(name),
                     .buffers = {{a.base(), a.bytes(), Access::Read}},
                     .compute = Duration::milliseconds(10),
                     .body = {}};
      sigs.push_back(rt_.dispatch_kernel(k));
    }
    for (Signal& s : sigs) {
      rt_.signal_wait_scacquire(s);
    }
  });
  // Two waves of `slots` kernels each: makespan >= 2 * 10ms.
  EXPECT_GE(machine_.sched().horizon().since_start(),
            Duration::milliseconds(20));
}

TEST_F(HsaRuntimeTest, DriverContentionDelaysConcurrentPrefaults) {
  // Two threads prefault large disjoint ranges at the same time: the
  // single driver lock serializes them, so the second finishes after
  // roughly the sum of both durations.
  TimePoint done_a;
  TimePoint done_b;
  auto& sched = machine_.sched();
  const std::uint64_t bytes = 512 * machine_.page_bytes();
  sched.spawn("A", [&] {
    mem::Allocation& a = mem_.os_alloc(bytes, "a");
    (void)rt_.svm_attributes_set_prefault(a.range());
    done_a = sched.now();
  });
  sched.spawn("B", [&] {
    mem::Allocation& b = mem_.os_alloc(bytes, "b");
    (void)rt_.svm_attributes_set_prefault(b.range());
    done_b = sched.now();
  });
  sched.run();
  const Duration one = machine_.costs().prefault_syscall_base +
                       machine_.costs().prefault_insert_per_page * 512.0;
  const TimePoint later = max(done_a, done_b);
  EXPECT_GE(later.since_start(), one * 1.9);
}

TEST_F(HsaRuntimeTest, PoolFreeOfUnknownBaseThrows) {
  EXPECT_THROW(run([&] { rt_.memory_pool_free(mem::VirtAddr{0xdead0000}); }),
               std::invalid_argument);
}

TEST_F(HsaRuntimeTest, PrefaultOutsideAnyAllocationThrows) {
  EXPECT_THROW(
      run([&] {
        (void)rt_.svm_attributes_set_prefault(
            mem::AddrRange{mem::VirtAddr{0xdead0000}, 4096});
      }),
      std::invalid_argument);
}

TEST_F(HsaRuntimeTest, PrefaultStraddlingAllocationEndThrows) {
  EXPECT_THROW(run([&] {
                 mem::Allocation& a = mem_.os_alloc(4096, "small");
                 (void)rt_.svm_attributes_set_prefault(
                     mem::AddrRange{a.base(), 2 * machine_.page_bytes()});
               }),
               std::invalid_argument);
}

TEST_F(HsaRuntimeTest, CopyBetweenPoolAndHostMemoryWorksBothWays) {
  run([&] {
    mem::Allocation& host = mem_.os_alloc(256, "h");
    const mem::VirtAddr dev = rt_.memory_pool_allocate(256, "d");
    auto* h = mem_.space().translate_as<std::uint8_t>(host.base());
    for (int i = 0; i < 256; ++i) {
      h[i] = static_cast<std::uint8_t>(255 - i);
    }
    rt_.signal_wait_scacquire(rt_.memory_async_copy(dev, host.base(), 256));
    std::memset(h, 0, 256);
    rt_.signal_wait_scacquire(rt_.memory_async_copy(host.base(), dev, 256));
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(h[i], static_cast<std::uint8_t>(255 - i));
    }
  });
}

/// All bytes of `a` as the host sees them. Marks the whole allocation
/// written, so take it after every `written()` check.
std::vector<std::uint8_t> contents(mem::Allocation& a) {
  const std::span<std::byte> d = a.data();
  std::vector<std::uint8_t> out(d.size());
  std::memcpy(out.data(), d.data(), d.size());
  return out;
}

/// Writes `value` into the `n` bytes at `a` through a counted translate.
void fill(mem::AddressSpace& space, mem::VirtAddr a, std::uint64_t n,
          std::uint8_t value) {
  std::memset(space.translate(a, n), value, n);
}

TEST_F(HsaRuntimeTest, CopyFromUnwrittenSourceClearsOnlyWrittenDestination) {
  run([&] {
    mem::Allocation& src = mem_.os_alloc(256, "src");
    mem::Allocation& dst = mem_.os_alloc(256, "dst");
    fill(mem_.space(), dst.base(), 16, 0xab);
    fill(mem_.space(), dst.base() + 200, 16, 0xcd);
    rt_.signal_wait_scacquire(
        rt_.memory_async_copy(dst.base() + 8, src.base(), 100));
    EXPECT_TRUE(src.written().empty());
    EXPECT_EQ(dst.written(),
              (std::vector<mem::Extent>{{0, 16}, {200, 216}}));
    std::vector<std::uint8_t> expect(256, 0);
    std::memset(expect.data(), 0xab, 8);
    std::memset(expect.data() + 200, 0xcd, 16);
    EXPECT_EQ(contents(dst), expect);
  });
}

TEST_F(HsaRuntimeTest, PartialCopyAtOffsetsMatchesMemmove) {
  run([&] {
    mem::Allocation& src = mem_.os_alloc(256, "src");
    mem::Allocation& dst = mem_.os_alloc(256, "dst");
    auto* s = reinterpret_cast<std::uint8_t*>(
        mem_.space().translate(src.base() + 64, 64));
    for (int i = 0; i < 64; ++i) {
      s[i] = static_cast<std::uint8_t>(i + 1);
    }
    fill(mem_.space(), src.base(), 8, 0x11);
    fill(mem_.space(), dst.base() + 100, 20, 0xee);
    std::vector<std::uint8_t> expect(256, 0);
    std::memset(expect.data() + 100, 0xee, 20);

    // dst[32, 112) <- src[60, 140): four zero bytes, the 64 written ones,
    // twelve zero bytes that clear part of dst's own extent.
    rt_.signal_wait_scacquire(
        rt_.memory_async_copy(dst.base() + 32, src.base() + 60, 80));
    EXPECT_EQ(dst.written(), (std::vector<mem::Extent>{{36, 120}}));
    std::vector<std::uint8_t> model = contents(src);
    std::memmove(expect.data() + 32, model.data() + 60, 80);
    EXPECT_EQ(contents(dst), expect);
  });
}

TEST_F(HsaRuntimeTest, OverlappingCopyWithinOneAllocationMatchesMemmove) {
  run([&] {
    mem::Allocation& buf = mem_.os_alloc(256, "buf");
    auto* b = reinterpret_cast<std::uint8_t*>(
        mem_.space().translate(buf.base(), 128));
    for (int i = 0; i < 128; ++i) {
      b[i] = static_cast<std::uint8_t>(i + 1);
    }
    fill(mem_.space(), buf.base() + 192, 8, 0x5a);
    std::vector<std::uint8_t> expect(256, 0);
    std::memcpy(expect.data(), b, 128);
    std::memset(expect.data() + 192, 0x5a, 8);

    // Forward overlap, then backward overlap.
    rt_.signal_wait_scacquire(
        rt_.memory_async_copy(buf.base() + 32, buf.base(), 160));
    std::memmove(expect.data() + 32, expect.data(), 160);
    rt_.signal_wait_scacquire(
        rt_.memory_async_copy(buf.base(), buf.base() + 16, 200));
    std::memmove(expect.data(), expect.data() + 16, 200);
    EXPECT_EQ(contents(buf), expect);
  });
}

TEST(HsaCopyFaults, InjectedCopyFaultsDeliverNothing) {
  for (const char* faults : {"sdma@call=1", "sdma_stall@call=1"}) {
    SCOPED_TRACE(faults);
    apu::Machine::Config config;
    config.env.ompx_apu_faults = faults;
    config.env.watchdog = apu::parse_watchdog("100us");
    apu::Machine machine{std::move(config)};
    mem::MemorySystem mem{machine};
    Runtime rt{machine, mem};
    machine.sched().run_single([&] {
      mem::Allocation& src = mem.os_alloc(256, "src");
      mem::Allocation& dst = mem.os_alloc(256, "dst");
      fill(mem.space(), src.base() + 8, 16, 0x42);
      fill(mem.space(), dst.base(), 32, 0x77);
      Signal sig = rt.memory_async_copy(dst.base(), src.base(), 256);
      rt.signal_wait_scacquire(sig);
      EXPECT_TRUE(sig.errored() || sig.aborted());
      EXPECT_EQ(dst.written(), (std::vector<mem::Extent>{{0, 32}}));
      std::vector<std::uint8_t> expect(256, 0);
      std::memset(expect.data(), 0x77, 32);
      EXPECT_EQ(contents(dst), expect);
      // The resubmission delivers the source exactly.
      Signal again = rt.memory_async_copy(dst.base(), src.base(), 256);
      rt.signal_wait_scacquire(again);
      EXPECT_FALSE(again.errored() || again.aborted());
      EXPECT_EQ(contents(dst), contents(src));
    });
  }
}

TEST_F(HsaRuntimeTest, CountedKernelPointerPastTheAllocationThrows) {
  run([&] {
    mem::Allocation& a = mem_.os_alloc(8 * sizeof(double), "v");
    KernelContext ctx{mem_.space()};
    EXPECT_NO_THROW((void)ctx.ptr<double>(a.base(), 8));
    EXPECT_THROW((void)ctx.ptr<double>(a.base(), 9), std::out_of_range);
    EXPECT_THROW((void)ctx.ptr<double>(a.base() + sizeof(double), 8),
                 std::out_of_range);
  });
}

/// Peak resident set of this process so far, in KB (Linux `ru_maxrss`).
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST_F(HsaRuntimeTest, GigabyteCopiesOfOneWrittenDoubleStayOutOfRss) {
  const std::uint64_t bytes = 1ULL << 30;
  const long before = peak_rss_kb();
  run([&] {
    mem::Allocation& host = mem_.os_alloc(bytes, "host");
    const mem::VirtAddr dev = rt_.memory_pool_allocate(bytes, "dev");
    *mem_.space().translate_as<double>(host.base() + bytes / 2, 1) = 3.0;
    for (int i = 0; i < 20; ++i) {
      rt_.signal_wait_scacquire(
          rt_.memory_async_copy(dev, host.base(), bytes));
      rt_.signal_wait_scacquire(
          rt_.memory_async_copy(host.base(), dev, bytes));
    }
    EXPECT_EQ(*mem_.space().translate_as<double>(dev + bytes / 2, 1), 3.0);
    EXPECT_EQ(host.written(),
              (std::vector<mem::Extent>{{bytes / 2, bytes / 2 + 8}}));
  });
  EXPECT_LT(peak_rss_kb() - before, 64L * 1024);
}

TEST_F(HsaRuntimeTest, JitteredRunsDifferButStayDeterministicPerSeed) {
  auto wall = [](std::uint64_t seed) {
    apu::Machine machine =
        apu::Machine::mi300a({}, {.sigma = 0.05}, seed);
    mem::MemorySystem mem{machine};
    Runtime rt{machine, mem};
    machine.sched().run_single([&] {
      mem::Allocation& a = mem.os_alloc(machine.page_bytes(), "a");
      (void)mem.prefault(a.range());
      for (int i = 0; i < 32; ++i) {
        KernelLaunch k{.name = "k",
                       .buffers = {{a.base(), a.bytes(), Access::Read}},
                       .compute = Duration::from_us(20),
                       .body = {}};
        rt.run_kernel(k);
      }
    });
    return machine.sched().horizon();
  };
  EXPECT_EQ(wall(3), wall(3));
  EXPECT_NE(wall(3), wall(4));
}

TEST_F(HsaRuntimeTest, KernelBodyExceptionPropagates) {
  EXPECT_THROW(run([&] {
                 mem::Allocation& a = mem_.os_alloc(64, "a");
                 KernelLaunch k{
                     .name = "boom",
                     .buffers = {{a.base(), a.bytes(), Access::Read}},
                     .compute = 1_us,
                     .body = [](KernelContext&) {
                       throw std::runtime_error("kernel assertion");
                     }};
                 rt_.run_kernel(k);
               }),
               std::runtime_error);
}

}  // namespace
}  // namespace zc::hsa

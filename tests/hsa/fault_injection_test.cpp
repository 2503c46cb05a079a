#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "zc/hsa/runtime.hpp"

namespace zc::hsa {
namespace {

using namespace zc::sim::literals;
using sim::Duration;
using trace::FaultEvent;
using trace::HsaCall;

/// Stack with a fault schedule (and optionally a tiny HBM) wired in.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void make(const std::string& faults,
            std::uint64_t hbm_bytes = 128ULL << 30) {
    apu::Machine::Config config;
    config.env.ompx_apu_faults = faults;
    config.topology.hbm_bytes = hbm_bytes;
    machine_ = std::make_unique<apu::Machine>(std::move(config));
    mem_ = std::make_unique<mem::MemorySystem>(*machine_);
    rt_ = std::make_unique<Runtime>(*machine_, *mem_);
  }

  void run(std::function<void()> body) {
    machine_->sched().run_single(std::move(body));
  }

  std::unique_ptr<apu::Machine> machine_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<Runtime> rt_;
};

TEST_F(FaultInjectionTest, InjectedOomFailsExactlyTheScheduledCall) {
  make("oom@call=1");
  run([&] {
    const PoolAllocResult failed =
        rt_->try_memory_pool_allocate(machine_->page_bytes(), "a");
    EXPECT_EQ(failed.status, Status::OutOfMemory);
    EXPECT_FALSE(failed.ok());
    // The next call is outside the schedule and must succeed.
    const PoolAllocResult ok =
        rt_->try_memory_pool_allocate(machine_->page_bytes(), "b");
    EXPECT_TRUE(ok.ok());
  });
  // The failed driver round trip is still a recorded, costed call.
  EXPECT_EQ(rt_->stats().count(HsaCall::MemoryPoolAllocate), 2u);
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::Oom), 1u);
  EXPECT_FALSE(rt_->fault_trace().any(FaultEvent::HbmExhausted));
  const trace::FaultRecord& r = rt_->fault_trace().records()[0];
  EXPECT_EQ(r.bytes, machine_->page_bytes());
}

TEST_F(FaultInjectionTest, ThrowingWrapperRaisesHsaErrorOnInjectedOom) {
  make("oom@call=1");
  EXPECT_THROW(
      run([&] { (void)rt_->memory_pool_allocate(machine_->page_bytes(), "a"); }),
      HsaError);
}

TEST_F(FaultInjectionTest, OrganicCapacityOomAndRecoveryViaFree) {
  const std::uint64_t page = 2ULL << 20;
  make("", /*hbm_bytes=*/32 * page);
  run([&] {
    EXPECT_EQ(mem_->hbm_capacity(), 32 * page);
    // Over capacity: fails, charges nothing.
    EXPECT_FALSE(rt_->try_memory_pool_allocate(48 * page, "big").ok());
    EXPECT_EQ(mem_->hbm_used(0), 0u);
    // Half of it fits.
    const PoolAllocResult a = rt_->try_memory_pool_allocate(16 * page, "a");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(mem_->hbm_used(0), 16 * page);
    // Another 24 pages no longer fit...
    EXPECT_FALSE(rt_->try_memory_pool_allocate(24 * page, "b").ok());
    // ...until the first allocation is freed.
    rt_->memory_pool_free(a.addr);
    EXPECT_EQ(mem_->hbm_used(0), 0u);
    EXPECT_TRUE(rt_->try_memory_pool_allocate(24 * page, "b2").ok());
  });
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::HbmExhausted), 2u);
  EXPECT_FALSE(rt_->fault_trace().any(fault::Kind::Oom));
}

TEST_F(FaultInjectionTest, EintrLeavesPageTablesUntouched) {
  make("eintr@call=1");
  run([&] {
    mem::Allocation& a = mem_->os_alloc(4 * machine_->page_bytes(), "buf");
    const mem::AddrRange range{a.base(), a.bytes()};
    const PrefaultResult failed = rt_->try_svm_attributes_set_prefault(range);
    EXPECT_EQ(failed.status, Status::Interrupted);
    // EINTR semantics: no partial page-table mutation.
    EXPECT_EQ(mem_->gpu_absent_pages(range), 4u);
    // The retry succeeds and inserts everything.
    const PrefaultResult ok = rt_->try_svm_attributes_set_prefault(range);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.outcome.inserted, 4u);
    EXPECT_EQ(mem_->gpu_absent_pages(range), 0u);
    EXPECT_EQ(rt_->fault_trace().count(fault::Kind::Eintr), 1u);
    EXPECT_EQ(rt_->fault_trace().records()[0].host_base, a.base().value);
  });
  // Both the failed and successful syscalls are recorded calls.
  EXPECT_EQ(rt_->stats().count(HsaCall::SvmAttributesSet), 2u);
}

TEST_F(FaultInjectionTest, EbusyIsDistinctFromEintr) {
  make("ebusy@call=1");
  run([&] {
    mem::Allocation& a = mem_->os_alloc(machine_->page_bytes(), "buf");
    const PrefaultResult failed =
        rt_->try_svm_attributes_set_prefault({a.base(), a.bytes()});
    EXPECT_EQ(failed.status, Status::Busy);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::Ebusy), 1u);
}

TEST_F(FaultInjectionTest, PrefaultMisuseStillThrowsUnderFaultSchedule) {
  make("eintr@p=1.0");
  EXPECT_THROW(run([&] {
                 (void)rt_->try_svm_attributes_set_prefault(
                     {mem::VirtAddr{0xdead000}, 4096});
               }),
               std::invalid_argument);
}

TEST_F(FaultInjectionTest, SdmaErrorSuppressesTransferUntilResubmission) {
  make("sdma@call=1");
  run([&] {
    mem::Allocation& src = mem_->os_alloc(256, "src");
    mem::Allocation& dst = mem_->os_alloc(256, "dst");
    auto* s = mem_->space().translate_as<std::uint8_t>(src.base());
    auto* d = mem_->space().translate_as<std::uint8_t>(dst.base());
    for (int i = 0; i < 256; ++i) {
      s[i] = static_cast<std::uint8_t>(i);
      d[i] = 0;
    }
    Signal sig = rt_->memory_async_copy(dst.base(), src.base(), 256);
    rt_->signal_wait_scacquire(sig);
    EXPECT_TRUE(sig.errored());
    EXPECT_EQ(d[0], 0);  // no bytes delivered
    EXPECT_EQ(d[255], 0);
    Signal again = rt_->memory_async_copy(dst.base(), src.base(), 256);
    rt_->signal_wait_scacquire(again);
    EXPECT_FALSE(again.errored());
    EXPECT_EQ(d[0], 0);
    EXPECT_EQ(d[1], 1);
    EXPECT_EQ(d[255], 255);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::CopyError), 1u);
}

TEST_F(FaultInjectionTest, ReplayStormInflatesFaultStall) {
  // Two identical machines, one with a storm on the first kernel's replay
  // servicing: the faulting kernel must take measurably longer.
  const auto faulting_kernel_duration = [&](const std::string& spec) {
    make(spec);
    rt_->set_keep_records(true);
    Duration d;
    run([&] {
      mem::Allocation& a = mem_->os_alloc(8 * machine_->page_bytes(), "buf");
      KernelLaunch k{.name = "touch",
                     .buffers = {{a.base(), a.bytes(), Access::Write}},
                     .compute = 10_us,
                     .body = {}};
      rt_->run_kernel(k);
      d = rt_->kernel_records()[0].duration();
    });
    return d;
  };
  const Duration stormy = faulting_kernel_duration("xnack@call=1:x8");
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::ReplayStorm), 1u);
  EXPECT_DOUBLE_EQ(rt_->fault_trace().records()[0].factor, 8.0);
  const Duration calm = faulting_kernel_duration("");
  EXPECT_TRUE(rt_->fault_trace().empty());
  EXPECT_GT(stormy, calm * 4.0);
}

TEST_F(FaultInjectionTest, FaultFreeScheduleRecordsNothing) {
  make("");
  run([&] {
    (void)rt_->memory_pool_allocate(machine_->page_bytes(), "a");
    mem::Allocation& a = mem_->os_alloc(machine_->page_bytes(), "buf");
    (void)rt_->svm_attributes_set_prefault({a.base(), a.bytes()});
  });
  EXPECT_TRUE(rt_->fault_trace().empty());
  EXPECT_FALSE(machine_->faults().enabled());
}

}  // namespace
}  // namespace zc::hsa

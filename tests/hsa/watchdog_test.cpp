// The per-device watchdog: hang injections leave completion signals
// forever unbound, the watchdog fiber detects them past the
// OMPX_APU_WATCHDOG budget, tears the queue down, and completes the signal
// aborted so waiters can replay. Without a watchdog, a hang is a loud
// simulation deadlock naming the stuck signal.
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
using sim::TimePoint;
using trace::FaultEvent;

/// Stack with a fault schedule and a watchdog budget wired in.
class WatchdogTest : public ::testing::Test {
 protected:
  void make(const std::string& faults, const std::string& watchdog) {
    apu::Machine::Config config;
    config.env.ompx_apu_faults = faults;
    if (!watchdog.empty()) {
      config.env.watchdog = apu::parse_watchdog(watchdog);
    }
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

TEST_F(WatchdogTest, KernelHangIsAbortedAtTheBudget) {
  make("kernel_hang@call=1", "200us");
  run([&] {
    mem::Allocation& a = mem_->os_alloc(machine_->page_bytes(), "buf");
    KernelLaunch k{.name = "vmc",
                   .buffers = {{a.base(), a.bytes(), Access::Write}},
                   .compute = 10_us,
                   .body = {}};
    const TimePoint submitted = machine_->sched().now();
    Signal sig = rt_->dispatch_kernel(k);
    EXPECT_FALSE(sig.is_complete());
    rt_->signal_wait_scacquire(sig);
    EXPECT_TRUE(sig.aborted());
    EXPECT_FALSE(sig.errored());
    // The abort cannot land before the deadline; teardown+rebuild are
    // charged on the device's driver timeline on top of it.
    EXPECT_GE(machine_->sched().now(), submitted + 200_us);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::KernelHang), 1u);
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::WatchdogTrip), 1u);
}

TEST_F(WatchdogTest, SdmaStallSuppressesBytesUntilResubmission) {
  make("sdma_stall@call=1", "100us");
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
    EXPECT_TRUE(sig.aborted());
    EXPECT_EQ(d[255], 0);  // the stalled copy delivered nothing
    Signal again = rt_->memory_async_copy(dst.base(), src.base(), 256);
    rt_->signal_wait_scacquire(again);
    EXPECT_FALSE(again.aborted());
    EXPECT_EQ(d[1], 1);
    EXPECT_EQ(d[255], 255);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::SdmaStall), 1u);
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::WatchdogTrip), 1u);
}

TEST_F(WatchdogTest, PrefaultHangSurfacesAsTimedOut) {
  make("prefault_hang@call=1", "150us");
  run([&] {
    mem::Allocation& a = mem_->os_alloc(4 * machine_->page_bytes(), "buf");
    const mem::AddrRange range{a.base(), a.bytes()};
    const PrefaultResult hung = rt_->try_svm_attributes_set_prefault(range);
    EXPECT_EQ(hung.status, Status::TimedOut);
    // EINTR-like semantics: the aborted syscall mutated no page tables.
    EXPECT_EQ(mem_->gpu_absent_pages(range), 4u);
    const PrefaultResult ok = rt_->try_svm_attributes_set_prefault(range);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.outcome.inserted, 4u);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::PrefaultHang), 1u);
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::WatchdogTrip), 1u);
}

TEST_F(WatchdogTest, XnackLivelockIsAbortedLikeAHungKernel) {
  make("xnack_livelock@call=1", "300us");
  run([&] {
    mem::Allocation& a = mem_->os_alloc(2 * machine_->page_bytes(), "buf");
    KernelLaunch k{.name = "touch",
                   .buffers = {{a.base(), a.bytes(), Access::Write}},
                   .compute = 5_us,
                   .body = {}};
    Signal sig = rt_->dispatch_kernel(k);
    rt_->signal_wait_scacquire(sig);
    EXPECT_TRUE(sig.aborted());
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::XnackLivelock), 1u);
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::WatchdogTrip), 1u);
}

TEST_F(WatchdogTest, TripListenerSeesDeviceAndTime) {
  make("kernel_hang@call=1", "50us");
  int devices_seen = 0;
  TimePoint tripped_at;
  rt_->watchdog().set_trip_listener([&](int device, TimePoint now) {
    ++devices_seen;
    EXPECT_EQ(device, 0);
    tripped_at = now;
  });
  run([&] {
    mem::Allocation& a = mem_->os_alloc(machine_->page_bytes(), "buf");
    KernelLaunch k{.name = "vmc",
                   .buffers = {{a.base(), a.bytes(), Access::Read}},
                   .compute = 1_us,
                   .body = {}};
    Signal sig = rt_->dispatch_kernel(k);
    rt_->signal_wait_scacquire(sig);
  });
  EXPECT_EQ(devices_seen, 1);
  EXPECT_GE(tripped_at, TimePoint::zero() + 50_us);
}

TEST_F(WatchdogTest, NoWatchdogHangDeadlocksNamingTheStuckSignal) {
  make("kernel_hang@call=1", "");
  try {
    run([&] {
      mem::Allocation& a = mem_->os_alloc(machine_->page_bytes(), "buf");
      KernelLaunch k{.name = "vmc",
                     .buffers = {{a.base(), a.bytes(), Access::Read}},
                     .compute = 1_us,
                     .body = {}};
      Signal sig = rt_->dispatch_kernel(k);
      rt_->signal_wait_scacquire(sig);
    });
    FAIL() << "expected deadlock";
  } catch (const sim::SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Signal(kernel:vmc)"), std::string::npos) << what;
  }
  // The hang was still injected and recorded; nothing tripped.
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::KernelHang), 1u);
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::WatchdogTrip), 0u);
}

TEST_F(WatchdogTest, FaultFreeRunNeverSpawnsTheWatchdogFiber) {
  // Healthy async work binds its completion time at submit, so nothing
  // registers with the watchdog: a watchdog-enabled fault-free run must
  // finish at exactly the same virtual time as a watchdog-free one.
  const auto horizon = [&](const std::string& watchdog) {
    make("", watchdog);
    run([&] {
      mem::Allocation& src = mem_->os_alloc(4096, "src");
      mem::Allocation& dst = mem_->os_alloc(4096, "dst");
      Signal sig = rt_->memory_async_copy(dst.base(), src.base(), 4096);
      rt_->signal_wait_scacquire(sig);
      mem::Allocation& a = mem_->os_alloc(machine_->page_bytes(), "buf");
      KernelLaunch k{.name = "touch",
                     .buffers = {{a.base(), a.bytes(), Access::Write}},
                     .compute = 10_us,
                     .body = {}};
      rt_->run_kernel(k);
    });
    EXPECT_TRUE(rt_->fault_trace().empty());
    return machine_->sched().horizon();
  };
  const TimePoint with = horizon("100us");
  const TimePoint without = horizon("");
  EXPECT_EQ(with, without);
}

TEST_F(WatchdogTest, TwoConcurrentHangsBothTrip) {
  // Two stalled copies from two host threads: the watchdog fiber must
  // service both deadlines, not exit after the first.
  make("sdma_stall@call=1..2", "80us");
  sim::Scheduler& s = machine_->sched();
  int aborted = 0;
  for (int t = 0; t < 2; ++t) {
    s.spawn("host" + std::to_string(t), [&, t] {
      mem::Allocation& src = mem_->os_alloc(512, "src" + std::to_string(t));
      mem::Allocation& dst = mem_->os_alloc(512, "dst" + std::to_string(t));
      Signal sig = rt_->memory_async_copy(dst.base(), src.base(), 512);
      rt_->signal_wait_scacquire(sig);
      if (sig.aborted()) {
        ++aborted;
      }
    });
  }
  s.run();
  EXPECT_EQ(aborted, 2);
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::WatchdogTrip), 2u);
}

}  // namespace
}  // namespace zc::hsa

// A signal's identity is the address of its shared state, and the race
// detector keys the clock a completion releases by that address. When the
// state dies, the next signal's state may be born at the same address. It
// must start with no clock: otherwise its waiters would be ordered after
// the dead signal's releasers, an edge the program does not have.

#include <gtest/gtest.h>

#include "zc/apu/machine.hpp"
#include "zc/hsa/kernel.hpp"
#include "zc/hsa/runtime.hpp"
#include "zc/mem/memory_system.hpp"
#include "zc/race/detector.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::race {
namespace {

using namespace zc::sim::literals;

TEST(SignalRetire, AReusedSignalAddressOrdersNothing) {
  apu::Machine machine{apu::Machine::mi300a()};
  sim::Scheduler& sched = machine.sched();
  Detector detector{Detector::Mode::Report, machine.page_bytes()};
  detector.attach(sched);
  mem::MemorySystem mem{machine};
  hsa::Runtime rt{machine, mem};

  // Both threads write page 0 with no synchronization between them. Each
  // dispatches one kernel and waits only on its own completion signal.
  // The first thread's signal dies before the second thread dispatches,
  // so the allocator may hand its state's address to the second signal.
  const hsa::KernelLaunch own{.name = "own", .buffers = {}, .compute = 5_us};
  sched.spawn("first", [&] {
    sched.hooks()->on_host_pages(0, 1, /*is_write=*/true, "shared");
    rt.run_kernel(own);
  });
  sched.spawn("second", [&] {
    sched.sleep_for(100_us);
    rt.run_kernel(own);
    sched.hooks()->on_host_pages(0, 1, /*is_write=*/true, "shared");
  });
  sched.run();

  ASSERT_EQ(detector.trace().count(trace::RaceKind::Page), 1u);
  const trace::RaceReport& r = detector.trace().records().front();
  EXPECT_EQ(r.first.actor, "first");
  EXPECT_EQ(r.second.actor, "second");
  EXPECT_EQ(r.first.site, "shared");
  EXPECT_EQ(r.second.site, "shared");
}

}  // namespace
}  // namespace zc::race

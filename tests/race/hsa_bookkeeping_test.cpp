// `hsa::Runtime`'s call statistics, traces and counters, and
// `mem::MemorySystem`'s HBM accounting, are bookkeeping, not
// synchronization: two threads whose only contact is that both made HSA
// calls, allocated from the pool, or first-touched memory stay unordered
// for the race detector. A lock (or a detector edge) around that
// bookkeeping would order every pair of calls and hide any race between
// the threads' own accesses.

#include <gtest/gtest.h>

#include <string>

#include "zc/apu/machine.hpp"
#include "zc/hsa/runtime.hpp"
#include "zc/mem/memory_system.hpp"
#include "zc/race/detector.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::race {
namespace {

using namespace zc::sim::literals;

TEST(HsaBookkeeping, AddsNoHappensBeforeEdge) {
  apu::Machine machine{apu::Machine::mi300a()};
  sim::Scheduler& sched = machine.sched();
  Detector detector{Detector::Mode::Report, machine.page_bytes()};
  detector.attach(sched);
  mem::MemorySystem mem{machine};
  hsa::Runtime rt{machine, mem};

  // Each thread writes page 0 between two HSA calls. The second thread
  // runs after the first in virtual time (sleep_for emits no edge), so
  // the one thing between the two writes is the bookkeeping of the
  // first thread's last call and the second thread's first.
  auto body = [&] {
    (void)rt.signal_create();
    sched.hooks()->on_host_pages(0, 1, /*is_write=*/true, "shared");
    (void)rt.signal_create();
  };
  sched.spawn("first", body);
  sched.spawn("second", [&] {
    sched.sleep_for(10_us);
    body();
  });
  sched.run();

  ASSERT_EQ(detector.trace().size(), 1u);
  const trace::RaceReport& r = detector.trace().records().front();
  EXPECT_EQ(r.first.actor, "first");
  EXPECT_EQ(r.second.actor, "second");
  EXPECT_EQ(r.first.site, "shared");
  EXPECT_EQ(r.second.site, "shared");
}

TEST(HsaBookkeeping, HbmAccountingAddsNoHappensBeforeEdge) {
  apu::Machine machine{apu::Machine::mi300a()};
  sim::Scheduler& sched = machine.sched();
  Detector detector{Detector::Mode::Report, machine.page_bytes()};
  detector.attach(sched);
  mem::MemorySystem mem{machine};
  hsa::Runtime rt{machine, mem};

  // Each pool allocation checks and charges the socket's HBM counter. The
  // one thing between the two threads' writes is that accounting. Slab-sized
  // requests keep each call short, so the first thread's second allocation
  // ends long before the second thread's first begins.
  const std::uint64_t bytes = machine.page_bytes() / 4;
  auto body = [&] {
    (void)rt.memory_pool_allocate(bytes, "before");
    sched.hooks()->on_host_pages(0, 1, /*is_write=*/true, "shared");
    (void)rt.memory_pool_allocate(bytes, "after");
  };
  sched.spawn("first", body);
  sched.spawn("second", [&] {
    sched.sleep_for(100_us);
    body();
  });
  sched.run();

  ASSERT_EQ(detector.trace().size(), 1u);
  const trace::RaceReport& r = detector.trace().records().front();
  EXPECT_EQ(r.kind, trace::RaceKind::Page);
  EXPECT_EQ(r.first.actor, "first");
  EXPECT_EQ(r.second.actor, "second");
}

TEST(HsaBookkeeping, FirstTouchAccountingAddsNoHappensBeforeEdge) {
  apu::Machine machine{apu::Machine::mi300a()};
  sim::Scheduler& sched = machine.sched();
  Detector detector{Detector::Mode::Report, machine.page_bytes()};
  detector.attach(sched);
  mem::MemorySystem mem{machine};

  // One page each: page races are reported per page.
  const mem::AddrRange x = mem.os_alloc(machine.page_bytes(), "X").range();
  const mem::AddrRange y = mem.os_alloc(machine.page_bytes(), "Y").range();
  sched.spawn("a", [&] { (void)mem.host_touch(x); });
  sched.spawn("b", [&] {
    sched.sleep_for(100_us);
    // Materializing Y charges the same HBM counter A's touch of X did;
    // that must not order A's write of X before B's.
    ASSERT_GT(mem.host_touch(y), 0u);
    ASSERT_EQ(mem.host_touch(x), 0u);  // already resident: no accounting
  });
  sched.run();

  ASSERT_EQ(detector.trace().size(), 1u);
  const trace::RaceReport& r = detector.trace().records().front();
  EXPECT_EQ(r.kind, trace::RaceKind::Page);
  EXPECT_EQ(r.first.actor, "a");
  EXPECT_EQ(r.second.actor, "b");
  EXPECT_EQ(r.first.site, "host_touch('X')");
  EXPECT_EQ(r.second.site, "host_touch('X')");
}

}  // namespace
}  // namespace zc::race

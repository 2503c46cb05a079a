// `hsa::Runtime`'s call statistics, traces and counters are bookkeeping,
// not synchronization: two threads whose only contact is that both made
// HSA calls stay unordered for the race detector. A lock around that
// bookkeeping would order every pair of calls and hide any race between
// the threads' own accesses.

#include <gtest/gtest.h>

#include <string>

#include "zc/apu/machine.hpp"
#include "zc/hsa/runtime.hpp"
#include "zc/mem/memory_system.hpp"
#include "zc/race/api.hpp"
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

  // Each thread writes `shared` between two HSA calls. The second thread
  // runs after the first in virtual time (sleep_for emits no edge), so
  // the one thing between the two writes is the bookkeeping of the
  // first thread's last call and the second thread's first.
  int shared = 0;
  auto body = [&] {
    (void)rt.signal_create();
    race::on_write(sched, &shared, sizeof shared, "shared");
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

}  // namespace
}  // namespace zc::race

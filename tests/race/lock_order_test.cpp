// Lock-order-cycle analysis: the detector builds a held->acquired edge
// graph across the whole run and reports a cycle the moment the closing
// edge appears — including on schedules where the ABBA pair never actually
// deadlocks because the two threads held the locks at different times.

#include <gtest/gtest.h>

#include <string>

#include "zc/race/detector.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::race {
namespace {

using sim::Duration;
using sim::Scheduler;

constexpr std::uint64_t kPage = 2ULL << 20;

TEST(LockOrder, AbbaCycleIsReportedOnANonDeadlockingSchedule) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  sim::Mutex a{"lock-a"};
  sim::Mutex b{"lock-b"};
  s.spawn("t0", [&] {
    // Acquires a -> b and releases both long before t1 starts: no
    // deadlock ever manifests on this schedule.
    sim::LockGuard la{a, s};
    sim::LockGuard lb{b, s};
    s.advance(Duration::microseconds(1));
  });
  s.spawn("t1", [&] {
    s.advance(Duration::microseconds(100));
    sim::LockGuard lb{b, s};
    sim::LockGuard la{a, s};
  });
  s.run();
  ASSERT_EQ(d.trace().count(trace::RaceKind::LockOrder), 1u);
  const trace::RaceReport& r = d.trace().records().front();
  EXPECT_NE(r.message.find("potential deadlock"), std::string::npos);
  EXPECT_NE(r.message.find("lock-a"), std::string::npos);
  EXPECT_NE(r.message.find("lock-b"), std::string::npos);
  // Both edges are named: the closing acquisition and the counterexample
  // that ran in the opposite order earlier.
  EXPECT_NE(r.second.site.find("t1"), std::string::npos);
  EXPECT_NE(r.first.site.find("t0"), std::string::npos);
}

TEST(LockOrder, ConsistentNestingIsClean) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  sim::Mutex a{"outer"};
  sim::Mutex b{"inner"};
  for (int t = 0; t < 3; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "t";
    name += std::to_string(t);
    s.spawn(std::move(name), [&] {
      sim::LockGuard la{a, s};
      sim::LockGuard lb{b, s};
    });
  }
  s.run();
  EXPECT_TRUE(d.trace().empty());
}

TEST(LockOrder, ThreeLockRotationFormsOneCycle) {
  // a->b, b->c, c->a: the third thread's nested acquisition closes a
  // three-party cycle, reported once with all participants named.
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  sim::Mutex a{"rot-a"};
  sim::Mutex b{"rot-b"};
  sim::Mutex c{"rot-c"};
  struct Pair {
    sim::Mutex* outer;
    sim::Mutex* inner;
  };
  const Pair pairs[] = {{&a, &b}, {&b, &c}, {&c, &a}};
  int idx = 0;
  for (const Pair& p : pairs) {
    s.spawn("rot" + std::to_string(idx), [&s, p, idx] {
      s.advance(Duration::microseconds(10 * idx));
      sim::LockGuard outer{*p.outer, s};
      sim::LockGuard inner{*p.inner, s};
    });
    ++idx;
  }
  s.run();
  ASSERT_EQ(d.trace().count(trace::RaceKind::LockOrder), 1u);
  const std::string& msg = d.trace().records().front().message;
  EXPECT_NE(msg.find("rot-a"), std::string::npos);
  EXPECT_NE(msg.find("rot-b"), std::string::npos);
  EXPECT_NE(msg.find("rot-c"), std::string::npos);
}

TEST(LockOrder, DuplicateCyclesAreReportedOnce) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  sim::Mutex a{"dup-a"};
  sim::Mutex b{"dup-b"};
  for (int round = 0; round < 3; ++round) {
    s.spawn("fwd" + std::to_string(round), [&s, &a, &b, round] {
      s.advance(Duration::microseconds(20 * round));
      sim::LockGuard la{a, s};
      sim::LockGuard lb{b, s};
    });
    s.spawn("rev" + std::to_string(round), [&s, &a, &b, round] {
      s.advance(Duration::microseconds(10 + 20 * round));
      sim::LockGuard lb{b, s};
      sim::LockGuard la{a, s};
    });
  }
  s.run();
  EXPECT_EQ(d.trace().count(trace::RaceKind::LockOrder), 1u);
}

}  // namespace
}  // namespace zc::race

#include "zc/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace zc::sim {
namespace {

using namespace zc::sim::literals;

TEST(Scheduler, SingleThreadAdvances) {
  Scheduler s;
  TimePoint end;
  s.run_single([&] {
    s.advance(5_us);
    s.advance(3_us);
    end = s.now();
  });
  EXPECT_EQ(end, TimePoint::zero() + 8_us);
  EXPECT_EQ(s.horizon(), TimePoint::zero() + 8_us);
}

TEST(Scheduler, MinClockFirstInterleaving) {
  Scheduler s;
  std::vector<std::string> order;
  s.spawn("a", [&] {
    order.push_back("a0");
    s.advance(10_us);
    order.push_back("a1");
  });
  s.spawn("b", [&] {
    order.push_back("b0");
    s.advance(4_us);
    order.push_back("b1");
    s.advance(4_us);
    order.push_back("b2");
  });
  s.run();
  // a starts (tie at t=0, lower id), advances to 10 -> b runs at 0, 4, 8,
  // then a resumes at 10.
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "b1", "b2", "a1"}));
}

TEST(Scheduler, TieBrokenBySpawnOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "t";
    name += std::to_string(i);
    s.spawn(std::move(name), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Scheduler, AdvanceToOnlyMovesForward) {
  Scheduler s;
  s.run_single([&] {
    s.advance(10_us);
    s.advance_to(TimePoint::zero() + 5_us);  // no-op, in the past
    EXPECT_EQ(s.now(), TimePoint::zero() + 10_us);
    s.advance_to(TimePoint::zero() + 15_us);
    EXPECT_EQ(s.now(), TimePoint::zero() + 15_us);
  });
}

TEST(Scheduler, NegativeAdvanceThrows) {
  Scheduler s;
  EXPECT_THROW(s.run_single([&] { s.advance(Duration::zero() - 1_ns); }), SimError);
}

TEST(Scheduler, OpsOutsideThreadThrow) {
  Scheduler s;
  EXPECT_THROW((void)s.now(), SimError);
  EXPECT_THROW(s.advance(1_us), SimError);
  EXPECT_THROW((void)s.current(), SimError);
  EXPECT_FALSE(s.in_thread());
}

TEST(Scheduler, ExceptionInThreadPropagates) {
  Scheduler s;
  s.spawn("bad", [] { throw std::runtime_error("kaput"); });
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(Scheduler, WaitListBlocksUntilNotified) {
  Scheduler s;
  WaitList wl;
  std::vector<std::string> order;
  s.spawn("waiter", [&] {
    order.push_back("w:wait");
    wl.wait(s);
    order.push_back("w:woke@" + std::to_string(s.now().ns()));
  });
  s.spawn("poster", [&] {
    s.advance(7_us);
    order.push_back("p:notify");
    wl.notify_all(s, s.now() + 2_us);
  });
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"w:wait", "p:notify", "w:woke@9000"}));
}

TEST(Scheduler, WaitListWakesAllWaiters) {
  Scheduler s;
  WaitList wl;
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    s.spawn("w" + std::to_string(i), [&] {
      wl.wait(s);
      ++woke;
      EXPECT_GE(s.now(), TimePoint::zero() + 5_us);
    });
  }
  s.spawn("poster", [&] {
    s.advance(5_us);
    wl.notify_all(s, s.now());
  });
  s.run();
  EXPECT_EQ(woke, 3);
}

TEST(Scheduler, WakeNeverMovesClockBackwards) {
  Scheduler s;
  WaitList wl;
  TimePoint woke_at;
  s.spawn("waiter", [&] {
    s.advance(20_us);
    wl.wait(s);
    woke_at = s.now();
  });
  s.spawn("poster", [&] {
    s.advance(30_us);
    wl.notify_all(s, TimePoint::zero() + 1_us);  // earlier than waiter clock
  });
  s.run();
  EXPECT_EQ(woke_at, TimePoint::zero() + 20_us);
}

TEST(Scheduler, DeadlockDetected) {
  Scheduler s;
  WaitList wl;
  s.spawn("stuck", [&] { wl.wait(s); });
  EXPECT_THROW(s.run(), SimError);
}

TEST(Scheduler, SpawnFromInsideThreadInheritsClock) {
  Scheduler s;
  TimePoint child_start;
  s.spawn("parent", [&] {
    s.advance(12_us);
    s.spawn("child", [&] { child_start = s.now(); });
  });
  s.run();
  EXPECT_EQ(child_start, TimePoint::zero() + 12_us);
}

TEST(Scheduler, ManyThreadsContendDeterministically) {
  auto run_once = [] {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "t";
      name += std::to_string(i);
      s.spawn(std::move(name), [&s, &order, i] {
        for (int k = 0; k < 5; ++k) {
          s.advance(Duration::microseconds(1 + (i * 7 + k) % 3));
          order.push_back(i);
        }
      });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, HorizonIsMaxOverThreads) {
  Scheduler s;
  s.spawn("short", [&] { s.advance(1_us); });
  s.spawn("long", [&] { s.advance(50_us); });
  s.run();
  EXPECT_EQ(s.horizon(), TimePoint::zero() + 50_us);
}

TEST(Scheduler, RescheduleYieldsToEqualClockPeers) {
  Scheduler s;
  std::vector<std::string> order;
  s.spawn("a", [&] {
    order.push_back("a0");
    s.reschedule();
    order.push_back("a1");
  });
  s.spawn("b", [&] { order.push_back("b0"); });
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1"}));
}

TEST(Scheduler, StressYieldsNeverLoseAWakeup) {
  // A stress point may hand the CPU to an equal-clock peer before a
  // primitive checks its condition, never between the check and the
  // enqueue: a peer that unlocks or sets in that window would wake nobody,
  // and the waiter would block forever.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Scheduler s;
    s.enable_stress(seed);
    Mutex m{"m"};
    Latch latch;
    s.spawn("owner", [&] {
      m.lock(s);
      s.advance(1_us);
      m.unlock(s);
      latch.set(s);
    });
    s.spawn("waiter", [&] {
      s.advance(1_us);
      m.lock(s);
      m.unlock(s);
      latch.wait(s);
    });
    EXPECT_NO_THROW(s.run()) << "stress seed " << seed;
  }
}

}  // namespace
}  // namespace zc::sim

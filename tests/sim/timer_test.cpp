// The scheduler's virtual-time timer wheel: sleep_for, timed waits on the
// synchronization primitives (WaitList, Latch, Mutex), timeout-vs-signaled
// results, determinism under stress mode, and the deadlock diagnostic that
// names which primitive each blocked thread is stuck on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "zc/sim/scheduler.hpp"

namespace zc::sim {
namespace {

using namespace zc::sim::literals;

TEST(Timer, SleepForAdvancesExactlyTheRequestedDuration) {
  Scheduler s;
  s.run_single([&] {
    s.sleep_for(25_us);
    EXPECT_EQ(s.now(), TimePoint::zero() + 25_us);
    s.sleep_for(Duration::zero());  // zero sleep is just a yield point
    EXPECT_EQ(s.now(), TimePoint::zero() + 25_us);
  });
}

TEST(Timer, NegativeSleepThrows) {
  Scheduler s;
  EXPECT_THROW(s.run_single([&] { s.sleep_for(-1_us); }), SimError);
}

TEST(Timer, SleepersInterleaveWithRunnersInTimeOrder) {
  // A sleeping thread must not block a runnable one, and must wake exactly
  // when virtual time reaches its deadline — interleaved in global time
  // order with other threads' work.
  Scheduler s;
  std::vector<std::string> order;
  s.spawn("sleeper", [&] {
    s.sleep_for(30_us);
    order.push_back("sleeper@" + std::to_string(s.now().since_start().ns()));
  });
  s.spawn("worker", [&] {
    s.advance(10_us);
    order.push_back("worker@" + std::to_string(s.now().since_start().ns()));
    s.advance(40_us);
    order.push_back("worker@" + std::to_string(s.now().since_start().ns()));
  });
  s.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "worker@10000");
  EXPECT_EQ(order[1], "sleeper@30000");
  EXPECT_EQ(order[2], "worker@50000");
}

TEST(Timer, PureSleepersAdvanceVirtualTimeWithNoRunnableThread) {
  // With every thread asleep, the timer wheel itself must move the clock.
  Scheduler s;
  TimePoint a_woke, b_woke;
  s.spawn("a", [&] {
    s.sleep_for(100_us);
    a_woke = s.now();
  });
  s.spawn("b", [&] {
    s.sleep_for(60_us);
    b_woke = s.now();
  });
  s.run();
  EXPECT_EQ(a_woke, TimePoint::zero() + 100_us);
  EXPECT_EQ(b_woke, TimePoint::zero() + 60_us);
}

TEST(Timer, WaitListWaitForTimesOutAtTheDeadline) {
  Scheduler s;
  WaitList wl;
  s.run_single([&] {
    EXPECT_FALSE(wl.wait_for(s, 15_us, "test-wl"));
    EXPECT_EQ(s.now(), TimePoint::zero() + 15_us);
  });
}

TEST(Timer, WaitListWaitForZeroTimeoutFailsImmediately) {
  Scheduler s;
  WaitList wl;
  s.run_single([&] {
    EXPECT_FALSE(wl.wait_for(s, Duration::zero(), "test-wl"));
    EXPECT_EQ(s.now(), TimePoint::zero());
  });
}

TEST(Timer, WaitListWaitForSignaledBeforeDeadlineReturnsTrue) {
  Scheduler s;
  WaitList wl;
  bool signaled = false;
  s.spawn("waiter", [&] {
    signaled = wl.wait_for(s, 100_us, "test-wl");
    EXPECT_EQ(s.now(), TimePoint::zero() + 20_us);
  });
  s.spawn("poster", [&] {
    s.advance(20_us);
    wl.notify_all(s, s.now());
  });
  s.run();
  EXPECT_TRUE(signaled);
}

TEST(Timer, TimedOutWaiterIsRemovedFromTheList) {
  // After a timeout the thread must no longer be on the wait list: a later
  // notify_all must not touch it (it would corrupt scheduler state).
  Scheduler s;
  WaitList wl;
  int wakes = 0;
  s.spawn("timed", [&] {
    EXPECT_FALSE(wl.wait_for(s, 10_us, "test-wl"));
    ++wakes;
    s.advance(100_us);  // stay alive past the notify below
  });
  s.spawn("poster", [&] {
    s.advance(50_us);
    wl.notify_all(s, s.now());  // list must be empty by now
  });
  s.run();
  EXPECT_EQ(wakes, 1);
}

TEST(Timer, LatchWaitForBothOutcomes) {
  Scheduler s;
  Latch never;
  Latch posted;
  s.spawn("timeout", [&] {
    EXPECT_FALSE(never.wait_for(s, 12_us));
    EXPECT_EQ(s.now(), TimePoint::zero() + 12_us);
  });
  s.spawn("signaled", [&] {
    EXPECT_TRUE(posted.wait_for(s, 1000_us));
    EXPECT_EQ(s.now(), TimePoint::zero() + 30_us);
  });
  s.spawn("poster", [&] {
    s.advance(30_us);
    posted.set(s);
  });
  s.run();
}

TEST(Timer, LatchWaitForAlreadySetIsImmediate) {
  Scheduler s;
  s.run_single([&] {
    Latch l;
    l.set(s);
    EXPECT_TRUE(l.wait_for(s, 5_us));
    EXPECT_EQ(s.now(), TimePoint::zero());
  });
}

TEST(Timer, MutexTryLockForAcquiresFreeLockImmediately) {
  Scheduler s;
  Mutex m{"free"};
  s.run_single([&] {
    EXPECT_TRUE(m.try_lock_for(s, 10_us));
    EXPECT_EQ(s.now(), TimePoint::zero());
    m.unlock(s);
  });
}

TEST(Timer, MutexTryLockForTimesOutUnderContention) {
  Scheduler s;
  Mutex m{"held"};
  bool got = true;
  s.spawn("holder", [&] {
    m.lock(s);
    s.advance(100_us);  // hold well past the deadline below
    m.unlock(s);
  });
  s.spawn("contender", [&] {
    s.advance(1_us);  // let the holder win the lock first
    got = m.try_lock_for(s, 20_us);
    EXPECT_EQ(s.now(), TimePoint::zero() + 21_us);
  });
  s.run();
  EXPECT_FALSE(got);
}

TEST(Timer, MutexTryLockForSucceedsWhenReleasedInTime) {
  Scheduler s;
  Mutex m{"handoff"};
  bool got = false;
  s.spawn("holder", [&] {
    m.lock(s);
    s.advance(8_us);
    m.unlock(s);
  });
  s.spawn("contender", [&] {
    s.advance(1_us);
    got = m.try_lock_for(s, 50_us);
    if (got) {
      EXPECT_EQ(s.now(), TimePoint::zero() + 8_us);
      m.unlock(s);
    }
  });
  s.run();
  EXPECT_TRUE(got);
}

TEST(Timer, MutexTryLockForRecursiveStillThrows) {
  Scheduler s;
  Mutex m{"rec"};
  EXPECT_THROW(s.run_single([&] {
                 m.lock(s);
                 (void)m.try_lock_for(s, 5_us);
               }),
               LockDisciplineError);
}

TEST(Timer, DeadlockDiagnosticNamesThreadsAndPrimitives) {
  // Satellite: when the simulation deadlocks, the error must say which
  // thread waits on which primitive — here both the mutex (by name) and
  // the bare wait list label.
  Scheduler s;
  Mutex m{"present-table"};
  WaitList wl;
  s.spawn("holder", [&] {
    m.lock(s);
    wl.wait(s, "Signal(kernel:vmc)");  // never notified
  });
  s.spawn("blocked", [&] {
    s.advance(1_us);
    m.lock(s);  // owner never unlocks
  });
  try {
    s.run();
    FAIL() << "expected deadlock";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'holder' on Signal(kernel:vmc)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'blocked' on Mutex(present-table)"),
              std::string::npos)
        << what;
  }
}

TEST(Timer, SleepDeadlinesAreDeterministicUnderStress) {
  // Timer firings must not depend on stress-mode tie-breaks: wake times
  // and final clocks are identical across seeds.
  auto run_once = [](std::uint64_t seed) {
    Scheduler s;
    s.enable_stress(seed);
    std::vector<std::int64_t> wakes;
    Latch l;
    Barrier b{2};
    for (int t = 0; t < 3; ++t) {
      s.spawn("sleeper" + std::to_string(t), [&s, &wakes, t] {
        s.sleep_for(Duration::nanoseconds(1000 * (t + 1)));
        wakes.push_back(s.now().since_start().ns());
      });
    }
    // Stress points inside Latch::wait and Barrier::arrive_and_wait
    // (satellite: both are schedule-divergence points) must not perturb
    // virtual time either.
    s.spawn("latch-waiter", [&] { l.wait(s); });
    s.spawn("latch-setter", [&] {
      s.advance(2_us);
      l.set(s);
    });
    s.spawn("barrier-a", [&] { b.arrive_and_wait(s); });
    s.spawn("barrier-b", [&] {
      s.advance(5_us);
      b.arrive_and_wait(s);
    });
    s.run();
    return wakes;
  };
  const std::vector<std::int64_t> a = run_once(1);
  const std::vector<std::int64_t> b = run_once(42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0], 1000);
  EXPECT_EQ(a[1], 2000);
  EXPECT_EQ(a[2], 3000);
}

TEST(Timer, WaitForResultsAreDeterministicUnderStress) {
  auto run_once = [](std::uint64_t seed) {
    Scheduler s;
    s.enable_stress(seed);
    WaitList wl;
    std::vector<bool> results;
    s.spawn("short", [&] { results.push_back(wl.wait_for(s, 5_us, "wl")); });
    s.spawn("long", [&] { results.push_back(wl.wait_for(s, 50_us, "wl")); });
    s.spawn("poster", [&] {
      s.advance(20_us);
      wl.notify_all(s, s.now());
    });
    s.run();
    return results;
  };
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const std::vector<bool> r = run_once(seed);
    ASSERT_EQ(r.size(), 2u) << seed;
    EXPECT_FALSE(r[0]) << seed;  // 5us deadline < 20us post: timeout
    EXPECT_TRUE(r[1]) << seed;   // 50us deadline > 20us post: signaled
  }
}

TEST(Timer, SharedDeadlineTimesOutInIdOrderUnderStress) {
  // Timed waiters whose deadlines coincide time out in thread-id order,
  // whatever order they armed their timers in. Each timeout swaps the last
  // waiter into the leaver's slot, so that order decides how the wait list
  // reads afterwards, and a stressed handoff draws its winner by position
  // in the list. Here `b` arms first, then `a`; both give up at 10us,
  // `a` leaving first, so the list reads d, e, c when the holder unlocks.
  auto owners = [](std::uint64_t seed) {
    Scheduler s;
    s.enable_stress(seed);
    s.enable_policy_check();
    Mutex m{"shared-deadline"};
    std::vector<std::string> got;
    s.spawn("holder", [&] {
      m.lock(s);
      s.advance(20_us);
      m.unlock(s);
    });
    const auto contender = [&](Duration arrive, Duration timeout) {
      return [&s, &m, &got, arrive, timeout] {
        s.advance(arrive);
        if (m.try_lock_for(s, timeout)) {
          got.push_back(s.current().name());
          m.unlock(s);
        }
      };
    };
    s.spawn("a", contender(2_us, 8_us));
    s.spawn("b", contender(1_us, 9_us));
    s.spawn("c", contender(3_us, 100_us));
    s.spawn("d", contender(4_us, 100_us));
    s.spawn("e", contender(5_us, 100_us));
    s.run();
    return got;
  };
  const std::vector<std::pair<std::uint64_t, std::string>> pinned = {
      {1, "c"}, {2, "c"}, {3, "e"}, {4, "c"}, {5, "e"}, {6, "e"},
      {7, "c"}, {42, "d"}};
  for (const auto& [seed, first] : pinned) {
    const std::vector<std::string> got = owners(seed);
    ASSERT_EQ(got.size(), 3u) << seed;  // a and b timed out
    EXPECT_EQ(got.front(), first) << "seed " << seed;
  }
}

}  // namespace
}  // namespace zc::sim

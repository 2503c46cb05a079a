#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "zc/sim/scheduler.hpp"

namespace zc::sim {
namespace {

using namespace zc::sim::literals;

TEST(Latch, WaitAfterSetSynchronizesClock) {
  Scheduler s;
  Latch latch;
  TimePoint waiter_after;
  s.spawn("setter", [&] {
    s.advance(10_us);
    latch.set(s);
  });
  s.spawn("late", [&] {
    s.advance(50_us);
    latch.wait(s);  // already set: no blocking, clock unchanged
    waiter_after = s.now();
  });
  s.run();
  EXPECT_EQ(waiter_after, TimePoint::zero() + 50_us);
  EXPECT_TRUE(latch.is_set());
}

TEST(Latch, WaitBeforeSetBlocksUntilSetTime) {
  Scheduler s;
  Latch latch;
  TimePoint woke;
  s.spawn("early", [&] {
    latch.wait(s);
    woke = s.now();
  });
  s.spawn("setter", [&] {
    s.advance(25_us);
    latch.set(s);
  });
  s.run();
  EXPECT_EQ(woke, TimePoint::zero() + 25_us);
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  Scheduler s;
  Barrier barrier{3};
  std::vector<TimePoint> released(3);
  for (int t = 0; t < 3; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "t";
    name += std::to_string(t);
    s.spawn(std::move(name), [&s, &barrier, &released, t] {
      s.advance(Duration::microseconds(10 * (t + 1)));  // 10, 20, 30 us
      barrier.arrive_and_wait(s);
      released[static_cast<std::size_t>(t)] = s.now();
    });
  }
  s.run();
  for (const TimePoint r : released) {
    EXPECT_EQ(r, TimePoint::zero() + 30_us);  // last arrival's time
  }
}

TEST(Barrier, ReusableAcrossRounds) {
  Scheduler s;
  Barrier barrier{2};
  std::vector<TimePoint> a_times;
  s.spawn("a", [&] {
    for (int round = 0; round < 3; ++round) {
      s.advance(5_us);
      barrier.arrive_and_wait(s);
      a_times.push_back(s.now());
    }
  });
  s.spawn("b", [&] {
    for (int round = 0; round < 3; ++round) {
      s.advance(8_us);
      barrier.arrive_and_wait(s);
    }
  });
  s.run();
  ASSERT_EQ(a_times.size(), 3u);
  // Every round releases at b's (slower) arrival time: 8, 16, 24 us.
  EXPECT_EQ(a_times[0], TimePoint::zero() + 8_us);
  EXPECT_EQ(a_times[1], TimePoint::zero() + 16_us);
  EXPECT_EQ(a_times[2], TimePoint::zero() + 24_us);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Scheduler s;
  Barrier barrier{1};
  s.run_single([&] {
    s.advance(3_us);
    barrier.arrive_and_wait(s);
    EXPECT_EQ(s.now(), TimePoint::zero() + 3_us);
  });
}

TEST(Barrier, RejectsNonPositiveParties) {
  EXPECT_THROW(Barrier{0}, SimError);
  EXPECT_THROW(Barrier{-2}, SimError);
}

TEST(Barrier, MissingPartyDeadlocks) {
  Scheduler s;
  Barrier barrier{2};
  s.spawn("alone", [&] { barrier.arrive_and_wait(s); });
  EXPECT_THROW(s.run(), SimError);
}

TEST(Mutex, MutualExclusionAcrossYields) {
  Scheduler s;
  Mutex m;
  int inside = 0;
  int max_inside = 0;
  for (int t = 0; t < 4; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "t";
    name += std::to_string(t);
    s.spawn(std::move(name), [&s, &m, &inside, &max_inside] {
      for (int i = 0; i < 5; ++i) {
        LockGuard lock{m, s};
        ++inside;
        max_inside = std::max(max_inside, inside);
        s.advance(3_us);  // yields while holding the lock
        --inside;
      }
    });
  }
  s.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(inside, 0);
}

TEST(Mutex, UncontendedLockIsFree) {
  Scheduler s;
  Mutex m;
  s.run_single([&] {
    const TimePoint before = s.now();
    LockGuard lock{m, s};
    EXPECT_EQ(s.now(), before);  // no time passes acquiring a free lock
  });
}

TEST(Mutex, UnlockWithoutLockThrows) {
  Scheduler s;
  Mutex m;
  EXPECT_THROW(s.run_single([&] { m.unlock(s); }), SimError);
}

TEST(Mutex, WaitersResumeAtReleaseTime) {
  Scheduler s;
  Mutex m;
  TimePoint resumed;
  s.spawn("holder", [&] {
    m.lock(s);
    s.advance(40_us);
    m.unlock(s);
  });
  s.spawn("waiter", [&] {
    s.advance(1_us);
    m.lock(s);
    resumed = s.now();
    m.unlock(s);
  });
  s.run();
  EXPECT_EQ(resumed, TimePoint::zero() + 40_us);
}

}  // namespace
}  // namespace zc::sim

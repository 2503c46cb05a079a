// The sim-level lock-discipline checker: per-thread held-lock sets,
// assert_held, GuardedBy accessors, and the Mutex misuse diagnostics
// (recursive lock, foreign unlock, finishing while holding). These are the
// invariants the offload runtime's PresentTable/trace-mutex discipline
// rests on, so they get direct unit coverage here.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "zc/sim/scheduler.hpp"

namespace zc::sim {
namespace {

TEST(LockDiscipline, HeldLockSetTracksAcquisitionOrder) {
  Scheduler s;
  Mutex a;
  Mutex b;
  s.run_single([&] {
    EXPECT_TRUE(s.current().held_locks().empty());
    a.lock(s);
    b.lock(s);
    const auto& held = s.current().held_locks();
    ASSERT_EQ(held.size(), 2u);
    EXPECT_EQ(held[0], &a);
    EXPECT_EQ(held[1], &b);
    EXPECT_TRUE(s.current().holds(a));
    EXPECT_TRUE(s.current().holds(b));
    b.unlock(s);
    EXPECT_TRUE(s.current().holds(a));
    EXPECT_FALSE(s.current().holds(b));
    a.unlock(s);
    EXPECT_TRUE(s.current().held_locks().empty());
  });
}

TEST(LockDiscipline, AssertHeldPassesUnderLockAndThrowsWithout) {
  Scheduler s;
  Mutex m;
  s.run_single([&] {
    EXPECT_THROW(assert_held(m, s, "state"), LockDisciplineError);
    LockGuard lock{m, s};
    EXPECT_NO_THROW(assert_held(m, s, "state"));
  });
}

TEST(LockDiscipline, AssertHeldIsInactiveOutsideVirtualThreads) {
  // Post-run introspection has no concurrency; the checker must not fire.
  Scheduler s;
  Mutex m;
  EXPECT_NO_THROW(assert_held(m, s, "state"));
}

TEST(LockDiscipline, AssertHeldThrowsWhenAnotherThreadOwnsTheLock) {
  // Holding "a" lock is not enough — it must be *the* guard.
  Scheduler s;
  Mutex m;
  Mutex other;
  s.run_single([&] {
    LockGuard lock{other, s};
    EXPECT_THROW(assert_held(m, s, "state"), LockDisciplineError);
  });
}

TEST(LockDiscipline, GuardedByAccessorEnforcesTheGuard) {
  Scheduler s;
  Mutex m;
  GuardedBy<std::vector<int>> state{m, "test-state"};
  s.run_single([&] {
    EXPECT_THROW((void)state.get(s), LockDisciplineError);
    {
      LockGuard lock{m, s};
      state.get(s).push_back(7);
    }
    EXPECT_THROW((void)state.get(s), LockDisciplineError);
  });
  // Outside threads: quiescent reads pass.
  EXPECT_EQ(state.get(s).size(), 1u);
  EXPECT_EQ(state.unguarded()[0], 7);
}

TEST(LockDiscipline, RecursiveLockThrows) {
  Scheduler s;
  Mutex m;
  s.run_single([&] {
    LockGuard lock{m, s};
    EXPECT_THROW(m.lock(s), LockDisciplineError);
  });
}

TEST(LockDiscipline, UnlockByNonOwnerThrows) {
  Scheduler s;
  Mutex m;
  s.spawn("owner", [&] {
    m.lock(s);
    s.advance(Duration::microseconds(10));  // hold across a time advance
    m.unlock(s);
  });
  s.spawn("thief", [&] {
    s.advance(Duration::microseconds(1));  // let "owner" acquire first
    EXPECT_TRUE(m.held());
    EXPECT_FALSE(m.held_by(s.current()));
    EXPECT_THROW(m.unlock(s), LockDisciplineError);
  });
  s.run();
}

TEST(LockDiscipline, ThreadFinishingWhileHoldingALockFailsTheRun) {
  Scheduler s;
  Mutex m;
  s.spawn("leaker", [&] { m.lock(s); });
  EXPECT_THROW(s.run(), LockDisciplineError);
}

TEST(LockDiscipline, MutexOwnerIsExposedForDiagnostics) {
  Scheduler s;
  Mutex m;
  EXPECT_EQ(m.owner(), nullptr);
  s.run_single([&] {
    LockGuard lock{m, s};
    ASSERT_NE(m.owner(), nullptr);
    EXPECT_EQ(m.owner()->name(), "main");
  });
  EXPECT_EQ(m.owner(), nullptr);
}

TEST(LockDiscipline, ContendedMutexSerializesAndWakesAtUnlockTime) {
  // The pre-existing blocking semantics must survive the ownership
  // tracking: a waiter resumes no earlier than the unlocker's clock.
  Scheduler s;
  Mutex m;
  TimePoint t1_acquired;
  s.spawn("t0", [&] {
    m.lock(s);
    s.advance(Duration::microseconds(50));
    m.unlock(s);
  });
  s.spawn("t1", [&] {
    s.advance(Duration::microseconds(1));
    m.lock(s);
    t1_acquired = s.now();
    m.unlock(s);
  });
  s.run();
  EXPECT_GE(t1_acquired.since_start(), Duration::microseconds(50));
}

TEST(LockDiscipline, GuardedByAssertsUnderStressModeToo) {
  // The checker and the stress scheduler compose: violations stay
  // deterministic errors no matter the interleaving seed.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Scheduler s;
    s.enable_stress(seed);
    Mutex m;
    GuardedBy<int> counter{m, "counter"};
    int violations = 0;
    for (int t = 0; t < 3; ++t) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "t";
      name += std::to_string(t);
      s.spawn(std::move(name), [&] {
        try {
          ++counter.get(s);
        } catch (const LockDisciplineError&) {
          ++violations;
        }
        LockGuard lock{m, s};
        ++counter.get(s);
      });
    }
    s.run();
    EXPECT_EQ(violations, 3);
    EXPECT_EQ(counter.get(s), 3);
  }
}

}  // namespace
}  // namespace zc::sim

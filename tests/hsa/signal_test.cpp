#include "zc/hsa/signal.hpp"

#include <gtest/gtest.h>

#include "zc/sim/scheduler.hpp"

namespace zc::hsa {
namespace {

using namespace zc::sim::literals;
using sim::Duration;
using sim::Scheduler;
using sim::TimePoint;

TEST(Signal, WaitOnCompletedSignalAdvancesToCompletionTime) {
  Scheduler s;
  s.run_single([&] {
    Signal sig;
    sig.complete(s, TimePoint::zero() + 40_us);
    const Duration blocked = sig.wait(s);
    EXPECT_EQ(s.now(), TimePoint::zero() + 40_us);
    EXPECT_EQ(blocked, 40_us);
  });
}

TEST(Signal, WaitOnPastCompletionIsFree) {
  Scheduler s;
  s.run_single([&] {
    Signal sig;
    sig.complete(s, TimePoint::zero() + 5_us);
    s.advance(20_us);
    const Duration blocked = sig.wait(s);
    EXPECT_EQ(blocked, Duration::zero());
    EXPECT_EQ(s.now(), TimePoint::zero() + 20_us);
  });
}

TEST(Signal, CrossThreadWaitBeforePost) {
  // A thread can wait on a signal no operation has been bound to yet; it
  // blocks until another thread completes it.
  Scheduler s;
  Signal sig;
  TimePoint woke;
  s.spawn("waiter", [&] {
    const Duration blocked = sig.wait(s);
    woke = s.now();
    EXPECT_EQ(blocked, 70_us);
  });
  s.spawn("poster", [&] {
    s.advance(70_us);
    sig.complete(s, s.now());
  });
  s.run();
  EXPECT_EQ(woke, TimePoint::zero() + 70_us);
}

TEST(Signal, HandlesAreSharedReferences) {
  Scheduler s;
  s.run_single([&] {
    Signal a;
    Signal b = a;  // same underlying state
    a.complete(s, TimePoint::zero() + 9_us);
    EXPECT_TRUE(b.is_complete());
    EXPECT_EQ(b.complete_at(), TimePoint::zero() + 9_us);
  });
}

TEST(Signal, MultipleWaitersAllReleased) {
  Scheduler s;
  Signal sig;
  int released = 0;
  for (int t = 0; t < 4; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "w";
    name += std::to_string(t);
    s.spawn(std::move(name), [&] {
      (void)sig.wait(s);
      ++released;
      EXPECT_GE(s.now(), TimePoint::zero() + 15_us);
    });
  }
  s.spawn("poster", [&] {
    s.advance(15_us);
    sig.complete(s, s.now());
  });
  s.run();
  EXPECT_EQ(released, 4);
}

TEST(Signal, UnpostedSignalDeadlocksLoudly) {
  Scheduler s;
  Signal sig;
  s.spawn("stuck", [&] { (void)sig.wait(s); });
  EXPECT_THROW(s.run(), sim::SimError);
}

TEST(Signal, DeadlockDiagnosticNamesTheStuckSignal) {
  Scheduler s;
  Signal sig;
  sig.set_name("kernel:vmc");
  s.spawn("stuck", [&] { (void)sig.wait(s); });
  try {
    s.run();
    FAIL() << "expected deadlock";
  } catch (const sim::SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'stuck' on Signal(kernel:vmc)"), std::string::npos)
        << what;
  }
}

TEST(Signal, ErrorPayloadReachesAPreBlockedWaiter) {
  // The awaited-before-bound cross-thread path: a waiter blocks on an
  // unbound signal, then the operation completes *with an error payload* —
  // the waiter must wake at the completion time and observe errored().
  Scheduler s;
  Signal sig;
  bool saw_error = false;
  TimePoint woke;
  s.spawn("waiter", [&] {
    const Duration blocked = sig.wait(s);
    saw_error = sig.errored();
    woke = s.now();
    EXPECT_EQ(blocked, 35_us);
  });
  s.spawn("poster", [&] {
    s.advance(35_us);
    EXPECT_FALSE(sig.is_complete());  // the waiter got there first
    sig.complete_error(s, s.now());
  });
  s.run();
  EXPECT_TRUE(saw_error);
  EXPECT_FALSE(sig.aborted());
  EXPECT_EQ(woke, TimePoint::zero() + 35_us);
}

TEST(Signal, AbortReachesAPreBlockedWaiter) {
  // Same path for a watchdog abort: the pre-blocked waiter wakes and must
  // observe aborted() (and not errored()) so it can decide to replay.
  Scheduler s;
  Signal sig;
  bool saw_abort = false;
  bool saw_error = true;
  s.spawn("waiter", [&] {
    (void)sig.wait(s);
    saw_abort = sig.aborted();
    saw_error = sig.errored();
  });
  s.spawn("watchdog", [&] {
    s.advance(200_us);
    sig.complete_abort(s, s.now());
  });
  s.run();
  EXPECT_TRUE(saw_abort);
  EXPECT_FALSE(saw_error);
}

TEST(Signal, ErrorPayloadSharedAcrossMultiplePreBlockedWaiters) {
  Scheduler s;
  Signal sig;
  int saw = 0;
  for (int t = 0; t < 3; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "w";
    name += std::to_string(t);
    s.spawn(std::move(name), [&] {
      (void)sig.wait(s);
      if (sig.errored()) {
        ++saw;
      }
    });
  }
  s.spawn("poster", [&] {
    s.advance(5_us);
    sig.complete_error(s, s.now());
  });
  s.run();
  EXPECT_EQ(saw, 3);
}

TEST(Signal, WaitForOnUnboundSignalTimesOut) {
  Scheduler s;
  Signal sig;
  sig.set_name("stuck-op");
  s.spawn("waiter", [&] {
    EXPECT_FALSE(sig.wait_for(s, 50_us));
    EXPECT_EQ(s.now(), TimePoint::zero() + 50_us);
    EXPECT_FALSE(sig.is_complete());
  });
  s.run();
}

TEST(Signal, WaitForOnUnboundSignalCompletedInTime) {
  Scheduler s;
  Signal sig;
  s.spawn("waiter", [&] {
    EXPECT_TRUE(sig.wait_for(s, 50_us));
    EXPECT_EQ(s.now(), TimePoint::zero() + 20_us);
  });
  s.spawn("poster", [&] {
    s.advance(20_us);
    sig.complete(s, s.now());
  });
  s.run();
}

TEST(Signal, WaitForOnBoundSignalRespectsTheDeadline) {
  Scheduler s;
  s.run_single([&] {
    Signal late;
    late.complete(s, TimePoint::zero() + 100_us);
    EXPECT_FALSE(late.wait_for(s, 30_us));  // bound past the deadline
    EXPECT_EQ(s.now(), TimePoint::zero() + 30_us);

    Signal exact;
    exact.complete(s, TimePoint::zero() + 60_us);
    EXPECT_TRUE(exact.wait_for(s, 30_us));  // completion exactly at deadline
    EXPECT_EQ(s.now(), TimePoint::zero() + 60_us);
  });
}

}  // namespace
}  // namespace zc::hsa

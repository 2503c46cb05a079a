#pragma once

// Deterministic scheduler scenarios shared by the golden-equivalence test
// (tests/sim/scheduler_equiv_test.cpp). Each scenario drives a Scheduler
// through a fixed multi-thread program and returns the interleaving as a
// compact trace string ("name@ns;name@ns;...") recording every step a
// thread takes, with its virtual clock.
//
// The golden strings embedded in the test were captured from the original
// O(n)-scan scheduler (linear pick_next / fire_due_timers) *before* the
// indexed ready-heap landed; the test asserts the heap scheduler reproduces
// them bit-for-bit, in deterministic mode and under stress seeds 1/7/42.
// The scenarios deliberately avoid contended Mutex acquisition: the
// wake-one direct-handoff unlock intentionally changed contended-lock
// wakeup order (see DESIGN.md §12), while everything exercised here —
// min-clock selection, spawn-order and deprioritized tie-breaks, the timer
// wheel, timed waits, latch/barrier broadcast — is required to be
// schedule-identical across the two implementations.

#include <string>
#include <vector>

#include "zc/sim/scheduler.hpp"

namespace zc::sim::equiv {

class TraceLog {
 public:
  void record(Scheduler& s) {
    if (!trace_.empty()) {
      trace_ += ';';
    }
    trace_ += s.current().name();
    trace_ += '@';
    trace_ += std::to_string(s.now().since_start().ns());
  }

  [[nodiscard]] const std::string& str() const { return trace_; }

 private:
  std::string trace_;
};

/// Three equal-clock threads calling reschedule() in rotation: the
/// deprioritized_ one-shot flag must rotate the CPU fairly (A,B,C,A,B,C...)
/// instead of letting the flag stick and starve/churn a thread.
inline std::string ties_rotation(Scheduler& s) {
  TraceLog log;
  for (int t = 0; t < 3; ++t) {
    s.spawn(std::string(1, static_cast<char>('a' + t)), [&s, &log] {
      for (int i = 0; i < 6; ++i) {
        log.record(s);
        s.reschedule();
      }
    });
  }
  s.run();
  return log.str();
}

/// Mixed advance/sleep/reschedule traffic over six threads with staggered
/// per-thread step sizes — the general-purpose churn scenario exercising
/// ready-structure ordering, timer arming, and deprioritized ties together.
inline std::string mixed_advance_sleep(Scheduler& s) {
  TraceLog log;
  for (int t = 0; t < 6; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "t";
    name += std::to_string(t);
    s.spawn(std::move(name), [&s, &log, t] {
      for (int i = 0; i < 12; ++i) {
        s.advance(Duration::nanoseconds(50 + (t * 13 + i * 7) % 40));
        log.record(s);
        if (i % 3 == 2) {
          s.sleep_for(Duration::nanoseconds(30 + (t * 11) % 25));
          log.record(s);
        }
        if (i % 5 == 4) {
          s.reschedule();
        }
      }
    });
  }
  s.run();
  return log.str();
}

/// Timer-edge scenario: a sleeper's deadline lands *exactly* on the minimum
/// runnable clock. fire_due_timers may fire it (no runnable clock is
/// strictly smaller), and the woken sleeper then competes in the same tie
/// bucket as the runnable thread.
inline std::string timer_at_min_clock(Scheduler& s) {
  TraceLog log;
  s.spawn("sleeper", [&s, &log] {
    log.record(s);
    s.sleep_for(Duration::nanoseconds(100));  // due exactly at runner's 100
    log.record(s);
    s.advance(Duration::nanoseconds(10));
    log.record(s);
  });
  s.spawn("runner", [&s, &log] {
    s.advance(Duration::nanoseconds(100));
    log.record(s);
    s.advance(Duration::nanoseconds(100));
    log.record(s);
  });
  s.spawn("late", [&s, &log] {
    s.advance(Duration::nanoseconds(150));
    log.record(s);
  });
  s.run();
  return log.str();
}

/// Latch broadcast plus barrier rounds: WaitList::notify_all wakes several
/// blocked threads at once; the ready structure must order the woken set
/// exactly as the linear scan did.
inline std::string latch_barrier_fan(Scheduler& s) {
  TraceLog log;
  auto latch = std::make_shared<Latch>();
  auto barrier = std::make_shared<Barrier>(4);
  for (int t = 0; t < 4; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "w";
    name += std::to_string(t);
    s.spawn(std::move(name), [&s, &log, latch, barrier, t] {
      latch->wait(s);
      log.record(s);
      for (int round = 0; round < 3; ++round) {
        s.advance(Duration::nanoseconds(20 + (t * 17 + round * 5) % 30));
        log.record(s);
        barrier->arrive_and_wait(s);
        log.record(s);
      }
    });
  }
  s.spawn("producer", [&s, &log, latch] {
    s.advance(Duration::nanoseconds(75));
    log.record(s);
    latch->set(s);
    log.record(s);
  });
  s.run();
  return log.str();
}

/// Timeout racing a notify: waiters arm wait_for deadlines before, exactly
/// at, and after the producer's set time. The "exactly at" waiter probes
/// the wake-vs-timeout tie; whichever side the policy picks must be picked
/// identically by both scheduler implementations.
inline std::string timeout_vs_notify(Scheduler& s) {
  TraceLog log;
  auto latch = std::make_shared<Latch>();
  const Duration deadlines[] = {Duration::nanoseconds(60),
                                Duration::nanoseconds(100),
                                Duration::nanoseconds(140)};
  for (int t = 0; t < 3; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "w";
    name += std::to_string(t);
    s.spawn(std::move(name), [&s, &log, latch, &deadlines, t] {
      const bool notified = latch->wait_for(s, deadlines[t]);
      log.record(s);
      s.advance(Duration::nanoseconds(notified ? 5 : 9));
      log.record(s);
    });
  }
  s.spawn("producer", [&s, &log, latch] {
    s.advance(Duration::nanoseconds(100));  // ties w1's deadline exactly
    log.record(s);
    latch->set(s);
    log.record(s);
  });
  s.run();
  return log.str();
}

struct Scenario {
  const char* name;
  std::string (*run)(Scheduler&);
};

inline const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"ties_rotation", &ties_rotation},
      {"mixed_advance_sleep", &mixed_advance_sleep},
      {"timer_at_min_clock", &timer_at_min_clock},
      {"latch_barrier_fan", &latch_barrier_fan},
      {"timeout_vs_notify", &timeout_vs_notify},
  };
  return all;
}

}  // namespace zc::sim::equiv

// The FastTrack-style happens-before detector: unsynchronized conflicting
// page accesses race regardless of the schedule that actually ran; every
// sync primitive's release/acquire edge restores order; reports are
// deterministic, and a poisoned page yields exactly one report per run.

#include "zc/race/detector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "zc/sim/scheduler.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::race {
namespace {

using sim::Duration;
using sim::Scheduler;

constexpr std::uint64_t kPage = 2ULL << 20;

/// A host access to one page by the running thread, as `host_touch` stamps
/// it: the detector's shadow state is per page.
void stamp_page(Scheduler& s, std::uint64_t page, bool is_write,
                std::string_view site) {
  s.hooks()->on_host_pages(page, 1, is_write, site);
}

TEST(Detector, UnsynchronizedWritesRaceOnEverySchedule) {
  // No interleaving needs to manifest the bug: two writes with no
  // happens-before path are a race even when the cooperative schedule ran
  // them back to back.
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  for (int t = 0; t < 2; ++t) {
    s.spawn("writer" + std::to_string(t),
            [&] { stamp_page(s, 0, true, "shared-counter"); });
  }
  s.run();
  ASSERT_EQ(d.trace().count(trace::RaceKind::Page), 1u);
  const trace::RaceReport& r = d.trace().records().front();
  EXPECT_EQ(r.first.site, "shared-counter");
  EXPECT_TRUE(r.first.is_write);
  EXPECT_TRUE(r.second.is_write);
  EXPECT_NE(r.first.actor, r.second.actor);
  EXPECT_NE(r.message.find("unordered"), std::string::npos);
}

TEST(Detector, PoisoningYieldsExactlyOneReportPerVariable) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  for (int t = 0; t < 4; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "w";
    name += std::to_string(t);
    s.spawn(std::move(name), [&] {
      for (int i = 0; i < 8; ++i) {
        stamp_page(s, 0, true, "hot-field");
      }
    });
  }
  s.run();
  EXPECT_EQ(d.trace().size(), 1u);
}

TEST(Detector, MutexOrdersCriticalSections) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  sim::Mutex m{"guard"};
  int shared = 0;
  for (int t = 0; t < 3; ++t) {
    s.spawn("locked" + std::to_string(t), [&] {
      sim::LockGuard lock{m, s};
      stamp_page(s, 0, true, "guarded-field");
      ++shared;
    });
  }
  s.run();
  EXPECT_TRUE(d.trace().empty());
  EXPECT_EQ(shared, 3);
}

TEST(Detector, ReadReadIsNeverARace) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  for (int t = 0; t < 3; ++t) {
    s.spawn("reader" + std::to_string(t),
            [&] { stamp_page(s, 0, false, "shared-input"); });
  }
  s.run();
  EXPECT_TRUE(d.trace().empty());
}

TEST(Detector, UnorderedReadVsWriteRaces) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  s.spawn("reader", [&] { stamp_page(s, 0, false, "field/read-site"); });
  s.spawn("writer", [&] {
    s.advance(Duration::microseconds(1));
    stamp_page(s, 0, true, "field/write-site");
  });
  s.run();
  ASSERT_EQ(d.trace().size(), 1u);
  const trace::RaceReport& r = d.trace().records().front();
  EXPECT_NE(r.first.is_write, r.second.is_write);
}

TEST(Detector, LatchReleaseAcquireOrdersProducerConsumer) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  sim::Latch ready;
  int payload = 0;
  s.spawn("producer", [&] {
    stamp_page(s, 0, true, "payload");
    payload = 42;
    ready.set(s);
  });
  s.spawn("consumer", [&] {
    ready.wait(s);
    stamp_page(s, 0, false, "payload");
    EXPECT_EQ(payload, 42);
  });
  s.run();
  EXPECT_TRUE(d.trace().empty());
}

TEST(Detector, SpawnEdgeOrdersParentBeforeChildButNotSiblings) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  // The parent's variable lives on page 0, the siblings' on page 1.
  s.spawn("parent", [&] {
    stamp_page(s, 0, true, "parent-field");
    // Child sees the parent's pre-fork write: ordered.
    s.spawn("child", [&] {
      stamp_page(s, 0, false, "parent-field");
      stamp_page(s, 1, true, "sibling-field");
    });
    // Siblings are concurrent with each other.
    s.spawn("sibling", [&] { stamp_page(s, 1, true, "sibling-field"); });
  });
  s.run();
  EXPECT_EQ(d.trace().count(trace::RaceKind::Page), 1u);
  EXPECT_EQ(d.trace().records().front().first.site, "sibling-field");
}

TEST(Detector, BarrierOrdersPhases) {
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  sim::Barrier bar{2};
  s.spawn("a", [&] {
    stamp_page(s, 0, true, "phase1-field");
    bar.arrive_and_wait(s);
  });
  s.spawn("b", [&] {
    bar.arrive_and_wait(s);
    stamp_page(s, 0, true, "phase1-field");
  });
  s.run();
  EXPECT_TRUE(d.trace().empty());
}

TEST(Detector, AbortModeThrowsRaceErrorByDefault) {
  Scheduler s;
  Detector d{Detector::Mode::Abort, kPage};
  d.attach(s);
  for (int t = 0; t < 2; ++t) {
    s.spawn("t" + std::to_string(t),
            [&] { stamp_page(s, 0, true, "aborting-field"); });
  }
  EXPECT_THROW(s.run(), RaceError);
  EXPECT_EQ(d.trace().size(), 1u);
}

TEST(Detector, AbortHandlerReplacesTheThrow) {
  Scheduler s;
  Detector d{Detector::Mode::Abort, kPage};
  d.attach(s);
  std::string seen;
  d.set_abort_handler(
      [&seen](const trace::RaceReport& r) { seen = r.message; });
  for (int t = 0; t < 2; ++t) {
    s.spawn("t" + std::to_string(t),
            [&] { stamp_page(s, 0, true, "handled-field"); });
  }
  s.run();
  EXPECT_NE(seen.find("handled-field"), std::string::npos);
}

TEST(Detector, ReportsAreIdenticalAcrossStressSeeds) {
  // The detector is schedule-independent for this program: every seed
  // produces the same single report text (modulo nothing).
  std::string first_message;
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    Scheduler s;
    s.enable_stress(seed);
    Detector d{Detector::Mode::Report, kPage};
    d.attach(s);
    for (int t = 0; t < 2; ++t) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "w";
      name += std::to_string(t);
      s.spawn(std::move(name), [&] { stamp_page(s, 0, true, "seeded-field"); });
    }
    s.run();
    ASSERT_EQ(d.trace().size(), 1u) << "seed " << seed;
    if (first_message.empty()) {
      first_message = d.trace().records().front().message;
    } else {
      EXPECT_EQ(d.trace().records().front().message, first_message)
          << "seed " << seed;
    }
  }
}

TEST(Detector, QuiescentAccessesOutsideThreadsAreIgnored) {
  Scheduler s;
  Detector d{Detector::Mode::Abort, kPage};
  d.attach(s);
  // Pre-run configuration and post-run snapshots happen outside any
  // virtual thread; the detector must not see (or abort on) them.
  stamp_page(s, 0, true, "quiescent");
  s.run_single([&] { stamp_page(s, 0, true, "quiescent"); });
  stamp_page(s, 0, false, "quiescent");
  EXPECT_TRUE(d.trace().empty());
}

TEST(Detector, GuardedByAccessesStayCleanUnderStress) {
  // GuardedBy::get asserts the lock (throwing deterministically on an
  // unguarded access) and is exempt from detector stamping: the mutex's
  // own release/acquire edges already order every critical section, so
  // the detector sees the lock traffic but no spurious access events —
  // a correctly guarded field stays clean under any seed.
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    Scheduler s;
    s.enable_stress(seed);
    Detector d{Detector::Mode::Abort, kPage};
    d.attach(s);
    sim::Mutex m{"state-mutex"};
    sim::GuardedBy<int> state{m, "guarded-state"};
    for (int t = 0; t < 3; ++t) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "t";
      name += std::to_string(t);
      s.spawn(std::move(name), [&] {
        sim::LockGuard lock{m, s};
        ++state.get(s);
      });
    }
    s.run();
    EXPECT_TRUE(d.trace().empty());
  }
}

}  // namespace
}  // namespace zc::race

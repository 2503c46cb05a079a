// Regression harness for the PR-1 PresentTable bug: a faithful replica of
// the pre-fix runtime logic (lookup-then-insert and refcount updates with
// no lock) whose table accesses stamp one page. The detector must flag it
// under every stress seed — the racy interleaving does not need to manifest
// — and the mutex-guarded fixed version must be clean under the same seeds.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "zc/core/mapping.hpp"
#include "zc/race/detector.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::race {
namespace {

using sim::Duration;
using sim::Scheduler;

constexpr std::uint64_t kPage = 2ULL << 20;

/// The pre-PR-1 target_data_begin/end sequence: presence lookup, insert on
/// miss, refcount bump — straight onto the shared table, optionally under a
/// lock. The table is one logical variable, stamped as page 0.
class PresentTableShim {
 public:
  PresentTableShim(Scheduler& sched, bool locked)
      : sched_(sched), locked_(locked) {}

  void map_enter(mem::AddrRange host) {
    if (locked_) {
      sim::LockGuard lock{mutex_, sched_};
      enter_unlocked(host);
    } else {
      enter_unlocked(host);
    }
  }

  void map_exit(mem::AddrRange host) {
    if (locked_) {
      sim::LockGuard lock{mutex_, sched_};
      exit_unlocked(host);
    } else {
      exit_unlocked(host);
    }
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }

 private:
  void stamp(bool is_write, std::string_view site) {
    sched_.hooks()->on_host_pages(0, 1, is_write, site);
  }

  void enter_unlocked(mem::AddrRange host) {
    stamp(false, "PresentTable(shim)/lookup");
    omp::PresentEntry* e = table_.lookup(host.base);
    if (e == nullptr) {
      stamp(true, "PresentTable(shim)/insert");
      e = &table_.insert(host, host.base);
    }
    stamp(true, "PresentTable(shim)/refcount++");
    ++e->refcount;
  }

  void exit_unlocked(mem::AddrRange host) {
    stamp(false, "PresentTable(shim)/lookup");
    omp::PresentEntry* e = table_.lookup(host.base);
    ASSERT_NE(e, nullptr);
    stamp(true, "PresentTable(shim)/refcount--");
    if (--e->refcount == 0) {
      stamp(true, "PresentTable(shim)/erase");
      table_.erase(host.base);
    }
  }

  Scheduler& sched_;
  bool locked_;
  sim::Mutex mutex_{"present-table-shim"};
  omp::PresentTable table_;
};

void run_mappers(Scheduler& s, PresentTableShim& shim) {
  // Two host threads map the same buffer, overlap, and unmap — the exact
  // shape of concurrent `target data` regions over a shared table.
  const mem::AddrRange buf{mem::VirtAddr{4 * kPage}, kPage};
  for (int t = 0; t < 2; ++t) {
    s.spawn("mapper" + std::to_string(t), [&s, &shim, buf, t] {
      s.advance(Duration::microseconds(3 * t));
      shim.map_enter(buf);
      s.advance(Duration::microseconds(10));
      shim.map_exit(buf);
    });
  }
  s.run();
}

TEST(PresentTableRace, UnlockedShimIsFlaggedUnderEveryStressSeed) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    Scheduler s;
    s.enable_stress(seed);
    Detector d{Detector::Mode::Report, kPage};
    d.attach(s);
    PresentTableShim shim{s, /*locked=*/false};
    run_mappers(s, shim);
    EXPECT_GE(d.trace().count(trace::RaceKind::Page), 1u) << "seed " << seed;
    const trace::RaceReport& r = d.trace().records().front();
    EXPECT_NE(r.first.site.find("PresentTable(shim)"), std::string::npos);
  }
}

TEST(PresentTableRace, LockedShimIsCleanUnderTheSameSeeds) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    Scheduler s;
    s.enable_stress(seed);
    Detector d{Detector::Mode::Report, kPage};
    d.attach(s);
    PresentTableShim shim{s, /*locked=*/true};
    run_mappers(s, shim);
    EXPECT_TRUE(d.trace().empty()) << "seed " << seed;
    EXPECT_EQ(shim.size(), 0u);  // refcounts balanced, table drained
  }
}

TEST(PresentTableRace, UnlockedShimIsAlsoFlaggedWithoutStress) {
  // Happens-before detection does not depend on stress yields at all.
  Scheduler s;
  Detector d{Detector::Mode::Report, kPage};
  d.attach(s);
  PresentTableShim shim{s, /*locked=*/false};
  run_mappers(s, shim);
  EXPECT_GE(d.trace().count(trace::RaceKind::Page), 1u);
}

}  // namespace
}  // namespace zc::race

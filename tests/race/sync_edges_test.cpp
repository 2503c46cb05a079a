// The race detector's edges are exactly the program's synchronization: each
// `Mutex`, `Latch`, `Barrier` and `hsa::Signal` synchronization reaches the
// hooks once, as its own kind. The `WaitList` those primitives block on
// adds no second edge, and runtime bookkeeping (pool accounting, watchdog
// registration, circuit-breaker trips) adds none at all, so `WaitList`,
// `Monitor` and `Atomic` never appear.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>

#include "zc/apu/env.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/hsa/signal.hpp"
#include "zc/sim/hooks.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/workloads/qmcpack.hpp"

namespace zc::race {
namespace {

using namespace zc::sim::literals;
using sim::SyncKind;
using trace::FaultEvent;

constexpr std::array<SyncKind, 7> kKinds = {
    SyncKind::Mutex,  SyncKind::Latch,   SyncKind::Barrier, SyncKind::WaitList,
    SyncKind::Signal, SyncKind::Monitor, SyncKind::Atomic,
};

/// Counts release and acquire events per `SyncKind`; ignores the rest.
class EdgeCounter final : public sim::ConcurrencyHooks {
 public:
  [[nodiscard]] std::uint64_t releases(SyncKind k) const {
    return releases_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t acquires(SyncKind k) const {
    return acquires_[static_cast<std::size_t>(k)];
  }

  void on_spawn(int /*parent_id*/, int /*child_id*/) override {}
  void on_finish(int /*thread_id*/) override {}
  void on_release(const void* /*obj*/, SyncKind kind) override {
    ++releases_[static_cast<std::size_t>(kind)];
  }
  void on_acquire(const void* /*obj*/, SyncKind kind) override {
    ++acquires_[static_cast<std::size_t>(kind)];
  }
  void on_lock_acquired(const sim::Mutex& /*m*/) override {}
  int on_task_begin(std::string_view /*what*/, int /*device*/) override {
    return -1;
  }
  void on_task_pages(int /*task*/, std::uint64_t /*first_page*/,
                     std::uint64_t /*pages*/, bool /*is_write*/,
                     std::string_view /*what*/) override {}
  void on_host_pages(std::uint64_t /*first_page*/, std::uint64_t /*pages*/,
                     bool /*is_write*/, std::string_view /*what*/) override {}
  void on_task_acquire(int /*task*/, const void* /*obj*/) override {}
  void on_task_end(int /*task*/, const void* /*completion_obj*/) override {}

 private:
  std::array<std::uint64_t, kKinds.size()> releases_{};
  std::array<std::uint64_t, kKinds.size()> acquires_{};
};

/// Run the threads `spawn` creates with a fresh counter installed, and
/// expect exactly `releases`/`acquires` events of `kind` and none of any
/// other kind.
void expect_one_kind(const std::function<void(sim::Scheduler&)>& spawn,
                     SyncKind kind, std::uint64_t releases,
                     std::uint64_t acquires) {
  SCOPED_TRACE(sim::to_string(kind));
  sim::Scheduler s;
  EdgeCounter counter;
  s.set_hooks(&counter);
  spawn(s);
  s.run();
  s.set_hooks(nullptr);
  for (const SyncKind k : kKinds) {
    EXPECT_EQ(counter.releases(k), k == kind ? releases : 0u)
        << "releases of " << sim::to_string(k);
    EXPECT_EQ(counter.acquires(k), k == kind ? acquires : 0u)
        << "acquires of " << sim::to_string(k);
  }
}

TEST(SyncEdges, EachPrimitiveSynchronizationIsOneEdge) {
  // A contended handoff: the contender blocks, the holder's unlock hands
  // the lock over. Two critical sections, two releases, two acquires.
  sim::Mutex m{"edge-test"};
  expect_one_kind(
      [&](sim::Scheduler& s) {
        s.spawn("holder", [&] {
          m.lock(s);
          s.advance(10_us);
          m.unlock(s);
        });
        s.spawn("contender", [&] {
          s.advance(1_us);
          m.lock(s);
          EXPECT_EQ(s.now().since_start(), 10_us);  // it really blocked
          m.unlock(s);
        });
      },
      SyncKind::Mutex, 2, 2);

  // A waiter that blocks before the latch is set.
  sim::Latch latch;
  expect_one_kind(
      [&](sim::Scheduler& s) {
        s.spawn("waiter", [&] {
          latch.wait(s);
          EXPECT_EQ(s.now().since_start(), 5_us);
        });
        s.spawn("setter", [&] {
          s.advance(5_us);
          latch.set(s);
        });
      },
      SyncKind::Latch, 1, 1);

  // Every arrival releases and every departure acquires.
  sim::Barrier barrier{2};
  expect_one_kind(
      [&](sim::Scheduler& s) {
        s.spawn("early", [&] { barrier.arrive_and_wait(s); });
        s.spawn("late", [&] {
          s.advance(5_us);
          barrier.arrive_and_wait(s);
        });
      },
      SyncKind::Barrier, 2, 2);

  // A signal completed after its waiter blocked on it. Each thread holds
  // a handle, so the signal's state dies with the scheduler it reports to.
  expect_one_kind(
      [](sim::Scheduler& s) {
        hsa::Signal signal;
        s.spawn("waiter", [&s, signal]() mutable {
          EXPECT_EQ(signal.wait(s), 5_us);
        });
        s.spawn("completer", [&s, signal]() mutable {
          s.advance(5_us);
          signal.complete(s, s.now());
        });
      },
      SyncKind::Signal, 1, 1);
}

TEST(SyncEdges, LegacyCopyHangRecoveryEmitsOnlyProgramEdges) {
  // Legacy Copy allocates from the device pool (HBM accounting), and the
  // injected hang registers with the watchdog, trips it and feeds the
  // circuit breaker: every piece of bookkeeping that once emitted an edge.
  const omp::RuntimeConfig cfg = omp::RuntimeConfig::LegacyCopy;
  workloads::QmcpackParams params;
  params.size = 2;
  params.threads = 2;
  params.walkers_per_thread = 2;
  params.steps = 10;
  const workloads::Program program = workloads::make_qmcpack(params);
  apu::Machine::Config config = omp::OffloadStack::machine_config_for(cfg);
  config.env.ompx_apu_faults = "kernel_hang@call=3";
  config.env.watchdog = apu::parse_watchdog("500us:recover");
  omp::OffloadStack stack{std::move(config),
                          omp::OffloadStack::program_for(cfg, program.binary)};
  EdgeCounter counter;
  stack.sched().set_hooks(&counter);
  program.setup_threads(stack);
  stack.sched().run();
  stack.sched().set_hooks(nullptr);

  const trace::FaultTrace& faults = stack.hsa().fault_trace();
  ASSERT_EQ(faults.count(fault::Kind::KernelHang), 1u);
  ASSERT_EQ(faults.count(FaultEvent::WatchdogTrip), 1u);
  ASSERT_EQ(faults.count(FaultEvent::WatchdogRecovered), 1u);
  ASSERT_EQ(stack.omp().breaker(0).total_trips(), 1u);
  ASSERT_GT(stack.hsa().stats().count(trace::HsaCall::MemoryPoolAllocate),
            0u);
  // The program's own synchronization is still seen.
  EXPECT_GT(counter.acquires(SyncKind::Mutex), 0u);
  EXPECT_GT(counter.acquires(SyncKind::Signal), 0u);
  for (const SyncKind k :
       {SyncKind::WaitList, SyncKind::Monitor, SyncKind::Atomic}) {
    EXPECT_EQ(counter.releases(k), 0u) << sim::to_string(k);
    EXPECT_EQ(counter.acquires(k), 0u) << sim::to_string(k);
  }
}

}  // namespace
}  // namespace zc::race

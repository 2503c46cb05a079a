#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "zc/race/prune.hpp"
#include "zc/race/vector_clock.hpp"
#include "zc/sim/hooks.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::apu {
class Machine;
}
namespace zc::sim {
class Scheduler;
}

namespace zc::race {

/// Raised in abort mode when no custom abort handler is installed (the
/// offload stack installs one that raises `omp::OffloadError` instead).
class RaceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FastTrack-style happens-before race detector over the deterministic
/// scheduler (`OMPX_APU_RACE_CHECK=report|abort`).
///
/// The detector implements `sim::ConcurrencyHooks`: it maintains one vector
/// clock per actor (virtual thread or logical device task), joins clocks
/// along every release/acquire edge the program's synchronization emits
/// (spawn/finish, `Mutex`, `Latch`, `Barrier`, `hsa::Signal`, device-task
/// begin/end; a `WaitList` emits none), and checks each page access (kernel
/// buffer accesses, host touches, SDMA copies) against per-page shadow
/// state compressed to epochs: the common same-actor/ordered case is a
/// constant-time comparison, and a full clock copy is only taken when an
/// access must be retained for reporting. A device task forks from its
/// dispatcher's clock, acquires its in-queue dependences, and releases into
/// its completion signal, so a host touch of a page a kernel accessed is a
/// race precisely when no map/copy/kernel-completion edge interposes. A
/// conflicting pair with no happens-before path produces one deterministic
/// `trace::RaceReport` naming both sites, both actors, and both vector
/// clocks; the page is then poisoned so a given bug yields exactly one
/// report per run.
///
/// A lock-order graph rides on the same hooks: it records every nested
/// mutex acquisition and reports a cycle as a potential deadlock even on
/// schedules that never deadlock.
class Detector final : public sim::ConcurrencyHooks {
 public:
  enum class Mode { Report, Abort };

  Detector(Mode mode, std::uint64_t page_bytes);
  ~Detector() override;

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  /// Install this detector as `sched`'s hooks; `detach()` (or destruction)
  /// uninstalls it.
  void attach(sim::Scheduler& sched);
  void detach();

  /// Called with the report just recorded when `mode == Abort`; replaces
  /// the default behavior of throwing `RaceError`.
  void set_abort_handler(std::function<void(const trace::RaceReport&)> f) {
    abort_handler_ = std::move(f);
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] trace::RaceTrace& trace() { return trace_; }
  [[nodiscard]] const trace::RaceTrace& trace() const { return trace_; }

  /// Install the statically proven-safe page set (`report:pruned`): page
  /// stamps covered by the filter skip shadow-state bookkeeping. Clocks and
  /// sync edges are untouched — happens-before transitivity is preserved
  /// for every page that stays instrumented.
  /// Non-owning; pass nullptr to clear. Counters report the split.
  void set_prune_filter(const PruneFilter* filter) { prune_ = filter; }
  [[nodiscard]] std::uint64_t pruned_stamps() const { return pruned_stamps_; }
  [[nodiscard]] std::uint64_t checked_stamps() const {
    return checked_stamps_;
  }

  /// --- sim::ConcurrencyHooks ----------------------------------------------
  void on_spawn(int parent_id, int child_id) override;
  void on_finish(int thread_id) override;
  void on_release(const void* obj, sim::SyncKind kind) override;
  void on_acquire(const void* obj, sim::SyncKind kind) override;
  void on_lock_acquired(const sim::Mutex& m) override;
  int on_task_begin(std::string_view what, int device) override;
  void on_task_pages(int task, std::uint64_t first_page, std::uint64_t pages,
                     bool is_write, std::string_view what) override;
  void on_host_pages(std::uint64_t first_page, std::uint64_t pages,
                     bool is_write, std::string_view what) override;
  void on_task_acquire(int task, const void* obj) override;
  void on_task_end(int task, const void* completion_obj) override;

 private:
  /// One clocked actor: a virtual thread or a logical device task.
  struct Actor {
    VectorClock clock;
    std::string name;
    bool is_task = false;
    bool done = false;  ///< finished thread / ended task: acts no further
    /// Cached immutable snapshot of `clock`, shared by every access
    /// recorded between two clock mutations.
    std::shared_ptr<const VectorClock> snap;
  };

  /// One retained access in a page's shadow state.
  struct Access {
    Epoch epoch;
    bool is_write = false;
    std::string actor;
    std::string site;
    std::shared_ptr<const VectorClock> clock;
  };

  /// Shadow state of one page.
  struct Shadow {
    Access write;               ///< last write (epoch.slot < 0 = none)
    std::vector<Access> reads;  ///< read frontier since the last write
    bool poisoned = false;      ///< already reported; suppress further checks
  };

  [[nodiscard]] int self_slot();  ///< slot of the running thread, -1 if none
  [[nodiscard]] int slot_for_thread(int thread_id);
  [[nodiscard]] Actor& mutate(int slot);  ///< actor with snapshot invalidated
  [[nodiscard]] std::shared_ptr<const VectorClock> snapshot(int slot);

  /// Check one access to `page` against its `shadow` and update it;
  /// reports on conflict.
  void check(Shadow& shadow, std::uint64_t page, int slot, bool is_write,
             std::string_view site);
  /// Check the pages `[first_page, first_page + pages)` accessed by actor
  /// `slot` (a device task or a host thread), skipping the pruned ones.
  void stamp_pages(int slot, std::uint64_t first_page, std::uint64_t pages,
                   bool is_write, std::string_view what);
  /// Record a race on `page`. Only a report builds the page's display
  /// name, so the common no-race stamp allocates no string.
  void report(std::uint64_t page, const Access& prev, const Access& cur);
  [[nodiscard]] std::string page_name(std::uint64_t page) const;

  Mode mode_;
  std::uint64_t page_bytes_;
  const PruneFilter* prune_ = nullptr;
  std::uint64_t pruned_stamps_ = 0;
  std::uint64_t checked_stamps_ = 0;
  sim::Scheduler* sched_ = nullptr;
  std::function<void(const trace::RaceReport&)> abort_handler_;
  trace::RaceTrace trace_;

  std::vector<Actor> actors_;                   ///< indexed by slot
  std::unordered_map<int, int> thread_slot_;    ///< VirtualThread id -> slot
  /// Thread slot -> its most recent task slot, for sequential slot reuse:
  /// when a dispatcher already covers its previous task's epoch (it waited
  /// on the kernel), the next task takes the same slot at value+1. Covering
  /// the new epoch then soundly implies covering every older one on the
  /// slot (each is ordered before its successor), so a dispatch-wait loop
  /// uses one slot forever instead of one per kernel. Unordered in-flight
  /// tasks never reuse — they keep fresh slots and full race sensitivity.
  std::unordered_map<int, int> thread_task_slot_;
  /// Joined clocks of finished threads: a thread spawned outside any
  /// virtual thread (a later `run()` round) is ordered after them.
  VectorClock drain_;
  std::unordered_map<const void*, VectorClock> sync_;  ///< per sync object L
  std::unordered_map<std::uint64_t, Shadow> pages_;

  /// --- retired-task slot GC -----------------------------------------------
  /// Device tasks are born and retired once per kernel dispatch, and every
  /// host thread that waits on a completion signal inherits the task's clock
  /// component — unpruned, clocks grow O(total kernels) and every join turns
  /// quadratic. A retired slot whose epochs no longer appear in any shadow
  /// can never influence a covers() check again, so it is dropped from every
  /// clock (periodically, amortized over task ends).
  std::set<int> retired_;  ///< ended task slots not yet pruned everywhere
  int ends_since_compact_ = 0;
  static constexpr int kCompactEvery = 128;
  void compact();

  /// --- lock-order graph ---------------------------------------------------
  struct LockEdge {
    std::vector<const sim::Mutex*> out;  ///< successors (held -> later)
  };
  std::map<const sim::Mutex*, LockEdge> lock_graph_;
  std::map<std::pair<const sim::Mutex*, const sim::Mutex*>, std::string>
      edge_example_;  ///< "thread 'x' acquired 'b' while holding 'a'"
  std::set<std::string> reported_cycles_;  ///< canonical cycle keys

  [[nodiscard]] bool lock_path(const sim::Mutex* from, const sim::Mutex* to,
                               std::vector<const sim::Mutex*>& path,
                               std::set<const sim::Mutex*>& seen) const;
};

/// Build a detector according to `machine.env().race_check` and attach it
/// to the machine's scheduler; returns null when the mode is off.
[[nodiscard]] std::unique_ptr<Detector> make_detector(apu::Machine& machine);

}  // namespace zc::race

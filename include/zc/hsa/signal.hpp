#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "zc/sim/scheduler.hpp"
#include "zc/sim/time.hpp"

namespace zc::hsa {

/// Completion signal for asynchronous device operations.
///
/// In the simulator an async operation's completion time is computed
/// analytically when it is submitted, so a signal usually just carries that
/// timestamp; waiting advances the waiter's clock. A signal can also be
/// awaited before any operation has been bound to it (cross-thread
/// synchronization), in which case the waiter blocks until `complete()` is
/// called. A hung operation (fault injection) simply never binds a
/// completion time; the watchdog may then `complete_abort` the signal to
/// unblock its waiters.
///
/// Handles are cheap shared references; copying a `Signal` shares state.
class Signal {
 public:
  Signal() : state_{std::make_shared<State>()} {}

  /// Label the signal with the operation it tracks (e.g. "kernel:vmc").
  /// Used by deadlock diagnostics.
  void set_name(std::string name) { state_->name = std::move(name); }
  [[nodiscard]] const std::string& name() const { return state_->name; }

  /// Stable identity of the shared signal state: the object release/acquire
  /// edges are keyed on (`complete*` releases into it, successful waits
  /// acquire from it, and a device task's clock is released into it at
  /// `on_task_end`).
  [[nodiscard]] const void* id() const { return state_.get(); }

  /// Mark complete at virtual time `t` and wake blocked waiters.
  void complete(sim::Scheduler& sched, sim::TimePoint t) {
    state_->complete_at = t;
    if (sim::ConcurrencyHooks* h = sched.hooks()) {
      if (sched.in_thread()) {
        h->on_release(state_.get(), sim::SyncKind::Signal);
      }
    }
    state_->waiters.notify_all(sched, t);
  }

  /// Mark complete *with an error payload* at virtual time `t` (HSA signals
  /// carry a negative value when the async operation failed — e.g. an SDMA
  /// engine error). Waiters wake normally; they must check `errored()`.
  void complete_error(sim::Scheduler& sched, sim::TimePoint t) {
    state_->errored = true;
    complete(sched, t);
  }

  /// Mark the tracked operation aborted at virtual time `t` (the watchdog
  /// tore down its queue). Waiters wake normally; they must check
  /// `aborted()` and decide whether to replay or raise.
  void complete_abort(sim::Scheduler& sched, sim::TimePoint t) {
    state_->aborted = true;
    complete(sched, t);
  }

  [[nodiscard]] bool errored() const { return state_->errored; }
  [[nodiscard]] bool aborted() const { return state_->aborted; }

  [[nodiscard]] bool is_complete() const {
    return state_->complete_at.has_value();
  }
  [[nodiscard]] sim::TimePoint complete_at() const {
    return state_->complete_at.value();
  }

  /// Block/advance the current thread until completion; returns the time
  /// the caller spent blocked.
  sim::Duration wait(sim::Scheduler& sched) {
    const sim::TimePoint before = sched.now();
    if (!state_->complete_at.has_value()) {
      state_->waiters.wait(sched, label());
    }
    sched.advance_to(*state_->complete_at);
    if (sim::ConcurrencyHooks* h = sched.hooks()) {
      h->on_acquire(state_.get(), sim::SyncKind::Signal);
    }
    return sched.now() - before;
  }

  /// Block/advance like `wait`, but give up after `timeout` of virtual
  /// time. Returns true when the signal completed (caller's clock >= the
  /// completion time), false on timeout (caller's clock at the deadline).
  /// A signal already bound to a time at or before the deadline never
  /// times out; completion at exactly the deadline counts as completed.
  [[nodiscard]] bool wait_for(sim::Scheduler& sched, sim::Duration timeout) {
    if (!state_->complete_at.has_value()) {
      if (!state_->waiters.wait_for(sched, timeout, label())) {
        return false;
      }
    } else if (*state_->complete_at > sched.now() + timeout) {
      sched.advance(timeout);
      return false;
    }
    sched.advance_to(*state_->complete_at);
    if (sim::ConcurrencyHooks* h = sched.hooks()) {
      h->on_acquire(state_.get(), sim::SyncKind::Signal);
    }
    return true;
  }

 private:
  struct State {
    std::optional<sim::TimePoint> complete_at;
    bool errored = false;
    bool aborted = false;
    std::string name;
    sim::WaitList waiters;
  };

  [[nodiscard]] std::string label() const {
    return "Signal(" + (state_->name.empty() ? "unnamed" : state_->name) +
           ")";
  }

  std::shared_ptr<State> state_;
};

}  // namespace zc::hsa

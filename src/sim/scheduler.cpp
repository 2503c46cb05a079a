#include "zc/sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace zc::sim {

Scheduler::Scheduler() = default;
// Fiber bodies die first, while every other member is still alive: a body
// may hold an `hsa::Signal`, whose state reports its death to `hooks()`.
Scheduler::~Scheduler() { threads_.clear(); }

VirtualThread& Scheduler::spawn(std::string name, std::function<void()> body) {
  const int id = static_cast<int>(threads_.size());
  auto vt = std::unique_ptr<VirtualThread>(
      new VirtualThread{std::move(name), id});
  VirtualThread* const raw = vt.get();
  if (running_ != nullptr) {
    raw->clock_ = running_->clock_;  // child inherits the spawner's time
  }
  raw->fiber_ = std::make_unique<Fiber>(
      [this, raw, fn = std::move(body)] {
        fn();
        if (!raw->held_.empty()) {
          throw LockDisciplineError(
              "thread '" + raw->name_ + "' finished while holding " +
              std::to_string(raw->held_.size()) + " lock(s)");
        }
        if (hooks_ != nullptr) {
          hooks_->on_finish(raw->id_);
        }
        raw->state_ = VirtualThread::State::Finished;
        horizon_ = max(horizon_, raw->clock_);
      });
  threads_.push_back(std::move(vt));
  push_ready(raw);
  if (hooks_ != nullptr) {
    hooks_->on_spawn(running_ != nullptr ? running_->id_ : -1, id);
  }
  return *raw;
}

// --- ready and timer heaps ----------------------------------------------
//
// Both are std heaps over total orders, so a pop never depends on push
// order. (A thread's stale timer entry may tie with its live one; either
// may surface first, since the stale one is dropped either way.) The
// ready heap only ever sees push and pop-min: a thread enters when it
// becomes runnable (spawn, wake, or yield re-insertion) and leaves only by
// being scheduled. Blocking and finishing happen to the *running* thread,
// which is never in the heap, so arbitrary removal never occurs.

void Scheduler::push_ready(VirtualThread* t) {
  ready_.push_back({t->clock_, t->resched_seq_, t->id_, t});
  std::push_heap(ready_.begin(), ready_.end(), ReadyEntry::later);
}

VirtualThread* Scheduler::pop_ready() {
  std::pop_heap(ready_.begin(), ready_.end(), ReadyEntry::later);
  VirtualThread* const top = ready_.back().thread;
  ready_.pop_back();
  return top;
}

void Scheduler::pop_timer() {
  std::pop_heap(timer_heap_.begin(), timer_heap_.end(), TimerEntry::later);
  timer_heap_.pop_back();
}

const Scheduler::TimerEntry* Scheduler::timer_top() {
  while (!timer_heap_.empty()) {
    const TimerEntry& e = timer_heap_.front();
    if (e.gen == e.thread->timer_gen_) {
      return &e;
    }
    pop_timer();  // stale: the wait was signaled before the deadline
  }
  return nullptr;
}

// --- policy cross-check (pre-refactor reference scans) -------------------

VirtualThread* Scheduler::reference_pick() const {
  VirtualThread* best = nullptr;
  for (const auto& t : threads_) {
    if (t->state_ != VirtualThread::State::Runnable) {
      continue;
    }
    if (best == nullptr || ready_before(t.get(), best)) {
      best = t.get();
    }
  }
  return best;
}

void Scheduler::check_pick(VirtualThread* chosen) const {
  VirtualThread* const ref = reference_pick();
  if (ref != chosen) {
    throw SimError(
        "policy check: ready heap picked '" +
        (chosen != nullptr ? chosen->name_ : std::string{"<none>"}) +
        "' but the reference scan picked '" +
        (ref != nullptr ? ref->name_ : std::string{"<none>"}) + "'");
  }
}

void Scheduler::check_stress_bucket(
    const std::vector<VirtualThread*>& bucket) const {
  std::vector<VirtualThread*> ref;
  for (const auto& t : threads_) {
    if (t->state_ != VirtualThread::State::Runnable) {
      continue;
    }
    if (ref.empty() || t->clock_ < ref.front()->clock_) {
      ref.clear();
      ref.push_back(t.get());
    } else if (t->clock_ == ref.front()->clock_) {
      ref.push_back(t.get());
    }
  }
  if (ref != bucket) {
    throw SimError("policy check: stress tie bucket diverged from the "
                   "reference scan (" +
                   std::to_string(bucket.size()) + " vs " +
                   std::to_string(ref.size()) + " threads)");
  }
}

void Scheduler::check_timer_decision(bool fired, TimePoint due) const {
  bool any_runnable = false;
  TimePoint min_run;
  bool any_timer = false;
  TimePoint min_wake;
  for (const auto& t : threads_) {
    if (t->state_ == VirtualThread::State::Runnable &&
        (!any_runnable || t->clock_ < min_run)) {
      min_run = t->clock_;
      any_runnable = true;
    }
    if (t->state_ == VirtualThread::State::Blocked && t->wake_at_ &&
        (!any_timer || *t->wake_at_ < min_wake)) {
      min_wake = *t->wake_at_;
      any_timer = true;
    }
  }
  const bool ref_fires = any_timer && !(any_runnable && min_run < min_wake);
  if (ref_fires != fired || (fired && due != min_wake)) {
    throw SimError("policy check: timer-heap fire decision diverged from "
                   "the reference scan");
  }
}

// --- scheduling core -----------------------------------------------------

VirtualThread* Scheduler::pick_next() {
  if (ready_.empty()) {
    return nullptr;
  }
  if (stress_) {
    // Stress mode: the min-clock policy still decides *which clocks* may
    // run, but ties are broken uniformly at random from the seeded stream.
    // Pop the whole equal-clock bucket and restore spawn order (the pops
    // surface in (seq, id) order) so the uniform draw lands on the same
    // thread the pre-refactor spawn-order scan would have offered.
    const TimePoint min_clock = ready_.front().clock;
    tie_bucket_.clear();
    while (!ready_.empty() && ready_.front().clock == min_clock) {
      tie_bucket_.push_back(pop_ready());
    }
    std::sort(tie_bucket_.begin(), tie_bucket_.end(),
              [](const VirtualThread* a, const VirtualThread* b) {
                return a->id_ < b->id_;
              });
    if (policy_check_) {
      check_stress_bucket(tie_bucket_);
    }
    const std::size_t idx = stress_rng_.uniform_index(tie_bucket_.size());
    VirtualThread* const chosen = tie_bucket_[idx];
    for (VirtualThread* t : tie_bucket_) {
      if (t != chosen) {
        push_ready(t);
      }
    }
    return chosen;
  }
  if (policy_check_) {
    check_pick(ready_.front().thread);
  }
  return pop_ready();
}

void Scheduler::enable_stress(std::uint64_t seed) {
  stress_ = true;
  stress_rng_ = Rng{seed};
}

void Scheduler::stress_point() {
  if (!stress_ || running_ == nullptr) {
    return;
  }
  // Half the time, hand the CPU back to the scheduler so an equal-clock
  // peer may be drawn; the other half, proceed — both orders are explored
  // across seeds.
  if (stress_rng_.bernoulli(0.5)) {
    Fiber::yield();
  }
}

bool Scheduler::fire_due_timers() {
  // A timer may only fire when no runnable thread has a strictly smaller
  // clock — otherwise that thread must run first to keep the schedule
  // time-ordered. Wake every timed-blocked thread sharing the earliest due
  // deadline; ties among the woken threads are then broken by the normal
  // pick_next policy (all wake at the deadline with resched_seq 0, so the
  // heap orders them by spawn id exactly as the linear scan did).
  const TimerEntry* const top = timer_top();
  if (top == nullptr ||
      (!ready_.empty() && ready_.front().clock < top->due)) {
    if (policy_check_) {
      check_timer_decision(false, TimePoint{});
    }
    return false;
  }
  const TimePoint due = top->due;
  if (policy_check_) {
    check_timer_decision(true, due);
  }
  while (const TimerEntry* e = timer_top()) {
    if (e->due != due) {
      break;
    }
    VirtualThread* const t = e->thread;
    pop_timer();
    t->state_ = VirtualThread::State::Runnable;
    t->timed_out_ = true;
    t->clock_ = max(t->clock_, due);
    t->wake_at_.reset();
    if (t->waiting_in_ != nullptr) {
      t->waiting_in_->remove_waiter(*t);
      t->waiting_in_ = nullptr;
    }
    t->wait_what_.clear();
    horizon_ = max(horizon_, t->clock_);
    ++events_;
    push_ready(t);
  }
  return true;
}

void Scheduler::run() {
  if (in_run_) {
    throw SimError("Scheduler::run is not reentrant");
  }
  in_run_ = true;
  while (true) {
    // No live timer can fire from an empty heap; skip the call in the
    // common all-runnable regime (the policy check still exercises the
    // full decision path when enabled).
    if (!timer_heap_.empty() || policy_check_) {
      fire_due_timers();
    }
    VirtualThread* const next = pick_next();
    if (next == nullptr) {
      bool any_blocked = false;
      std::string blocked;
      for (const auto& t : threads_) {
        if (t->state_ == VirtualThread::State::Blocked) {
          any_blocked = true;
          if (!blocked.empty()) {
            blocked += "; ";
          }
          blocked += "'" + t->name_ + "' on " +
                     (t->wait_what_.empty() ? std::string{"<unknown>"}
                                            : t->wait_what_);
        }
      }
      in_run_ = false;
      if (any_blocked) {
        throw SimError("simulation deadlock: blocked threads remain (" +
                       blocked + ")");
      }
      return;  // all finished
    }
    running_ = next;
    next->resched_seq_ = 0;  // the deprioritization is one-shot
    ++events_;
    try {
      next->fiber_->resume();
    } catch (...) {
      running_ = nullptr;
      in_run_ = false;
      throw;
    }
    running_ = nullptr;
    if (next->fiber_->finished()) {
      next->fiber_->recycle_stack();  // its stack is dead: free it now
    } else if (next->state_ == VirtualThread::State::Runnable) {
      push_ready(next);  // yielded (advance/reschedule), still runnable
    }
    // else: blocked — it re-enters the heap via wake() or a timer firing.
  }
}

void Scheduler::sleep_for(Duration d) {
  if (d.is_negative()) {
    throw SimError("Scheduler::sleep_for: negative duration");
  }
  VirtualThread& self = current();
  if (d.is_zero()) {
    maybe_yield();
    return;
  }
  self.wake_at_ = self.clock_ + d;
  self.wait_what_ = "sleep_for";
  block_current();
  self.timed_out_ = false;  // the deadline firing *is* the normal wakeup
}

void Scheduler::reschedule() {
  VirtualThread& self = current();
  self.resched_seq_ = ++resched_epoch_;
  Fiber::yield();
}

void Scheduler::maybe_yield() {
  // Keep running while we are still (one of) the minimum-clock runnable
  // threads. O(1): the ready heap's top is the only candidate that could
  // preempt us, and the timer heap's top is the only deadline that could
  // be due. Under stress, an equal-clock tie is a coin-flip preemption
  // opportunity instead (same draw sequence as the pre-refactor scan).
  VirtualThread& self = *running_;
  // A timed-blocked thread whose deadline is due must be woken by the run
  // loop before we may proceed past it in time.
  if (const TimerEntry* e = timer_top();
      e != nullptr && e->due <= self.clock_) {
    Fiber::yield();
    return;
  }
  if (ready_.empty()) {
    return;
  }
  const ReadyEntry& top = ready_.front();
  if (top.clock < self.clock_) {
    Fiber::yield();
    return;
  }
  if (top.clock != self.clock_) {
    return;
  }
  if (stress_) {
    if (stress_rng_.bernoulli(0.5)) {
      Fiber::yield();
    }
    return;
  }
  // self.resched_seq_ is 0 (reset when scheduled), so an equal-clock peer
  // precedes us exactly when it never rescheduled and has a smaller id —
  // and any such peer would be the heap top.
  if (top.seq == 0 && top.id < self.id_) {
    Fiber::yield();
  }
}

void Scheduler::block_current() {
  VirtualThread& self = current();
  self.state_ = VirtualThread::State::Blocked;
  if (self.wake_at_) {
    timer_heap_.push_back({*self.wake_at_, ++self.timer_gen_, &self});
    std::push_heap(timer_heap_.begin(), timer_heap_.end(), TimerEntry::later);
  }
  Fiber::yield();
}

void Scheduler::wake(VirtualThread& t, TimePoint at_least) {
  if (t.state_ != VirtualThread::State::Blocked) {
    throw SimError("Scheduler::wake: thread '" + t.name_ + "' is not blocked");
  }
  t.state_ = VirtualThread::State::Runnable;
  t.clock_ = max(t.clock_, at_least);
  // Signaled before any armed deadline fired: disarm the timer (the heap
  // entry goes stale and is skipped when it surfaces).
  if (t.wake_at_) {
    ++t.timer_gen_;
    t.wake_at_.reset();
  }
  t.waiting_in_ = nullptr;
  t.wait_what_.clear();
  horizon_ = max(horizon_, t.clock_);
  push_ready(&t);
}

void WaitList::wait(Scheduler& sched, std::string_view what) {
  // The stress point yields after the caller checked its condition but
  // before this thread is listed: a notify in between is its wakeup.
  const std::uint64_t seen = notifies_;
  sched.stress_point();  // wait points are where real schedules diverge
  if (notifies_ == seen) {
    VirtualThread& self = sched.current();
    self.waiting_in_ = this;
    self.wait_what_ = what;
    self.wait_slot_ = waiters_.size();
    waiters_.push_back(&self);
    sched.block_current();
  } else {
    sched.advance_to(last_notify_at_);
  }
}

bool WaitList::wait_for(Scheduler& sched, Duration timeout,
                        std::string_view what) {
  const std::uint64_t seen = notifies_;  // as in `wait`
  sched.stress_point();
  VirtualThread& self = sched.current();
  if (timeout <= Duration::zero()) {
    return false;  // deadline already passed; do not block
  }
  bool timed_out = false;
  if (notifies_ == seen) {
    self.waiting_in_ = this;
    self.wait_what_ = what;
    self.wake_at_ = sched.now() + timeout;
    self.timed_out_ = false;
    self.wait_slot_ = waiters_.size();
    waiters_.push_back(&self);
    sched.block_current();
    timed_out = std::exchange(self.timed_out_, false);
  } else {
    sched.advance_to(last_notify_at_);
  }
  return !timed_out;
}

void WaitList::remove_waiter(VirtualThread& t) {
  const std::size_t slot = t.wait_slot_;
  VirtualThread* const back = waiters_.back();
  waiters_[slot] = back;
  back->wait_slot_ = slot;
  waiters_.pop_back();
}

void WaitList::notify_all(Scheduler& sched, TimePoint at_least) {
  ++notifies_;
  last_notify_at_ = at_least;
  // wake() never re-enters this list (woken threads only run after the
  // yield below), so waking in place and clearing keeps the vector's
  // capacity for the next round instead of reallocating per notify.
  for (VirtualThread* w : waiters_) {
    sched.wake(*w, at_least);
  }
  waiters_.clear();
  // If a woken thread now has a smaller clock than the notifier, hand over.
  if (sched.in_thread()) {
    sched.maybe_yield();
  }
}

void WaitList::notify_one(Scheduler& sched, VirtualThread* target,
                          TimePoint at_least) {
  ++notifies_;
  last_notify_at_ = at_least;
  if (target != nullptr) {
    remove_waiter(*target);
    sched.wake(*target, at_least);
  }
  if (sched.in_thread()) {
    sched.maybe_yield();
  }
}

VirtualThread* WaitList::pick_waiter(Scheduler& sched, TimePoint at) {
  if (waiters_.empty()) {
    return nullptr;
  }
  if (sched.stress_enabled()) {
    if (waiters_.size() == 1) {
      return waiters_.front();
    }
    return waiters_[sched.stress_rng_.uniform_index(waiters_.size())];
  }
  // The waiter the pre-handoff barging race would have crowned: everyone
  // woke at max(own clock, notify time) and re-contended in id order, so
  // minimum (wake clock, id) won.
  VirtualThread* best = waiters_.front();
  TimePoint best_wake = max(best->clock_, at);
  for (std::size_t i = 1; i < waiters_.size(); ++i) {
    VirtualThread* const w = waiters_[i];
    const TimePoint wake = max(w->clock_, at);
    if (wake < best_wake || (wake == best_wake && w->id_ < best->id_)) {
      best = w;
      best_wake = wake;
    }
  }
  return best;
}

}  // namespace zc::sim

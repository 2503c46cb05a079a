#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "zc/sim/fiber.hpp"
#include "zc/sim/hooks.hpp"
#include "zc/sim/rng.hpp"
#include "zc/sim/time.hpp"

namespace zc::sim {

class Scheduler;
class Mutex;
class WaitList;

/// Error raised for simulation misuse (deadlock, op outside a thread, ...).
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Error raised by the lock-discipline checker: guarded state touched
/// without its mutex, recursive locking, unlocking from a non-owner thread,
/// or a thread finishing while still holding locks. Always a bug in the
/// modeled runtime, never a property of the workload.
class LockDisciplineError : public SimError {
 public:
  using SimError::SimError;
};

/// A simulated host thread: a fiber plus a private virtual clock.
class VirtualThread {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] TimePoint now() const { return clock_; }
  [[nodiscard]] bool finished() const { return fiber_ && fiber_->finished(); }

  /// Locks currently held by this thread, in acquisition order (the
  /// lock-discipline checker's per-thread held-lock set).
  [[nodiscard]] const std::vector<const Mutex*>& held_locks() const {
    return held_;
  }
  [[nodiscard]] bool holds(const Mutex& m) const;

 private:
  friend class Scheduler;
  friend class WaitList;
  friend class Mutex;

  enum class State { Runnable, Blocked, Finished };

  VirtualThread(std::string name, int id) : name_{std::move(name)}, id_{id} {}

  std::string name_;
  int id_;
  TimePoint clock_;
  State state_ = State::Runnable;
  /// Reschedule epoch: 0 while the thread has not called `reschedule()`
  /// since it was last scheduled; otherwise the global epoch at which it
  /// deprioritized itself. Equal-clock ties run never-rescheduled threads
  /// first (spawn order), then rescheduled threads oldest-epoch-first, so
  /// mutual `reschedule()` rotates the CPU fairly instead of letting spawn
  /// order re-pick the same thread. One-shot: reset to 0 when scheduled.
  std::uint64_t resched_seq_ = 0;
  /// Generation counter for this thread's entry in the scheduler's timer
  /// heap; bumping it lazily invalidates a stale heap entry (DESIGN.md §12).
  std::uint64_t timer_gen_ = 0;
  /// Index of this thread in waiting_in_->waiters_, kept current so a
  /// timeout removes the waiter with one O(1) swap instead of an O(n) scan.
  std::size_t wait_slot_ = 0;
  // --- timed-wait bookkeeping (the scheduler's timer wheel) ---
  std::optional<TimePoint> wake_at_;  // armed deadline while blocked
  bool timed_out_ = false;            // set when the deadline fired
  WaitList* waiting_in_ = nullptr;    // list to drop out of on timeout
  /// While blocked, a short label for the primitive this thread waits on
  /// (e.g. "Mutex(present-table)", "Signal(kernel:vmc)"); empty otherwise.
  /// Surfaced by the deadlock diagnostic in `Scheduler::run`.
  std::string wait_what_;
  std::vector<const Mutex*> held_;
  std::unique_ptr<Fiber> fiber_;
};

/// Deterministic discrete-event scheduler for virtual threads.
///
/// Policy: always execute the runnable thread with the smallest clock
/// (ties broken by spawn order). A running thread keeps executing as long
/// as its clock stays minimal; when `advance()` pushes it past another
/// runnable thread's clock it is suspended and the new minimum runs. The
/// result is a deterministic interleaving equivalent to time-ordered event
/// execution, while upper layers (HSA runtime, OpenMP runtime, workloads)
/// are written as ordinary blocking code.
///
/// All simulated work must run inside threads created with `spawn()`; the
/// scheduling operations (`advance`, `advance_to`, ...) throw `SimError`
/// when called from outside.
class Scheduler {
 public:
  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a virtual thread. May be called before `run()` or from inside a
  /// running thread (the child starts at the spawner's current clock).
  VirtualThread& spawn(std::string name, std::function<void()> body);

  /// Run until every thread has finished. Throws SimError on deadlock
  /// (all remaining threads blocked) and propagates the first exception
  /// escaping any thread body.
  void run();

  /// Convenience: spawn a single thread and run the simulation.
  void run_single(std::function<void()> body) {
    spawn("main", std::move(body));
    run();
  }

  /// --- operations available inside virtual threads ---

  /// The currently executing virtual thread (throws if none).
  [[nodiscard]] VirtualThread& current() {
    if (running_ == nullptr) {
      throw SimError("no virtual thread is running");
    }
    return *running_;
  }
  [[nodiscard]] const VirtualThread& current() const {
    if (running_ == nullptr) {
      throw SimError("no virtual thread is running");
    }
    return *running_;
  }
  [[nodiscard]] bool in_thread() const { return running_ != nullptr; }

  /// Clock of the current thread.
  [[nodiscard]] TimePoint now() const { return current().clock_; }

  /// Move the current thread's clock forward by `d` (>= 0).
  void advance(Duration d) {
    if (d.is_negative()) {
      throw SimError("Scheduler::advance: negative duration");
    }
    VirtualThread& self = current();
    self.clock_ += d;
    if (self.clock_ > horizon_) {
      horizon_ = self.clock_;
    }
    maybe_yield();
  }

  /// Move the current thread's clock to `t` if `t` is later.
  void advance_to(TimePoint t) {
    VirtualThread& self = current();
    if (t > self.clock_) {
      self.clock_ = t;
      if (self.clock_ > horizon_) {
        horizon_ = self.clock_;
      }
    }
    maybe_yield();
  }

  /// Block the current thread until virtual time `now() + d`; other threads
  /// run in the meantime. Equivalent to `advance(d)` for the caller's clock,
  /// but routed through the timer wheel, so it composes with timed waits
  /// and never starves lower-clock peers.
  void sleep_for(Duration d);

  /// Give other threads with equal clocks a chance to run.
  void reschedule();

  /// --- interleaving stress mode ---

  /// Perturb ready-thread order with a seeded RNG: scheduling ties (equal
  /// clocks) are broken uniformly at random instead of by spawn order, and
  /// lock/wait perturbation points (`stress_point`) may yield. The timing
  /// model is untouched — only the order among equal-clock threads changes,
  /// so every stressed schedule is a valid interleaving (min-clock policy
  /// holds) and a given seed reproduces the same schedule bit-for-bit.
  /// Call before `run()`.
  void enable_stress(std::uint64_t seed);
  [[nodiscard]] bool stress_enabled() const { return stress_; }

  /// Debug cross-check for the ready-heap refactor: every scheduling
  /// decision additionally runs the pre-refactor O(n) reference scan over
  /// all threads and throws SimError if the heap disagrees — the online
  /// half of the differential equivalence harness
  /// (tests/sim/scheduler_equiv_test.cpp). Call before `run()`; costs the
  /// old linear-scan time per switch, so never enable it in benchmarks.
  void enable_policy_check() { policy_check_ = true; }

  /// Under stress mode, randomly hand the CPU to an equal-clock peer.
  /// Called by `Mutex::lock` and `WaitList::wait` to widen interleaving
  /// coverage exactly where real thread schedules diverge; a no-op when
  /// stress mode is off or no thread is running.
  void stress_point();

  /// --- concurrency observation ---

  /// Install (or clear, with nullptr) the observer notified of thread
  /// lifecycle events, release/acquire edges, and instrumented accesses.
  /// The observer must outlive the scheduler's use of it. Null — the
  /// default — keeps every primitive on its uninstrumented fast path.
  void set_hooks(ConcurrencyHooks* hooks) { hooks_ = hooks; }
  [[nodiscard]] ConcurrencyHooks* hooks() const { return hooks_; }

  /// --- whole-simulation queries ---

  /// Max clock over all threads ever run (the simulation makespan so far).
  [[nodiscard]] TimePoint horizon() const { return horizon_; }

  /// Count of discrete scheduler events so far: every context switch (a
  /// fiber resume) and every timer firing. The `bench/micro_des` events/sec
  /// metric divides this by host wall-clock — it is the DES analogue of
  /// "committed instructions" and is schedule-deterministic, so identical
  /// runs report identical event counts.
  [[nodiscard]] std::uint64_t events() const { return events_; }

  [[nodiscard]] const VirtualThread& thread(std::size_t i) const {
    return *threads_.at(i);
  }

 private:
  friend class WaitList;

  /// Entry in the lazy-deletion timer heap: `gen` snapshots the thread's
  /// timer generation at arm time; a disarm (signal before deadline) bumps
  /// the generation, turning this entry stale. Stale entries are skipped
  /// when they surface at the top — no O(n) removal ever happens.
  struct TimerEntry {
    TimePoint due;
    std::uint64_t gen;
    VirtualThread* thread;

    /// Heap order: earliest deadline first, equal deadlines by thread id,
    /// so the timed-out waiters of one deadline leave their wait lists in
    /// id order.
    [[nodiscard]] static bool later(const TimerEntry& a, const TimerEntry& b) {
      if (a.due != b.due) {
        return b.due < a.due;
      }
      return b.thread->id() < a.thread->id();
    }
  };

  void block_current();
  void wake(VirtualThread& t, TimePoint at_least);
  void maybe_yield();
  [[nodiscard]] VirtualThread* pick_next();
  /// Wake every timed-blocked thread whose deadline is due (no runnable
  /// thread has a strictly smaller clock). Returns true if any fired.
  bool fire_due_timers();

  /// Ready-heap entry. The ordering key (clock, resched_seq, id) — min
  /// clock first, ties prefer never-rescheduled threads in spawn order,
  /// then rescheduled threads oldest-epoch-first — is snapshotted at push
  /// time so sift compares touch contiguous memory instead of chasing
  /// thread pointers. The snapshot is exact, not approximate: all three
  /// fields are immutable while a thread sits in the heap (only the
  /// *running* thread mutates its own clock/seq, and it is never in the
  /// heap), so no re-sift or refresh is ever needed.
  struct ReadyEntry {
    TimePoint clock;
    std::uint64_t seq;
    int id;
    VirtualThread* thread;

    [[nodiscard]] bool before(const ReadyEntry& o) const {
      if (clock != o.clock) {
        return clock < o.clock;
      }
      if (seq != o.seq) {
        return seq < o.seq;
      }
      return id < o.id;
    }
    /// Heap order: std heaps keep the greatest element on top.
    [[nodiscard]] static bool later(const ReadyEntry& a, const ReadyEntry& b) {
      return b.before(a);
    }
  };

  [[nodiscard]] static bool ready_before(const VirtualThread* a,
                                         const VirtualThread* b) {
    if (a->clock_ != b->clock_) {
      return a->clock_ < b->clock_;
    }
    if (a->resched_seq_ != b->resched_seq_) {
      return a->resched_seq_ < b->resched_seq_;
    }
    return a->id_ < b->id_;
  }

  void push_ready(VirtualThread* t);
  VirtualThread* pop_ready();
  void pop_timer();
  /// Smallest live (non-stale) timer entry, or nullptr; pops stale entries.
  [[nodiscard]] const TimerEntry* timer_top();

  // --- policy-check reference implementations (pre-refactor O(n) scans) --
  [[nodiscard]] VirtualThread* reference_pick() const;
  void check_pick(VirtualThread* chosen) const;
  void check_stress_bucket(const std::vector<VirtualThread*>& bucket) const;
  void check_timer_decision(bool fired, TimePoint due) const;

  std::vector<std::unique_ptr<VirtualThread>> threads_;
  std::vector<ReadyEntry> ready_;          // std heap by ReadyEntry::later
  std::vector<TimerEntry> timer_heap_;     // std heap by TimerEntry::later
  std::vector<VirtualThread*> tie_bucket_; // scratch for stress-mode picks
  VirtualThread* running_ = nullptr;
  TimePoint horizon_;
  std::uint64_t events_ = 0;
  bool in_run_ = false;
  bool policy_check_ = false;
  std::uint64_t resched_epoch_ = 0;  // ticks on every reschedule() call
  bool stress_ = false;
  Rng stress_rng_{0};
  ConcurrencyHooks* hooks_ = nullptr;
};

/// A list of threads blocked waiting for an event another thread will post.
///
/// Used for cross-thread dependencies whose completion time is not yet
/// known (e.g. an HSA signal that no operation has been bound to yet).
///
/// A wait list is a scheduling mechanism, not synchronization: it emits no
/// `ConcurrencyHooks` event, so a notify orders nothing for the race
/// detector. A user that hands data to the threads it wakes must pair the
/// list with a primitive that does emit a release/acquire edge (`Mutex`,
/// `Latch`, `Barrier`, `hsa::Signal` all carry their own).
class WaitList {
 public:
  /// Block the current thread until `notify_all` is called.
  /// On wakeup the thread's clock is at least the notifier-supplied time.
  /// `what` labels the wait in deadlock diagnostics. A notify during the
  /// stress-mode yield before listing is the wakeup: callers re-check.
  void wait(Scheduler& sched, std::string_view what = "WaitList");

  /// Block like `wait`, but give up after `timeout` of virtual time.
  /// Returns true when notified, false when the deadline fired first (the
  /// caller's clock is then exactly at the deadline, and it no longer
  /// occupies a slot in the list). A non-positive timeout returns false
  /// immediately without blocking.
  [[nodiscard]] bool wait_for(Scheduler& sched, Duration timeout,
                              std::string_view what = "WaitList");

  /// Wake all waiters; each resumes with clock >= `at_least`.
  void notify_all(Scheduler& sched, TimePoint at_least);

  /// Wake exactly `target` (which must be a current waiter), or nobody when
  /// null. Runs the same post-notify `maybe_yield` as `notify_all`, so an
  /// empty notify is still a scheduling point. The wake-one half of the
  /// Mutex direct handoff.
  void notify_one(Scheduler& sched, VirtualThread* target, TimePoint at_least);

  /// Handoff policy: the waiter that would have won the pre-handoff barging
  /// race — minimum (wake clock, id), where the wake clock is
  /// max(waiter clock, `at`). Under stress mode a seeded uniform draw picks
  /// instead. Null when no one waits. Does not modify the list.
  [[nodiscard]] VirtualThread* pick_waiter(Scheduler& sched, TimePoint at);

  [[nodiscard]] bool empty() const { return waiters_.empty(); }
  [[nodiscard]] std::size_t size() const { return waiters_.size(); }

 private:
  friend class Scheduler;  // timeout path removes the waiter in-place

  /// O(1) removal: swap the last waiter into `t`'s slot (wait_slot_ keeps
  /// every waiter's index current).
  void remove_waiter(VirtualThread& t);

  std::vector<VirtualThread*> waiters_;
  std::uint64_t notifies_ = 0;  ///< notify_all/notify_one calls so far
  TimePoint last_notify_at_;     ///< `at_least` of the latest notify
};

/// A one-shot latch: threads that `wait` before `set` block; waits after
/// `set` just synchronize the clock to the set time.
class Latch {
 public:
  /// Mark the event set at the caller's current time and wake waiters.
  void set(Scheduler& sched) {
    set_ = true;
    at_ = sched.now();
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_release(this, SyncKind::Latch);
    }
    waiters_.notify_all(sched, at_);
  }

  /// Block until set; on return the caller's clock is >= the set time.
  void wait(Scheduler& sched) {
    sched.stress_point();  // latch waits are schedule-divergence points too
    if (!set_) {
      waiters_.wait(sched, "Latch");
    }
    sched.advance_to(at_);
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_acquire(this, SyncKind::Latch);
    }
  }

  /// Block until set or until `timeout` elapses. Returns true when the
  /// latch was set (clock >= set time), false on timeout (clock exactly at
  /// the deadline).
  [[nodiscard]] bool wait_for(Scheduler& sched, Duration timeout) {
    sched.stress_point();
    if (!set_ && !waiters_.wait_for(sched, timeout, "Latch")) {
      return false;
    }
    sched.advance_to(at_);
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_acquire(this, SyncKind::Latch);
    }
    return true;
  }

  [[nodiscard]] bool is_set() const { return set_; }

 private:
  bool set_ = false;
  TimePoint at_;
  WaitList waiters_;
};

/// A fiber mutex: lock() blocks (cooperatively) while another virtual
/// thread holds it — including across that thread's time-advancing
/// operations. Used for critical sections that span multiple modeled
/// operations (e.g. a mapping-table transaction that performs a device
/// allocation in the middle).
///
/// The mutex tracks its owning thread and maintains each thread's held-lock
/// set, which makes lock-discipline violations (recursive locking, foreign
/// unlock, finishing while holding, touching guarded state without the
/// guard — see `assert_held` / `GuardedBy`) hard runtime errors.
class Mutex {
 public:
  /// `name` labels the mutex in deadlock diagnostics; it must outlive the
  /// mutex (string literals do).
  explicit Mutex(const char* name = "mutex")
      : name_{name}, label_{std::string{"Mutex("} + name + ")"} {}

  void lock(Scheduler& sched) {
    sched.stress_point();
    VirtualThread& self = sched.current();
    if (owner_ == &self) {
      throw LockDisciplineError("Mutex::lock: recursive lock by thread '" +
                                self.name() + "'");
    }
    // Direct handoff: unlock() transfers ownership to the waiter it wakes,
    // so being woken means the lock is already ours (no barging herd) —
    // unless a stress-mode wakeup (`WaitList::wait`) found it free.
    while (owner_ != nullptr && owner_ != &self) {
      waiters_.wait(sched, label());
    }
    owner_ = &self;
    self.held_.push_back(this);
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_acquire(this, SyncKind::Mutex);
      h->on_lock_acquired(*this);
    }
  }

  /// Try to acquire the lock, giving up after `timeout` of virtual time.
  /// Returns true with the lock held, or false with the caller's clock at
  /// the deadline and the lock not held. Recursive acquisition is still a
  /// lock-discipline error.
  [[nodiscard]] bool try_lock_for(Scheduler& sched, Duration timeout) {
    sched.stress_point();
    VirtualThread& self = sched.current();
    if (owner_ == &self) {
      throw LockDisciplineError(
          "Mutex::try_lock_for: recursive lock by thread '" + self.name() +
          "'");
    }
    const TimePoint deadline = sched.now() + timeout;
    // A handoff can only reach us before our deadline fires (the timer
    // wheel wakes expired waiters out of the list first), so waking with
    // ownership and timing out are mutually exclusive; the loop guard
    // covers a stress-mode wakeup that finds the lock free or re-taken.
    while (owner_ != nullptr && owner_ != &self) {
      const Duration left = deadline - sched.now();
      if (left <= Duration::zero() ||
          !waiters_.wait_for(sched, left, label())) {
        return false;
      }
    }
    owner_ = &self;
    self.held_.push_back(this);
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_acquire(this, SyncKind::Mutex);
      h->on_lock_acquired(*this);
    }
    return true;
  }

  void unlock(Scheduler& sched) {
    if (owner_ == nullptr) {
      throw SimError("Mutex::unlock: not locked");
    }
    VirtualThread& self = sched.current();
    if (owner_ != &self) {
      throw LockDisciplineError("Mutex::unlock: thread '" + self.name() +
                                "' is not the owner (held by '" +
                                owner_->name() + "')");
    }
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_release(this, SyncKind::Mutex);
    }
    std::erase(self.held_, this);
    // Wake-one direct handoff: ownership transfers to the chosen waiter
    // before it runs, so the herd of losers stays blocked instead of all
    // waking to re-contend (the O(waiters²) churn this replaces).
    VirtualThread* const next = waiters_.pick_waiter(sched, sched.now());
    owner_ = next;  // nullptr when nobody waits
    waiters_.notify_one(sched, next, sched.now());
  }

  [[nodiscard]] bool held() const { return owner_ != nullptr; }
  [[nodiscard]] bool held_by(const VirtualThread& t) const {
    return owner_ == &t;
  }
  /// Owning thread, or nullptr when unlocked.
  [[nodiscard]] const VirtualThread* owner() const { return owner_; }
  [[nodiscard]] const char* name() const { return name_; }

 private:
  /// Built once at construction: contended lock() assigns this into the
  /// waiter's diagnostic label on every wait, and rebuilding the string
  /// per wait was a measurable allocation cost on the DES hot path.
  [[nodiscard]] const std::string& label() const { return label_; }

  const char* name_;
  std::string label_;
  VirtualThread* owner_ = nullptr;
  WaitList waiters_;
};

inline bool VirtualThread::holds(const Mutex& m) const {
  return m.held_by(*this);
}

/// Lock-discipline assertion: the calling virtual thread must hold `m`.
///
/// Outside any virtual thread (after `run()` drained, i.e. post-run
/// introspection of results) there is no concurrency and the check passes.
/// Inside a thread, accessing guarded state without the guard throws
/// `LockDisciplineError` — deterministically, on the first unguarded
/// access, regardless of whether the interleaving at hand would have
/// corrupted anything.
inline void assert_held(const Mutex& m, Scheduler& sched,
                        const char* what = nullptr) {
  if (!sched.in_thread()) {
    return;
  }
  const VirtualThread& self = sched.current();
  if (m.held_by(self)) {
    return;
  }
  throw LockDisciplineError(
      std::string{"lock discipline violation: "} +
      (what != nullptr ? what : "guarded state") + " accessed by thread '" +
      self.name() + "' without holding its mutex");
}

/// Shared state bound to the `Mutex` that guards it: every `get()` asserts
/// the calling thread holds the guard (see `assert_held`). The wrapper is
/// what turns the locking convention into a machine-checked invariant —
/// forgetting the `LockGuard` around an access fails loudly and
/// deterministically instead of silently racing.
template <typename T>
class GuardedBy {
 public:
  /// `what` names the state in violation messages; it must outlive the
  /// wrapper (string literals do).
  template <typename... Args>
  explicit GuardedBy(Mutex& m, const char* what, Args&&... args)
      : m_{&m}, what_{what}, value_{std::forward<Args>(args)...} {}

  GuardedBy(const GuardedBy&) = delete;
  GuardedBy& operator=(const GuardedBy&) = delete;

  // get() emits no race-detector event. assert_held proves every access
  // happens under the one mutex bound at construction, and the mutex's
  // release/acquire hooks order all critical sections — so a happens-before
  // check on these accesses could never fire. The detector checks pages
  // only: host touches, kernel buffers and SDMA copies.
  [[nodiscard]] T& get(Scheduler& sched) {
    assert_held(*m_, sched, what_);
    return value_;
  }
  [[nodiscard]] const T& get(Scheduler& sched) const {
    assert_held(*m_, sched, what_);
    return value_;
  }

  /// Escape hatch for accesses that are safe without the guard. Every call
  /// site must carry a comment saying why (e.g. read-only introspection
  /// with no concurrent mutator possible).
  [[nodiscard]] T& unguarded() { return value_; }
  [[nodiscard]] const T& unguarded() const { return value_; }

  [[nodiscard]] Mutex& mutex() { return *m_; }

 private:
  Mutex* m_;
  const char* what_;
  T value_;
};

/// RAII guard for Mutex.
class LockGuard {
 public:
  LockGuard(Mutex& m, Scheduler& sched) : m_{m}, sched_{sched} {
    m_.lock(sched_);
  }
  ~LockGuard() { m_.unlock(sched_); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
  Scheduler& sched_;
};

/// A reusable rendezvous for a fixed party of threads: each call to
/// `arrive_and_wait` blocks until all `parties` threads have arrived, then
/// releases everyone with their clocks advanced to the last arrival's time
/// (the OpenMP `barrier` semantics a multi-threaded workload needs between
/// phases). Reusable across rounds.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_{parties} {
    if (parties <= 0) {
      throw SimError("Barrier: parties must be positive");
    }
  }

  void arrive_and_wait(Scheduler& sched) {
    sched.stress_point();  // barrier arrivals are schedule-divergence points
    latest_ = max(latest_, sched.now());
    // Every arrival releases its clock into the barrier; every departure
    // acquires it, so all pre-barrier work happens-before all post-barrier
    // work (the all-to-all edge OpenMP `barrier` provides).
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_release(this, SyncKind::Barrier);
    }
    if (++arrived_ < parties_) {
      waiters_.wait(sched, "Barrier");
      if (ConcurrencyHooks* h = sched.hooks()) {
        h->on_acquire(this, SyncKind::Barrier);
      }
      return;
    }
    // Last arrival releases the round and resets for the next one.
    arrived_ = 0;
    const TimePoint release = latest_;
    latest_ = TimePoint::zero();
    waiters_.notify_all(sched, release);
    sched.advance_to(release);
    if (ConcurrencyHooks* h = sched.hooks()) {
      h->on_acquire(this, SyncKind::Barrier);
    }
  }

  [[nodiscard]] int waiting() const { return arrived_; }

 private:
  int parties_;
  int arrived_ = 0;
  TimePoint latest_;
  WaitList waiters_;
};

}  // namespace zc::sim

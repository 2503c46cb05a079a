#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace zc::sim {

class Mutex;

/// What kind of synchronization object emitted a release/acquire edge.
/// Only `Mutex`, `Latch`, `Barrier` and `Signal` emit any: a `WaitList` is
/// the blocking mechanism under them and carries no edge of its own, and
/// nothing in the simulator emits `Monitor` or `Atomic`. Those three stay
/// in the enum so per-kind counters keep their shape (they read 0).
enum class SyncKind {
  Mutex,
  Latch,
  Barrier,
  WaitList,
  Signal,
  Monitor,
  Atomic,
};

[[nodiscard]] constexpr const char* to_string(SyncKind k) {
  switch (k) {
    case SyncKind::Mutex:
      return "mutex";
    case SyncKind::Latch:
      return "latch";
    case SyncKind::Barrier:
      return "barrier";
    case SyncKind::WaitList:
      return "waitlist";
    case SyncKind::Signal:
      return "signal";
    case SyncKind::Monitor:
      return "monitor";
    case SyncKind::Atomic:
      return "atomic";
  }
  return "?";
}

/// Observer interface for the scheduler's concurrency events: thread
/// lifecycle, the release/acquire edges every synchronization primitive
/// emits, nested lock acquisitions, and the page accesses of host threads
/// and device tasks. `zc::race::Detector` implements it to maintain
/// per-fiber vector clocks; a null hook pointer (the default) keeps every
/// primitive on its original fast path — one predicted branch per
/// operation, no allocation.
///
/// Virtual-thread ids are the scheduler's (`VirtualThread::id()`); a parent
/// id of -1 means the thread was spawned from outside any virtual thread
/// (before `run()`). Logical device tasks — a kernel execution or a DMA
/// transfer whose effects the simulator applies at submit time but which
/// logically runs until its completion signal fires — get their own clock
/// via `on_task_begin`/`on_task_end`.
class ConcurrencyHooks {
 public:
  virtual ~ConcurrencyHooks() = default;

  /// --- thread lifecycle --------------------------------------------------
  virtual void on_spawn(int parent_id, int child_id) = 0;
  virtual void on_finish(int thread_id) = 0;

  /// --- release/acquire edges ---------------------------------------------
  /// `obj` identifies the synchronization object (its address, or the
  /// shared-state address for handle types like `hsa::Signal`).
  virtual void on_release(const void* obj, SyncKind kind) = 0;
  virtual void on_acquire(const void* obj, SyncKind kind) = 0;

  /// A mutex was just acquired by the current thread (its held-lock set
  /// already contains `m`). Feeds the lock-order graph.
  virtual void on_lock_acquired(const Mutex& m) = 0;

  /// The synchronization object `obj` is gone: no edge will ever name it
  /// again, and a later object may be born at the same address. Emitted by
  /// an `hsa::Signal`'s shared state when it dies.
  virtual void on_retire(const void* /*obj*/) {}

  /// A field-level read or write by the current thread. Nothing in the
  /// simulator emits it and the detector ignores it; it stays only for
  /// observers that count every hook.
  virtual void on_access(const void* /*addr*/, std::size_t /*bytes*/,
                         std::string_view /*what*/, bool /*is_write*/) {}

  /// --- logical device tasks and page-granularity accesses -----------------
  /// Begin a device task forked from the current thread's clock; returns a
  /// task handle (or -1 when ignored).
  virtual int on_task_begin(std::string_view what, int device) = 0;
  /// Pages `[first_page, first_page + pages)` accessed by a device task.
  virtual void on_task_pages(int task, std::uint64_t first_page,
                             std::uint64_t pages, bool is_write,
                             std::string_view what) = 0;
  /// Pages accessed by the current (host) thread.
  virtual void on_host_pages(std::uint64_t first_page, std::uint64_t pages,
                             bool is_write, std::string_view what) = 0;
  /// A device task ordered after a synchronization object's released clock
  /// (an in-queue dependence on earlier async work: the host never waits,
  /// but the device starts the task after the dependence completed).
  virtual void on_task_acquire(int task, const void* obj) = 0;
  /// End a device task, releasing its clock into `completion_obj` (the
  /// completion signal's identity) so waiters order after the task.
  virtual void on_task_end(int task, const void* completion_obj) = 0;
};

}  // namespace zc::sim

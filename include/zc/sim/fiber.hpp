#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include <setjmp.h>
#include <ucontext.h>

namespace zc::sim {

/// A cooperatively scheduled execution context (stackful coroutine).
///
/// Fibers let the simulator express virtual host threads as ordinary
/// blocking code: a workload calls into the OpenMP runtime, which calls into
/// HSA, which "waits" on a signal — and the wait suspends the whole call
/// stack back to the scheduler without any of those layers being written as
/// state machines.
///
/// A fiber alternates control with its resumer: `resume()` runs the fiber
/// until it calls `Fiber::yield()` or its body returns. Exceptions thrown by
/// the body are captured and rethrown from the `resume()` that observed the
/// fiber finish. Not thread-safe: all fibers of a simulation run on one OS
/// thread.
/// Recycles fixed-size fiber stacks. A simulation spawns and retires
/// thousands of short-lived virtual threads (one per modeled host thread
/// per run, plus helpers); without pooling every spawn pays a 256 KiB heap
/// allocation and first-touch page faults. The scheduler returns a stack to
/// its pool as soon as the owning fiber finishes — the stack is dead the
/// moment `resume()` observes `finished()`, long before the Fiber object
/// itself is destroyed. Not thread-safe (the simulator is single-threaded).
class FiberStackPool {
 public:
  /// Pop a recycled stack of exactly `bytes` bytes, or allocate fresh.
  [[nodiscard]] std::unique_ptr<char[]> acquire(std::size_t bytes);

  /// Return a stack for reuse. Stacks whose size differs from the pool's
  /// current block size are simply freed.
  void release(std::unique_ptr<char[]> stack, std::size_t bytes);

 private:
  std::size_t block_bytes_ = 0;
  std::vector<std::unique_ptr<char[]>> free_;
};

class Fiber {
 public:
  /// `pool`, when given, supplies the stack and receives it back via
  /// `recycle_stack()`; it must outlive the fiber's stack use.
  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = kDefaultStackBytes,
                 FiberStackPool* pool = nullptr);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it yields or finishes. Must not be called from
  /// inside any fiber other than the resumer context that created it, and
  /// never on a finished fiber.
  void resume();

  /// Suspend the currently running fiber back to its resumer.
  /// Must be called from inside a fiber.
  static void yield();

  /// True once the body has returned (or thrown).
  [[nodiscard]] bool finished() const { return finished_; }

  /// Return the stack of a finished fiber to the pool it was drawn from
  /// (no-op for unfinished fibers, pool-less fibers free the stack). The
  /// context of a finished fiber is never resumed, so its stack is dead.
  void recycle_stack();

  /// The fiber currently executing on this OS thread, or nullptr.
  [[nodiscard]] static Fiber* current();

  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

 private:
  static void trampoline();

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  FiberStackPool* pool_ = nullptr;
  std::size_t stack_bytes_ = 0;
  /// ucontext pair for a fiber's *first* entry only: makecontext is the one
  /// portable way to start executing on a fresh stack. Every subsequent
  /// switch uses the _setjmp/_longjmp pair below — glibc's swapcontext
  /// performs a sigprocmask syscall per switch (~470 ns round trip measured
  /// on the dev box vs ~12 ns for _setjmp/_longjmp), which dominated the
  /// whole DES event loop. Sanitizer builds stay on swapcontext throughout
  /// and announce every switch to ASan/TSan, while a cross-stack longjmp
  /// would bypass their bookkeeping (see fiber.cpp).
  ucontext_t ctx_{};
  ucontext_t resumer_{};
  jmp_buf jmp_{};          // fiber's suspended point (valid once started)
  jmp_buf resumer_jmp_{};  // resumer's point to return to on yield/finish
  /// ThreadSanitizer fiber context for this stack and for the context that
  /// last resumed it; null (and unused) outside TSan builds.
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
  /// AddressSanitizer switch state (unused outside ASan builds): the stack
  /// bounds of the context that last resumed this fiber, which a switch
  /// back must name, and the fiber's fake-stack handle while suspended.
  const void* asan_resumer_bottom_ = nullptr;
  std::size_t asan_resumer_size_ = 0;
  void* asan_fake_stack_ = nullptr;
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
};

}  // namespace zc::sim

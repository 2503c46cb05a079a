#include "zc/sim/fiber.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

// ThreadSanitizer models each ucontext stack as a distinct logical thread;
// without these hooks it sees one OS thread hopping between stacks and
// corrupts its shadow state (false reports or crashes). Every stack switch
// below is announced with __tsan_switch_to_fiber immediately before the
// swapcontext that performs it. AddressSanitizer needs the same news: it
// tracks the bounds of the stack it believes is running, and an exception
// thrown on a fiber stack it was not told about (`__asan_handle_no_return`)
// leaves its stack poisoning out of step, which later surfaces as false
// stack-buffer-overflow and use-after-scope reports. So each switch is
// bracketed by __sanitizer_start_switch_fiber, naming the destination
// stack, and __sanitizer_finish_switch_fiber.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define APUZC_TSAN_FIBERS 1
#endif
#if __has_feature(address_sanitizer)
#define APUZC_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define APUZC_TSAN_FIBERS 1
#elif defined(__SANITIZE_ADDRESS__)
#define APUZC_ASAN_FIBERS 1
#endif

// Steady-state switches use _setjmp/_longjmp (no sigprocmask syscall, ~40x
// cheaper than swapcontext); makecontext/swapcontext only bootstraps each
// fiber's first entry onto its fresh stack. Sanitizer builds keep
// swapcontext for *every* switch: ASan's and TSan's interceptors model the
// stack change there, whereas a cross-stack _longjmp would sidestep their
// shadow bookkeeping (ASan's longjmp handler assumes the jump stays on the
// current thread's stack).
#if !defined(APUZC_TSAN_FIBERS) && !defined(APUZC_ASAN_FIBERS)
#define APUZC_FAST_SWITCH 1
#endif

#ifdef APUZC_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#ifdef APUZC_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace zc::sim {

namespace {
// Single-OS-thread simulator: plain globals are sufficient and keep the
// ucontext trampoline (which cannot take pointer arguments portably) simple.
Fiber* g_current = nullptr;
Fiber* g_starting = nullptr;
}  // namespace

Fiber* Fiber::current() { return g_current; }

std::unique_ptr<char[]> FiberStackPool::acquire(std::size_t bytes) {
  if (bytes == block_bytes_ && !free_.empty()) {
    std::unique_ptr<char[]> stack = std::move(free_.back());
    free_.pop_back();
    return stack;
  }
  return std::unique_ptr<char[]>{new char[bytes]};
}

void FiberStackPool::release(std::unique_ptr<char[]> stack,
                             std::size_t bytes) {
  if (free_.empty()) {
    block_bytes_ = bytes;  // first release fixes the pool's block size
  } else if (bytes != block_bytes_) {
    return;  // odd-sized stack: let unique_ptr free it
  }
  free_.push_back(std::move(stack));
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             FiberStackPool* pool)
    : body_{std::move(body)},
      stack_{pool != nullptr ? pool->acquire(stack_bytes)
                             : std::unique_ptr<char[]>{new char[stack_bytes]}},
      pool_{pool},
      stack_bytes_{stack_bytes} {
  if (!body_) {
    throw std::invalid_argument("Fiber: empty body");
  }
  if (getcontext(&ctx_) != 0) {
    throw std::runtime_error("Fiber: getcontext failed");
  }
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = stack_bytes;
  ctx_.uc_link = nullptr;  // trampoline swaps back explicitly
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
#ifdef APUZC_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

// Destroying a suspended (started, unfinished) fiber releases the stack
// without unwinding it, so destructors of the fiber's live locals do not
// run. This only happens on error paths (e.g. tearing down a deadlocked
// simulation), where leaking those locals is preferable to aborting.
Fiber::~Fiber() {
#ifdef APUZC_TSAN_FIBERS
  if (tsan_fiber_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
  }
#endif
}

void Fiber::recycle_stack() {
  if (!finished_ || stack_ == nullptr) {
    return;
  }
  if (pool_ != nullptr) {
    pool_->release(std::move(stack_), stack_bytes_);
  } else {
    stack_.reset();
  }
}

void Fiber::trampoline() {
  Fiber* self = g_starting;
  g_starting = nullptr;
#ifdef APUZC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_resumer_bottom_,
                                  &self->asan_resumer_size_);
#endif
  try {
    self->body_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->finished_ = true;
  g_current = nullptr;
#ifdef APUZC_TSAN_FIBERS
  __tsan_switch_to_fiber(self->tsan_resumer_, 0);
#endif
#ifdef APUZC_ASAN_FIBERS
  // This stack is dead once we leave it: a null save slot tells ASan so.
  __sanitizer_start_switch_fiber(nullptr, self->asan_resumer_bottom_,
                                 self->asan_resumer_size_);
#endif
#ifdef APUZC_FAST_SWITCH
  _longjmp(self->resumer_jmp_, 1);
#else
  swapcontext(&self->ctx_, &self->resumer_);
#endif
  // Never reached: a finished fiber is never resumed.
  std::abort();
}

void Fiber::resume() {
  if (finished_) {
    throw std::logic_error("Fiber::resume on finished fiber");
  }
  Fiber* const prev = g_current;
  g_current = this;
  const bool first = !started_;
  if (first) {
    started_ = true;
    g_starting = this;
  }
#ifdef APUZC_TSAN_FIBERS
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef APUZC_FAST_SWITCH
  if (_setjmp(resumer_jmp_) == 0) {
    if (first) {
      // First entry must run on the fresh stack; makecontext/swapcontext
      // is the only portable bootstrap. The fiber leaves via _longjmp to
      // resumer_jmp_, so the swapcontext never returns normally.
      swapcontext(&resumer_, &ctx_);
      std::abort();  // unreachable
    }
    _longjmp(jmp_, 1);
  }
#else
#ifdef APUZC_ASAN_FIBERS
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_.get(),
                                 stack_bytes_);
#endif
  const int switched = swapcontext(&resumer_, &ctx_);
#ifdef APUZC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
  if (switched != 0) {
#ifdef APUZC_TSAN_FIBERS
    __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
    g_current = prev;
    throw std::runtime_error("Fiber: swapcontext failed");
  }
#endif
  g_current = prev;
  if (finished_ && error_) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
}

void Fiber::yield() {
  Fiber* const self = g_current;
  if (self == nullptr) {
    throw std::logic_error("Fiber::yield outside any fiber");
  }
  g_current = nullptr;
#ifdef APUZC_TSAN_FIBERS
  __tsan_switch_to_fiber(self->tsan_resumer_, 0);
#endif
#ifdef APUZC_FAST_SWITCH
  if (_setjmp(self->jmp_) == 0) {
    _longjmp(self->resumer_jmp_, 1);
  }
#else
#ifdef APUZC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_,
                                 self->asan_resumer_bottom_,
                                 self->asan_resumer_size_);
#endif
  swapcontext(&self->ctx_, &self->resumer_);
#ifdef APUZC_ASAN_FIBERS
  // Resumed, possibly from a different context than the one we left.
  __sanitizer_finish_switch_fiber(self->asan_fake_stack_,
                                  &self->asan_resumer_bottom_,
                                  &self->asan_resumer_size_);
#endif
#endif
}

}  // namespace zc::sim

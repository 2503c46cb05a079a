#pragma once

#include <cstddef>
#include <string_view>

#include "zc/sim/hooks.hpp"
#include "zc/sim/scheduler.hpp"

/// Field-level access stamps for the happens-before race detector.
///
/// A test or a replica shim marks a read or write of shared state it wants
/// checked; the detector then reports any conflicting pair that no program
/// synchronization (spawn/finish, `Mutex`, `Latch`, `Barrier`, `Signal`,
/// device tasks) orders. The stamps depend only on `zc::sim` (the hooks
/// interface), so they need no link dependency on the detector. With no
/// hooks installed (the default, `OMPX_APU_RACE_CHECK=off`) each call is one
/// predicted branch.
namespace zc::race {

/// Record a read of instrumented shared state at `site`.
inline void on_read(sim::Scheduler& sched, const void* addr, std::size_t bytes,
                    std::string_view site) {
  if (sim::ConcurrencyHooks* h = sched.hooks()) {
    h->on_access(addr, bytes, site, /*is_write=*/false);
  }
}

/// Record a write of instrumented shared state at `site`.
inline void on_write(sim::Scheduler& sched, const void* addr,
                     std::size_t bytes, std::string_view site) {
  if (sim::ConcurrencyHooks* h = sched.hooks()) {
    h->on_access(addr, bytes, site, /*is_write=*/true);
  }
}

}  // namespace zc::race

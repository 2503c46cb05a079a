#include "zc/hsa/watchdog.hpp"

#include <algorithm>

namespace zc::hsa {

using sim::Duration;
using sim::TimePoint;

void Watchdog::watch(Signal signal, int device) {
  if (!config_.enabled() || signal.is_complete()) {
    // Healthy async work is bound to a completion time at submit; only a
    // hung operation's signal is still unbound here.
    return;
  }
  sim::Scheduler& sched = machine_.sched();
  watched_.push_back(
      Watched{std::move(signal), device, sched.now() + config_.budget});
  const bool start = !running_;
  running_ = true;
  if (start) {
    sched.spawn("watchdog", [this] { loop(); });
  } else {
    // The fiber may be asleep until a later deadline; re-arm it.
    wake_.notify_all(sched, sched.now());
  }
}

void Watchdog::loop() {
  sim::Scheduler& sched = machine_.sched();
  while (true) {
    // Drop entries whose operation completed (normally, or via an abort a
    // previous iteration performed).
    std::erase_if(watched_,
                  [](const Watched& w) { return w.signal.is_complete(); });
    if (watched_.empty()) {
      break;
    }
    TimePoint earliest = TimePoint::max();
    for (const Watched& w : watched_) {
      earliest = min(earliest, w.deadline);
    }
    if (sched.now() < earliest) {
      if (wake_.wait_for(sched, earliest - sched.now(), "Watchdog(wake)")) {
        continue;  // new registration; recompute the earliest deadline
      }
    }
    // The deadline fired: abort every overdue, still-incomplete operation.
    // Index loop over a copied entry — trip() advances time and may yield,
    // letting new registrations reallocate the vector under us.
    for (std::size_t i = 0; i < watched_.size(); ++i) {
      if (watched_[i].deadline <= sched.now() &&
          !watched_[i].signal.is_complete()) {
        const Watched entry = watched_[i];
        trip(entry);
      }
    }
  }
  running_ = false;
}

void Watchdog::trip(const Watched& w) {
  sim::Scheduler& sched = machine_.sched();
  const apu::CostParams& c = machine_.costs();
  // Tearing down and rebuilding the wedged queue is driver work on the
  // operation's device; it queues behind any in-flight driver activity.
  const Duration dur = machine_.jittered(c.queue_teardown + c.queue_rebuild);
  const sim::Interval iv = machine_.driver(w.device).reserve(sched.now(), dur);
  sched.advance_to(iv.end);
  if (record_) {
    record_(trace::FaultRecord{.event = trace::FaultEvent::WatchdogTrip,
                               .device = w.device,
                               .time = sched.now(),
                               .host_base = 0,
                               .bytes = 0});
  }
  if (listener_) {
    listener_(w.device, sched.now());
  }
  // Waking the waiters last: they observe the trip fully recorded.
  Signal signal = w.signal;
  signal.complete_abort(sched, sched.now());
}

}  // namespace zc::hsa

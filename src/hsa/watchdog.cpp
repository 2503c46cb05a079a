#include "zc/hsa/watchdog.hpp"

#include <algorithm>

#include "zc/race/api.hpp"

namespace zc::hsa {

using sim::Duration;
using sim::TimePoint;

// The registry (`watched_`, `running_`, `trips_`) is shared between every
// registering thread and the watchdog fiber, whose timer wakeup path has no
// sync-object edge back to the registrars. A real driver orders these with
// an internal watchdog lock; the simulator models that lock as a detector
// monitor keyed on the Watchdog itself. Each bracketed section is pure
// state — no yields, no virtual-time advance — so the model stays sound.

void Watchdog::watch(Signal signal, int device) {
  if (!config_.enabled() || signal.is_complete()) {
    // Healthy async work is bound to a completion time at submit; only a
    // hung operation's signal is still unbound here.
    return;
  }
  sim::Scheduler& sched = machine_.sched();
  bool start = false;
  {
    race::MonitorGuard mm{sched, this};
    race::on_write(sched, &watched_, sizeof(watched_), "Watchdog::watched_");
    watched_.push_back(
        Watched{std::move(signal), device, sched.now() + config_.budget});
    race::on_write(sched, &running_, sizeof(running_), "Watchdog::running_");
    start = !running_;
    running_ = true;
  }
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
    TimePoint earliest = TimePoint::max();
    {
      race::MonitorGuard mm{sched, this};
      race::on_write(sched, &watched_, sizeof(watched_), "Watchdog::watched_");
      // Drop entries whose operation completed (normally, or via an abort
      // a previous iteration performed).
      std::erase_if(watched_,
                    [](const Watched& w) { return w.signal.is_complete(); });
      if (watched_.empty()) {
        break;
      }
      for (const Watched& w : watched_) {
        earliest = min(earliest, w.deadline);
      }
    }
    if (sched.now() < earliest) {
      if (wake_.wait_for(sched, earliest - sched.now(), "Watchdog(wake)")) {
        continue;  // new registration; recompute the earliest deadline
      }
    }
    // The deadline fired: abort every overdue, still-incomplete operation.
    // Index loop over a copied entry — trip() advances time and may yield,
    // letting new registrations reallocate the vector under us (hence the
    // per-iteration bracket: the copy is taken inside, the trip outside).
    for (std::size_t i = 0;; ++i) {
      bool overdue = false;
      Watched entry;
      {
        race::MonitorGuard mm{sched, this};
        race::on_read(sched, &watched_, sizeof(watched_),
                      "Watchdog::watched_");
        if (i >= watched_.size()) {
          break;
        }
        overdue = watched_[i].deadline <= sched.now() &&
                  !watched_[i].signal.is_complete();
        if (overdue) {
          entry = watched_[i];
        }
      }
      if (overdue) {
        trip(entry);
      }
    }
  }
  {
    race::MonitorGuard mm{sched, this};
    race::on_write(sched, &running_, sizeof(running_), "Watchdog::running_");
    running_ = false;
  }
}

void Watchdog::trip(const Watched& w) {
  sim::Scheduler& sched = machine_.sched();
  const apu::CostParams& c = machine_.costs();
  // Tearing down and rebuilding the wedged queue is driver work on the
  // operation's device; it queues behind any in-flight driver activity.
  const Duration dur = machine_.jittered(c.queue_teardown + c.queue_rebuild);
  const sim::Interval iv = machine_.driver(w.device).reserve(sched.now(), dur);
  sched.advance_to(iv.end);
  {
    // Tight bracket: the driver reserve above advances virtual time and
    // must stay outside any monitor section.
    race::MonitorGuard mm{sched, this};
    race::on_write(sched, &trips_, sizeof(trips_), "Watchdog::trips_");
    ++trips_;
  }
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

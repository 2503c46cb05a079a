#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "zc/apu/machine.hpp"
#include "zc/hsa/signal.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/sim/time.hpp"
#include "zc/trace/fault_trace.hpp"

namespace zc::hsa {

/// Hang detector for in-flight device operations.
///
/// The HSA layer registers every operation whose completion signal is not
/// yet bound to a time (in the simulator that is exactly the hung ones —
/// healthy async work gets its completion time at submit). A dedicated
/// watchdog fiber sleeps until the earliest registered deadline
/// (`submit + budget` from `OMPX_APU_WATCHDOG`); if the signal is still
/// incomplete when the deadline fires, the watchdog tears down and rebuilds
/// the operation's queue (charged on the device's driver timeline), records
/// a `WatchdogTrip`, notifies the trip listener (the core layer's circuit
/// breaker), and completes the signal *aborted* so its waiters can decide
/// to replay or raise.
///
/// The fiber is spawned lazily on the first registration and exits when the
/// registry drains, so a run without hangs — or without a watchdog
/// configured — schedules exactly as before.
class Watchdog {
 public:
  using RecordFault = std::function<void(trace::FaultRecord)>;
  using TripListener = std::function<void(int device, sim::TimePoint now)>;

  Watchdog(apu::Machine& machine, apu::WatchdogConfig config,
           RecordFault record)
      : machine_{machine}, config_{config}, record_{std::move(record)} {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  [[nodiscard]] const apu::WatchdogConfig& config() const { return config_; }

  /// Begin watching `signal`, an operation queued on `device`. No-op when
  /// the watchdog is disabled or the signal is already bound to a
  /// completion time (healthy async work cannot hang in virtual time).
  void watch(Signal signal, int device);

  /// The core layer's circuit breaker subscribes here; called on every trip
  /// from the watchdog fiber.
  void set_trip_listener(TripListener listener) {
    listener_ = std::move(listener);
  }

 private:
  struct Watched {
    Signal signal;
    int device = 0;
    sim::TimePoint deadline;
  };

  void loop();
  void trip(const Watched& w);

  apu::Machine& machine_;
  apu::WatchdogConfig config_;
  RecordFault record_;
  TripListener listener_;
  std::vector<Watched> watched_;
  sim::WaitList wake_;  // re-arms the fiber when a new watch registers
  bool running_ = false;
};

}  // namespace zc::hsa

#pragma once

#include <array>
#include <cstdint>

#include "zc/fault/spec.hpp"
#include "zc/sim/rng.hpp"
#include "zc/sim/time.hpp"

namespace zc::fault {

/// What `consult` decided for one call.
struct Injection {
  Kind kind = Kind::None;
  double factor = 1.0;  ///< replay-storm latency multiplier

  [[nodiscard]] bool fired() const { return kind != Kind::None; }
};

/// Deterministic fault-injection engine: a parsed schedule plus per-site
/// call counters and a seeded RNG for probabilistic clauses.
///
/// The HSA layer calls `consult(site, now)` once per instrumented call,
/// *before* performing the operation; the first matching clause fires.
/// Determinism: call-count triggers depend only on program order at the
/// site, time triggers on virtual time, and probability triggers on a
/// seeded generator drawn in consultation order — the same seed and
/// schedule always fault the same calls.
///
/// The engine is consulted from virtual threads but needs no lock: under
/// cooperative scheduling a `consult` never yields.
class FaultEngine {
 public:
  FaultEngine() = default;
  FaultEngine(Schedule schedule, std::uint64_t seed)
      : schedule_{std::move(schedule)}, rng_{seed} {}

  [[nodiscard]] bool enabled() const { return !schedule_.empty(); }
  [[nodiscard]] const Schedule& schedule() const { return schedule_; }

  /// Count this call at `site` and decide whether a fault fires.
  Injection consult(Site site, sim::TimePoint now);

  /// Calls consulted so far at one site (the call-window trigger state).
  /// Fired injections are counted where they act: each is recorded as one
  /// `Injected` fault record naming its kind.
  [[nodiscard]] std::uint64_t calls(Site site) const {
    return calls_[static_cast<std::size_t>(site)];
  }

 private:
  Schedule schedule_;
  sim::Rng rng_{0};
  std::array<std::uint64_t, kSiteCount> calls_{};
};

}  // namespace zc::fault

#include "zc/fault/engine.hpp"

namespace zc::fault {

Injection FaultEngine::consult(Site site, sim::TimePoint now) {
  const auto idx = static_cast<std::size_t>(site);
  const std::uint64_t call = ++calls_[idx];
  if (schedule_.empty()) {
    return {};
  }
  for (const Clause& c : schedule_.clauses) {
    if (c.site != site) {
      continue;
    }
    bool fire = false;
    switch (c.trigger.mode) {
      case Trigger::Mode::CallRange:
        fire = call >= c.trigger.call_from && call <= c.trigger.call_to;
        break;
      case Trigger::Mode::TimeWindow:
        fire = now >= c.trigger.t_from && now <= c.trigger.t_to;
        break;
      case Trigger::Mode::Probability:
        // Drawn even when an earlier clause could fire? No — clauses are
        // first-match, and we only reach this draw when no earlier clause
        // fired, so the stream stays a pure function of the consult order.
        fire = rng_.bernoulli(c.trigger.probability);
        break;
    }
    if (fire) {
      return Injection{c.kind, c.factor};
    }
  }
  return {};
}

}  // namespace zc::fault

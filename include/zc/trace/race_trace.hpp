#pragma once

#include <string>
#include <vector>

#include "zc/sim/time.hpp"

namespace zc::trace {

/// What class of concurrency defect a race report describes.
enum class RaceKind {
  Page,       ///< host/GPU accesses to the same page with no interposed edge
  LockOrder,  ///< a cycle in the lock-order graph (potential deadlock)
};

[[nodiscard]] constexpr const char* to_string(RaceKind k) {
  switch (k) {
    case RaceKind::Page:
      return "page-race";
    case RaceKind::LockOrder:
      return "lock-order-cycle";
  }
  return "?";
}

/// One side of a reported conflict: who accessed, where in the code, and the
/// accessor's vector clock at the access.
struct RaceEndpoint {
  std::string actor;  ///< fiber or device-task name
  std::string site;   ///< instrumentation site / acquisition description
  std::string clock;  ///< rendered vector clock, e.g. "{0:3, 2:7}"
  bool is_write = false;
};

/// One deterministic, structured race report. `first` is the earlier access
/// (the one already recorded in the shadow state), `second` the one that
/// exposed the conflict. Lock-order cycles use `first`/`second` for the two
/// edges that close the cycle.
struct RaceReport {
  RaceKind kind = RaceKind::Page;
  std::string what;  ///< page range or cycle description
  RaceEndpoint first;
  RaceEndpoint second;
  sim::TimePoint time;  ///< virtual time of the detecting access
  std::string message;  ///< fully rendered one-line report
};

/// Record of every race the detector reported in a run. Populated only when
/// `OMPX_APU_RACE_CHECK` is report/abort; clean runs stay empty.
class RaceTrace {
 public:
  void record(RaceReport r) { records_.push_back(std::move(r)); }

  [[nodiscard]] const std::vector<RaceReport>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t count(RaceKind k) const {
    std::size_t n = 0;
    for (const RaceReport& r : records_) {
      if (r.kind == k) {
        ++n;
      }
    }
    return n;
  }
  [[nodiscard]] bool any(RaceKind k) const { return count(k) > 0; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  void clear() { records_.clear(); }

 private:
  std::vector<RaceReport> records_;
};

}  // namespace zc::trace

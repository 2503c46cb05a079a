#pragma once

#include <iosfwd>
#include <vector>

#include "zc/trace/copy_trace.hpp"
#include "zc/trace/decision_trace.hpp"
#include "zc/trace/fault_trace.hpp"
#include "zc/trace/kernel_trace.hpp"
#include "zc/trace/service_trace.hpp"

namespace zc::trace {

/// Export traces in the Chrome trace-event JSON format, viewable in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Kernel executions (KernelRecord) appear on per-device GPU tracks
/// (`pid` 2, `tid` = device), with fault/TLB stalls attached as arguments;
/// SDMA transfers (CopyRecord) on per-device engine tracks (`pid` 3,
/// `tid` = device); fault events (FaultRecord) as instants on per-device
/// tracks (`pid` 4, `tid` = device); Adaptive Maps decisions
/// (DecisionRecord) as instant events on the host-thread track that took
/// them (`pid` 1, `tid` = virtual host thread), with the policy features
/// and predicted costs as arguments; service jobs (ServiceJobRecord) as
/// spans on per-tenant service tracks (`pid` 5, `tid` = tenant) covering
/// queue wait + execution, with the outcome and footprint as arguments
/// (shed jobs render as instants — they never dispatched). Process-name
/// metadata events label the lanes so a multi-device run never interleaves
/// kernels, copies, or faults from different sockets on one track.
class ChromeTraceWriter {
 public:
  /// Add kernel launches (per-device GPU tracks).
  void add(const std::vector<KernelRecord>& kernels);

  /// Add SDMA transfers (per-device engine tracks).
  void add(const std::vector<CopyRecord>& copies);

  /// Add fault events (instants, per-device fault tracks).
  void add(const FaultTrace& faults);

  /// Add Adaptive Maps policy decisions (instant events, host tracks).
  void add(const DecisionTrace& decisions);

  /// Add service job lifecycles (per-tenant service tracks).
  void add(const std::vector<ServiceJobRecord>& jobs);

  /// Write the complete JSON document.
  void write(std::ostream& os) const;

  [[nodiscard]] std::size_t event_count() const {
    return kernel_events_.size() + copy_events_.size() +
           fault_events_.size() + decision_events_.size() +
           service_events_.size();
  }

 private:
  std::vector<KernelRecord> kernel_events_;
  std::vector<CopyRecord> copy_events_;
  std::vector<FaultRecord> fault_events_;
  std::vector<DecisionRecord> decision_events_;
  std::vector<ServiceJobRecord> service_events_;
};

}  // namespace zc::trace

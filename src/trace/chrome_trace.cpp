#include "zc/trace/chrome_trace.hpp"

#include <ostream>

namespace zc::trace {

namespace {

/// Trace-event names must be JSON-safe; ours are identifiers already, but
/// escape defensively.
void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\';
    }
    os << c;
  }
}

}  // namespace

void ChromeTraceWriter::add(const std::vector<KernelRecord>& kernels) {
  kernel_events_.insert(kernel_events_.end(), kernels.begin(), kernels.end());
}

void ChromeTraceWriter::add(const std::vector<CopyRecord>& copies) {
  copy_events_.insert(copy_events_.end(), copies.begin(), copies.end());
}

void ChromeTraceWriter::add(const FaultTrace& faults) {
  fault_events_.insert(fault_events_.end(), faults.records().begin(),
                       faults.records().end());
}

void ChromeTraceWriter::add(const DecisionTrace& decisions) {
  decision_events_.insert(decision_events_.end(), decisions.records().begin(),
                          decisions.records().end());
}

void ChromeTraceWriter::add(const std::vector<ServiceJobRecord>& jobs) {
  service_events_.insert(service_events_.end(), jobs.begin(), jobs.end());
}

void ChromeTraceWriter::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      os << ',';
    }
    first = false;
  };
  // Lane labels: one process per hardware class, one thread per device
  // within it, so multi-device events never share a track. Omitted from an
  // empty document, which stays the bare JSON shell.
  if (event_count() > 0) {
    static constexpr struct {
      int pid;
      const char* name;
    } kLanes[] = {
        {1, "host"}, {2, "gpu"}, {3, "sdma"}, {4, "faults"}, {5, "service"}};
    for (const auto& lane : kLanes) {
      sep();
      os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << lane.pid
         << ",\"args\":{\"name\":\"" << lane.name << "\"}}";
    }
  }
  for (const KernelRecord& k : kernel_events_) {
    sep();
    os << "{\"name\":\"";
    write_escaped(os, k.name);
    os << "\",\"ph\":\"X\",\"pid\":2,\"tid\":" << k.device
       << ",\"ts\":" << k.start.since_start().us()
       << ",\"dur\":" << k.duration().us()
       << ",\"cat\":\"kernel\",\"args\":{\"host_thread\":" << k.host_thread
       << ",\"page_faults\":" << k.page_faults
       << ",\"fault_stall_us\":" << k.fault_stall.us()
       << ",\"tlb_stall_us\":" << k.tlb_stall.us()
       << ",\"remote_bytes\":" << k.remote_bytes << "}}";
  }
  for (const CopyRecord& c : copy_events_) {
    sep();
    os << "{\"name\":\"sdma-copy\",\"ph\":\"X\",\"pid\":3,\"tid\":"
       << c.device << ",\"ts\":" << c.start.since_start().us()
       << ",\"dur\":" << c.duration().us()
       << ",\"cat\":\"sdma\",\"args\":{\"bytes\":" << c.bytes
       << ",\"src_socket\":" << c.src_socket
       << ",\"dst_socket\":" << c.dst_socket << ",\"cross_socket\":"
       << (c.cross_socket() ? "true" : "false") << "}}";
  }
  for (const FaultRecord& f : fault_events_) {
    sep();
    os << "{\"name\":\"" << to_string(f)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":4,\"tid\":" << f.device
       << ",\"ts\":" << f.time.since_start().us()
       << ",\"cat\":\"fault\",\"args\":{\"host_base\":" << f.host_base
       << ",\"bytes\":" << f.bytes << ",\"attempt\":" << f.attempt << "}}";
  }
  for (const DecisionRecord& d : decision_events_) {
    sep();
    os << "{\"name\":\"adapt:" << to_string(d.decision)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << d.host_thread
       << ",\"ts\":" << d.time.since_start().us()
       << ",\"cat\":\"adapt\",\"args\":{\"device\":" << d.device
       << ",\"host_base\":" << d.host_base << ",\"bytes\":" << d.bytes
       << ",\"pages\":" << d.pages
       << ",\"cpu_resident_pages\":" << d.cpu_resident_pages
       << ",\"gpu_absent_pages\":" << d.gpu_absent_pages
       << ",\"predicted_copy_us\":" << d.predicted_copy_us
       << ",\"predicted_zero_copy_us\":" << d.predicted_zero_copy_us
       << ",\"predicted_eager_us\":" << d.predicted_eager_us
       << ",\"revised\":" << (d.revised ? "true" : "false") << "}}";
  }
  for (const ServiceJobRecord& j : service_events_) {
    sep();
    if (j.outcome == ServiceJobOutcome::Shed) {
      os << "{\"name\":\"job-shed\",\"ph\":\"i\",\"s\":\"t\",\"pid\":5,"
            "\"tid\":"
         << j.tenant << ",\"ts\":" << j.arrival.since_start().us()
         << ",\"cat\":\"service\",\"args\":{\"job\":" << j.job
         << ",\"pages\":" << j.pages << "}}";
      continue;
    }
    os << "{\"name\":\"job\",\"ph\":\"X\",\"pid\":5,\"tid\":" << j.tenant
       << ",\"ts\":" << j.arrival.since_start().us()
       << ",\"dur\":" << j.sojourn().us()
       << ",\"cat\":\"service\",\"args\":{\"job\":" << j.job
       << ",\"device\":" << j.device << ",\"pages\":" << j.pages
       << ",\"queue_wait_us\":" << j.queue_wait().us() << ",\"outcome\":\""
       << to_string(j.outcome) << "\"}}";
  }
  os << "],\"displayTimeUnit\":\"ms\","
        "\"otherData\":{\"generator\":\"apuzc simulator\"}}";
}

}  // namespace zc::trace

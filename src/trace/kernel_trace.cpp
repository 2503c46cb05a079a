#include "zc/trace/kernel_trace.hpp"

#include <ostream>

namespace zc::trace {

void write_kernel_csv(std::ostream& os,
                      std::span<const KernelRecord> records) {
  os << "name,thread,start_us,dur_us,compute_us,fault_us,tlb_us,faults\n";
  for (const KernelRecord& r : records) {
    os << r.name << ',' << r.host_thread << ','
       << r.start.since_start().us() << ',' << r.duration().us() << ','
       << r.compute.us() << ',' << r.fault_stall.us() << ','
       << r.tlb_stall.us() << ',' << r.page_faults << '\n';
  }
}

}  // namespace zc::trace

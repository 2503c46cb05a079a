// Run the QMCPack NiO proxy once with chosen parameters and print a full
// breakdown: wall time, HSA call statistics, overhead ledger, kernel
// summary. The CLI mirrors how the paper's experiments were launched.
//
//   qmcpack_nio [--size=N] [--threads=N] [--steps=N] [--config=NAME]
//               [--ktrace=FILE]
//   config names: copy | usm | zerocopy (zc) | eager | adaptive
//   --ktrace writes a LIBOMPTARGET_KERNEL_TRACE-style per-launch CSV

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "zc/stats/table.hpp"
#include "zc/workloads/qmcpack.hpp"

using namespace zc;
using omp::RuntimeConfig;

int main(int argc, char** argv) {
  workloads::QmcpackParams params;
  RuntimeConfig config = RuntimeConfig::ImplicitZeroCopy;
  std::string ktrace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--ktrace=", 0) == 0) {
      ktrace_path = a.substr(9);
    } else if (a.rfind("--size=", 0) == 0) {
      params.size = std::atoi(a.c_str() + 7);
    } else if (a.rfind("--threads=", 0) == 0) {
      params.threads = std::atoi(a.c_str() + 10);
    } else if (a.rfind("--steps=", 0) == 0) {
      params.steps = std::atoi(a.c_str() + 8);
    } else if (a.rfind("--config=", 0) == 0) {
      const std::optional<RuntimeConfig> named =
          omp::parse_config_name(a.substr(9));
      if (!named) {
        std::cerr << "unknown config '" << a.substr(9) << "'\n";
        return 2;
      }
      config = *named;
    } else {
      std::cerr << "usage: qmcpack_nio [--size=N] [--threads=N] [--steps=N] "
                   "[--config=copy|usm|zerocopy|zc|eager|adaptive] "
                   "[--ktrace=FILE]\n";
      return 2;
    }
  }

  std::printf("QMCPack NiO proxy: S%d, %d host thread(s), %d MC steps, %s\n\n",
              params.size, params.threads, params.steps, to_string(config));

  const workloads::RunResult r = workloads::run_program(
      workloads::make_qmcpack(params),
      {.config = config, .keep_kernel_records = !ktrace_path.empty()});

  std::printf("wall time      : %s\n", r.wall_time.to_string().c_str());
  std::printf("checksum       : %.6f\n", r.checksum);
  const hsa::DeviceCounters k = r.totals();
  std::printf("kernel launches: %llu (GPU time %s, fault stalls %s)\n",
              static_cast<unsigned long long>(k.kernels),
              k.gpu_time.to_string().c_str(),
              k.fault_stall.to_string().c_str());
  std::printf("page faults    : %llu\n",
              static_cast<unsigned long long>(k.page_faults));
  std::printf("MM overhead    : %s (alloc %s, copy %s, prefault %s)\n",
              r.ledger.mm().to_string().c_str(),
              r.ledger.mm_alloc().to_string().c_str(),
              r.ledger.mm_copy().to_string().c_str(),
              r.ledger.mm_prefault().to_string().c_str());
  std::printf("MI overhead    : %s\n\n", r.ledger.mi().to_string().c_str());

  std::printf("HSA call statistics (rocprof-style):\n");
  r.stats.write_csv(std::cout);

  if (!ktrace_path.empty()) {
    std::ofstream out{ktrace_path};
    trace::write_kernel_csv(out, r.kernel_records);
    std::printf("\nwrote kernel trace: %s (%zu launches)\n",
                ktrace_path.c_str(), r.kernel_records.size());
  }
  return 0;
}

// Run one SPECaccel 2023 proxy under a chosen configuration and print its
// breakdown — the per-benchmark view behind Tables II and III.
//
//   specaccel [--bench=stencil|lbm|ep|spC|bt] [--config=NAME] [--quick]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "zc/trace/overhead_ledger.hpp"
#include "zc/workloads/spec.hpp"

using namespace zc;
using omp::RuntimeConfig;

namespace {

workloads::Program make_benchmark(const std::string& name, bool quick) {
  if (name == "stencil") {
    workloads::StencilParams p;
    if (quick) {
      p.grid_bytes /= 8;
      p.iterations /= 8;
    }
    return workloads::make_stencil(p);
  }
  if (name == "lbm") {
    workloads::LbmParams p;
    if (quick) {
      p.lattice_bytes /= 8;
      p.iterations /= 8;
    }
    return workloads::make_lbm(p);
  }
  if (name == "ep") {
    workloads::EpParams p;
    if (quick) {
      p.arena_bytes /= 8;
      p.batches /= 8;
    }
    return workloads::make_ep(p);
  }
  if (name == "spC") {
    workloads::SpcParams p;
    if (quick) {
      p.array_bytes /= 8;
      p.cycles /= 4;
    }
    return workloads::make_spc(p);
  }
  if (name == "bt") {
    workloads::BtParams p;
    if (quick) {
      p.array_bytes /= 8;
      p.cycles /= 4;
    }
    return workloads::make_bt(p);
  }
  std::cerr << "unknown benchmark '" << name
            << "' (expected stencil|lbm|ep|spC|bt)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench = "stencil";
  RuntimeConfig config = RuntimeConfig::ImplicitZeroCopy;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--bench=", 0) == 0) {
      bench = a.substr(8);
    } else if (a.rfind("--config=", 0) == 0) {
      const std::optional<RuntimeConfig> named =
          omp::parse_config_name(a.substr(9));
      if (!named) {
        std::cerr << "unknown config '" << a.substr(9) << "'\n";
        return 2;
      }
      config = *named;
    } else if (a == "--quick") {
      quick = true;
    } else {
      std::cerr << "usage: specaccel [--bench=stencil|lbm|ep|spC|bt] "
                   "[--config=copy|usm|zerocopy|zc|eager|adaptive] [--quick]\n";
      return 2;
    }
  }

  std::printf("SPECaccel proxy %s under %s%s\n\n", bench.c_str(),
              to_string(config), quick ? " (quick scale)" : "");
  const workloads::RunResult r = workloads::run_program(
      make_benchmark(bench, quick), {.config = config});

  std::printf("wall time   : %s\n", r.wall_time.to_string().c_str());
  std::printf("checksum    : %.3f\n", r.checksum);
  const hsa::DeviceCounters k = r.totals();
  std::printf("kernels     : %llu launches, %s GPU time\n",
              static_cast<unsigned long long>(k.kernels),
              k.gpu_time.to_string().c_str());
  std::printf("MM overhead : %s  -> Table III order %s\n",
              r.ledger.mm().to_string().c_str(),
              trace::order_of_magnitude_us(r.ledger.mm()));
  std::printf("MI overhead : %s  -> Table III order %s\n",
              r.ledger.mi().to_string().c_str(),
              trace::order_of_magnitude_us(r.ledger.mi()));
  std::printf("page faults : %llu\n",
              static_cast<unsigned long long>(k.page_faults));
  std::printf("prefaults   : %llu calls, %s\n",
              static_cast<unsigned long long>(r.ledger.prefault_calls()),
              r.ledger.mm_prefault().to_string().c_str());
  return 0;
}

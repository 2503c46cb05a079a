// Multi-APU fabric placement figure: wall time of the five runtime
// configurations on a bandwidth-bound streaming workload under the four
// NUMA placements (local, remote, interleaved, 4-way partitioned) plus an
// explicit inter-device DMA staging variant, on a 4-socket MI300A node
// joined by modeled xGMI links — the local-vs-remote bandwidth asymmetry
// of the Inter-APU study, reproduced qualitatively.
//
// Acceptance bars (the binary exits 1 if any is violated):
//   * local zero-copy beats remote zero-copy on every zero-copy
//     configuration (the Inter-APU bandwidth ordering);
//   * interleaved sits between local and remote under Implicit Zero-Copy
//     (3/4 of the pages are remote, but striped over wide links);
//   * explicit inter-device DMA staging beats streaming remote zero-copy
//     under Implicit Zero-Copy (pay the link once, then read locally)
//     [skipped at --fidelity-min scale, where the copy cannot amortize];
//   * 4-way partitioning beats the single-device local run by >= 2x on
//     every zero-copy configuration [>= 1.5x at --fidelity-min, where the
//     short stream leaves runtime overhead visible];
//   * partitioned QMCPack S128 t8 (sockets=4), under a big-kernel
//     occupancy topology of two concurrent kernels per socket, achieves
//     >= 3x the aggregate throughput of the same machine driving every
//     thread to device 0, with identical checksums [S32 and >= 2x at
//     reduced scales];
//   * Adaptive Maps stays within 5% of the best static configuration on
//     every placement;
//   * all five configurations compute identical checksums on every
//     placement, including under the survivable fault/hang schedule with
//     seeds 1/7/42.
//
// Runs are deterministic (no measurement jitter): the bars compare cost
// models, not noise.

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "zc/apu/params.hpp"
#include "zc/core/host_array.hpp"
#include "zc/mem/address_space.hpp"
#include "zc/workloads/qmcpack.hpp"

namespace {

using namespace zc;
using mem::AddrRange;
using mem::VirtAddr;
using omp::BufferUse;
using omp::HostArray;
using omp::MapEntry;
using omp::OffloadRuntime;
using omp::OffloadStack;
using omp::RuntimeConfig;
using omp::TargetRegion;

constexpr int kSockets = 4;

constexpr std::array<RuntimeConfig, 4> kStaticConfigs{
    RuntimeConfig::LegacyCopy,
    RuntimeConfig::ImplicitZeroCopy,
    RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::EagerMaps,
};

constexpr std::array<RuntimeConfig, 3> kZeroCopy{
    RuntimeConfig::ImplicitZeroCopy,
    RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::EagerMaps,
};

/// Where the streamed buffer lives relative to the executing device(s).
enum class Layout {
  Local,        ///< homed on socket 0, kernels on device 0
  Remote,       ///< homed on socket 1, kernels on device 0 (wide link)
  Interleaved,  ///< striped across all sockets, kernels on device 0
  Staged,       ///< homed on socket 1, DMA-copied to 0, then read locally
  Partitioned,  ///< one shard per socket, kernels on the owning device
};

const char* to_string(Layout l) {
  switch (l) {
    case Layout::Local: return "local";
    case Layout::Remote: return "remote";
    case Layout::Interleaved: return "interleaved";
    case Layout::Staged: return "remote+dma";
    case Layout::Partitioned: return "partitioned";
  }
  return "?";
}

struct StreamScale {
  std::uint64_t bytes = 768ULL << 20;
  int iters = 60;
  sim::Duration per_iter = sim::Duration::from_us(3000);
};

/// One host thread streaming `bytes` through `iters` read kernels on
/// `exec_device`; the buffer's NUMA home is the experiment variable. The
/// checksum (one accumulator increment per kernel) is placement- and
/// configuration-invariant.
double stream_shard(OffloadStack& stack, const StreamScale& s, Layout layout,
                    int exec_device) {
  OffloadRuntime& rt = stack.omp();
  VirtAddr buf;
  switch (layout) {
    case Layout::Local:
    case Layout::Partitioned:
      buf = rt.host_alloc_placed(s.bytes, "stream", mem::Placement::FixedHome,
                                 exec_device);
      break;
    case Layout::Remote:
    case Layout::Staged:
      buf = rt.host_alloc_placed(s.bytes, "stream", mem::Placement::FixedHome,
                                 1);
      break;
    case Layout::Interleaved:
      buf = rt.host_alloc_placed(s.bytes, "stream",
                                 mem::Placement::Interleaved);
      break;
  }
  rt.host_first_touch(AddrRange{buf, s.bytes});

  VirtAddr data = buf;
  VirtAddr staging{};
  if (layout == Layout::Staged) {
    // omp_target_memcpy into a device-local buffer: pay the link once.
    staging = rt.host_alloc_placed(s.bytes, "stream-staging",
                                   mem::Placement::FixedHome, exec_device);
    rt.host_first_touch(AddrRange{staging, s.bytes});
    rt.target_memcpy(staging, buf, s.bytes);
    data = staging;
  }

  HostArray<double> acc{rt, 8, "stream-acc", exec_device};
  acc.first_touch();

  const std::vector<MapEntry> region_maps{
      MapEntry::to(data, s.bytes),
      MapEntry::alloc(acc.addr(), acc.bytes())};
  rt.target_data_begin(region_maps, exec_device);

  const VirtAddr av = acc.addr();
  for (int i = 0; i < s.iters; ++i) {
    rt.target(TargetRegion{
        .name = "stream_read",
        .maps = {MapEntry::always_tofrom(av, acc.bytes())},
        .uses = {BufferUse{data, s.bytes, hsa::Access::Read}},
        .compute = s.per_iter,
        .body =
            [av](hsa::KernelContext& ctx, const omp::ArgTranslator& tr) {
              ctx.ptr<double>(tr.device(av), 1)[0] += 1.0;
            },
        .device = exec_device,
    });
  }
  rt.target_data_end(region_maps, exec_device);

  const double result = acc[0];
  acc.release();
  rt.host_free(buf);
  if (!staging.is_null()) {
    rt.host_free(staging);
  }
  return result;
}

/// The streaming workload under one placement. Partitioned splits the
/// buffer (and per-kernel compute) four ways, so total work is constant
/// across layouts.
workloads::Program make_stream(const StreamScale& scale, Layout layout) {
  const int shards = layout == Layout::Partitioned ? kSockets : 1;
  StreamScale s = scale;
  if (shards > 1) {
    s.bytes /= static_cast<std::uint64_t>(shards);
    s.per_iter = s.per_iter * (1.0 / shards);
  }
  auto checksums =
      std::make_shared<std::vector<double>>(static_cast<std::size_t>(shards));
  workloads::Program program;
  program.binary.name = std::string("fabric-stream-") + to_string(layout);
  program.setup_threads = [s, layout, shards, checksums](OffloadStack& stack) {
    for (int d = 0; d < shards; ++d) {
      stack.sched().spawn("omp-host-" + std::to_string(d),
                          [&stack, s, layout, checksums, d] {
                            (*checksums)[static_cast<std::size_t>(d)] =
                                stream_shard(stack, s, layout, d);
                          });
    }
  };
  program.finalize = [checksums](OffloadStack&) {
    double sum = 0.0;
    for (const double c : *checksums) {
      sum += c;
    }
    return sum;
  };
  return program;
}

workloads::RunOptions fabric_options(RuntimeConfig config,
                                     std::uint64_t seed) {
  workloads::RunOptions options;
  options.config = config;
  options.seed = seed;
  options.sockets = kSockets;
  options.fabric_spec = "xgmi";
  return options;
}

struct Violation {
  std::string text;
};

std::string ms(double us) { return stats::TextTable::num(us / 1000.0, 1); }

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_banner(
      "Fabric placement — local/remote/interleaved/partitioned x five "
      "configurations",
      "extends Bertolli et al., SC'24 with the Inter-APU xGMI asymmetry",
      args);

  StreamScale scale;
  if (args.fidelity_min) {
    scale.bytes = 128ULL << 20;
    scale.iters = 8;
  } else if (args.quick) {
    scale.bytes = 256ULL << 20;
    scale.iters = 20;
  } else if (args.full) {
    scale.bytes = 2ULL << 30;
    scale.iters = 120;
  }

  constexpr std::array<Layout, 5> kLayouts{
      Layout::Local, Layout::Remote, Layout::Interleaved, Layout::Staged,
      Layout::Partitioned};

  std::vector<Violation> violations;
  auto require = [&violations](bool ok, const std::string& text) {
    if (!ok) {
      violations.push_back({text});
    }
  };

  // ---- placement x configuration sweep ---------------------------------
  std::map<Layout, std::map<RuntimeConfig, double>> wall_us;
  stats::TextTable table{{"Placement", "Copy", "Implicit Z-C",
                          "Unified Shared Memory", "Eager Maps", "Adaptive",
                          "Adaptive/best-static"}};
  for (const Layout layout : kLayouts) {
    const workloads::Program program = make_stream(scale, layout);
    std::vector<std::string> row{to_string(layout)};
    double checksum = std::numeric_limits<double>::quiet_NaN();
    double best_static = std::numeric_limits<double>::infinity();
    for (const RuntimeConfig config : kStaticConfigs) {
      const workloads::RunResult r =
          workloads::run_program(program, fabric_options(config, args.seed));
      wall_us[layout][config] = r.wall_time.us();
      best_static = std::min(best_static, r.wall_time.us());
      row.push_back(ms(r.wall_time.us()));
      if (checksum != checksum) {
        checksum = r.checksum;
      } else {
        require(r.checksum == checksum,
                std::string("checksum mismatch on ") + to_string(layout) +
                    " under " + to_string(config));
      }
      std::cout << "." << std::flush;
    }
    const workloads::RunResult adaptive = workloads::run_program(
        program, fabric_options(RuntimeConfig::AdaptiveMaps, args.seed));
    wall_us[layout][RuntimeConfig::AdaptiveMaps] = adaptive.wall_time.us();
    require(adaptive.checksum == checksum,
            std::string("checksum mismatch on ") + to_string(layout) +
                " under AdaptiveMaps");
    const double vs_best = adaptive.wall_time.us() / best_static;
    row.push_back(ms(adaptive.wall_time.us()));
    row.push_back(stats::TextTable::num(vs_best, 3));
    table.add_row(row);
    require(vs_best <= 1.05,
            std::string("Adaptive is ") +
                stats::TextTable::num((vs_best - 1.0) * 100.0, 1) +
                "% off the best static configuration on " +
                to_string(layout) + " (bar: 5%)");
    std::cout << "." << std::flush;
  }

  // ---- the Inter-APU bandwidth ordering --------------------------------
  // At --fidelity-min the stream is short enough that per-kernel runtime
  // overhead (serialized on the shared runtime lock, unchanged by the
  // partitioning) is a visible fraction of the run, so the scale-out bar
  // drops to 1.5x there; every larger fidelity holds the full 2x.
  const double stream_bar = args.fidelity_min ? 1.5 : 2.0;
  for (const RuntimeConfig zc : kZeroCopy) {
    require(wall_us[Layout::Local][zc] < wall_us[Layout::Remote][zc],
            std::string("local zero-copy not faster than remote under ") +
                to_string(zc));
    require(wall_us[Layout::Partitioned][zc] * stream_bar <
                wall_us[Layout::Local][zc],
            std::string("4-way partitioning below ") +
                stats::TextTable::num(stream_bar, 1) +
                "x over single-device under " + to_string(zc));
  }
  {
    const double local = wall_us[Layout::Local][RuntimeConfig::ImplicitZeroCopy];
    const double inter =
        wall_us[Layout::Interleaved][RuntimeConfig::ImplicitZeroCopy];
    const double remote =
        wall_us[Layout::Remote][RuntimeConfig::ImplicitZeroCopy];
    require(local < inter && inter < remote,
            "interleaved not between local and remote under Implicit Z-C");
    if (!args.fidelity_min) {
      const double staged =
          wall_us[Layout::Staged][RuntimeConfig::ImplicitZeroCopy];
      require(staged < remote,
              "explicit DMA staging not faster than streaming remote "
              "zero-copy under Implicit Z-C");
    }
  }

  std::cout << "\n\nstreaming wall time per placement (ms); "
               "Adaptive/best-static <= 1.05 required\n\n";
  table.print(std::cout);
  args.maybe_write_csv("fig_fabric", table);

  // ---- partitioned QMCPack aggregate throughput ------------------------
  {
    workloads::QmcpackParams p;
    p.size = args.fidelity_min || args.quick ? 32 : 128;
    p.threads = 8;
    p.steps = args.steps_or(24, 8, 40);
    const double min_speedup = args.fidelity_min || args.quick ? 2.0 : 3.0;

    // Big-kernel occupancy: at these problem sizes one walker kernel's
    // launch grid covers about half a socket's XCDs, so a single GPU
    // sustains only two such kernels concurrently. With the default
    // 16-slot small-kernel topology, 8 threads never queue and the
    // single-device run is latency-bound per thread — partitioning would
    // measure nothing. Two slots per socket is what makes the aggregate
    // throughput comparison about device capacity, the quantity the
    // scale-out claim is about.
    apu::Topology big_kernel_topology;
    big_kernel_topology.gpu_kernel_slots = 2;

    workloads::QmcpackParams single = p;  // every thread drives device 0
    single.sockets = 1;
    workloads::QmcpackParams parted = p;
    parted.sockets = kSockets;

    stats::TextTable qtable{
        {"QMCPack S" + std::to_string(p.size) + " t8", "single-device",
         "4-way partitioned", "speedup"}};
    for (const RuntimeConfig config :
         {RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::AdaptiveMaps}) {
      workloads::RunOptions qopts = fabric_options(config, args.seed);
      qopts.topology = big_kernel_topology;
      const workloads::RunResult base =
          workloads::run_program(workloads::make_qmcpack(single), qopts);
      const workloads::RunResult part =
          workloads::run_program(workloads::make_qmcpack(parted), qopts);
      const double speedup = base.wall_time.us() / part.wall_time.us();
      qtable.add_row({to_string(config), ms(base.wall_time.us()),
                      ms(part.wall_time.us()),
                      stats::TextTable::num(speedup, 2)});
      require(base.checksum == part.checksum,
              std::string("partitioned QMCPack checksum differs from "
                          "single-device under ") +
                  to_string(config));
      require(speedup >= min_speedup,
              std::string("partitioned QMCPack speedup ") +
                  stats::TextTable::num(speedup, 2) + " below " +
                  stats::TextTable::num(min_speedup, 1) + "x under " +
                  to_string(config));
      std::cout << "." << std::flush;
    }
    std::cout << "\n\naggregate throughput: partitioned vs single-device "
                 "(>= "
              << min_speedup << "x required)\n\n";
    qtable.print(std::cout);
  }

  // ---- five-config checksum identity under faults ----------------------
  if (!args.fidelity_min) {
    StreamScale tiny;
    tiny.bytes = 64ULL << 20;
    tiny.iters = 6;
    for (const Layout layout : {Layout::Remote, Layout::Partitioned}) {
      const workloads::Program program = make_stream(tiny, layout);
      for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        double checksum = std::numeric_limits<double>::quiet_NaN();
        for (const RuntimeConfig config :
             {RuntimeConfig::LegacyCopy, RuntimeConfig::ImplicitZeroCopy,
              RuntimeConfig::UnifiedSharedMemory, RuntimeConfig::EagerMaps,
              RuntimeConfig::AdaptiveMaps}) {
          workloads::RunOptions options = fabric_options(config, seed);
          options.stress_seed = seed;
          options.fault_spec =
              "eintr@call=1..3;sdma@call=5;kernel_hang@call=3";
          options.watchdog_spec = "50ms:recover";
          const workloads::RunResult r =
              workloads::run_program(program, options);
          if (checksum != checksum) {
            checksum = r.checksum;
          } else {
            require(r.checksum == checksum,
                    std::string("fault-seed checksum mismatch on ") +
                        to_string(layout) + " seed " + std::to_string(seed) +
                        " under " + to_string(config));
          }
        }
        std::cout << "." << std::flush;
      }
    }
    std::cout << "\nfault/hang seeds 1/7/42: five-config checksum identity "
                 "checked on remote and partitioned placements\n";
  }

  {
    std::vector<std::string> texts;
    texts.reserve(violations.size());
    for (const Violation& v : violations) {
      texts.push_back(v.text);
    }
    std::vector<std::pair<std::string, double>> metrics;
    for (const Layout layout : kLayouts) {
      metrics.emplace_back(
          std::string("wall_ms_implicit_") + to_string(layout),
          wall_us[layout][RuntimeConfig::ImplicitZeroCopy] / 1000.0);
    }
    args.maybe_write_json("fig_fabric", texts, metrics);
  }

  if (violations.empty()) {
    std::cout << "\nAll acceptance bars hold: local > remote zero-copy "
                 "bandwidth, staging beats remote streaming, partitioning "
                 "scales, Adaptive within 5% of best-static per placement, "
                 "checksums identical everywhere.\n";
    return 0;
  }
  std::cout << "\nACCEPTANCE VIOLATIONS:\n";
  for (const Violation& v : violations) {
    std::cout << "  * " << v.text << '\n';
  }
  return 1;
}

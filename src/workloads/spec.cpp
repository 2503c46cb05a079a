#include "zc/workloads/spec.hpp"

#include <memory>
#include <string>

#include "zc/core/host_array.hpp"

namespace zc::workloads {

using mem::AddrRange;
using mem::VirtAddr;
using omp::BufferUse;
using omp::HostArray;
using omp::MapEntry;
using omp::OffloadRuntime;
using omp::OffloadStack;
using omp::TargetRegion;

namespace {

/// Program wrapper for a statically partitioned SPECaccel proxy: one
/// offloading host thread per device shard (SPECaccel itself runs a single
/// host thread — `devices == 1` reproduces exactly that). Each shard body
/// returns its partial checksum; the program checksum is their sum, which
/// keeps the five-configuration identity check meaningful per placement.
Program sharded_program(std::string name, int devices,
                        std::function<double(OffloadStack&, int)> shard_body) {
  const int n = devices < 1 ? 1 : devices;
  auto checksums =
      std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);
  Program program;
  program.binary.name = std::move(name);
  program.setup_threads = [shard_body = std::move(shard_body), checksums,
                           n](OffloadStack& stack) {
    for (int d = 0; d < n; ++d) {
      stack.sched().spawn("omp-host-" + std::to_string(d),
                          [&stack, shard_body, checksums, d] {
                            (*checksums)[static_cast<std::size_t>(d)] =
                                shard_body(stack, d);
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

/// One stencil shard: `params` carries per-shard sizes; data homed on
/// socket `device`, kernels dispatched to that device.
double stencil_shard(OffloadStack& stack, const StencilParams& params,
                     int device) {
  OffloadRuntime& rt = stack.omp();

  // Input grid read from disk on the host; output grid never host-touched
  // before the GPU writes it.
  const VirtAddr in = rt.host_alloc(params.grid_bytes, "stencil-in", device);
  const VirtAddr out = rt.host_alloc(params.grid_bytes, "stencil-out", device);
  rt.host_first_touch(AddrRange{in, params.grid_bytes});

  HostArray<double> residual{rt, 8, "stencil-residual", device};
  residual.first_touch();

  const std::vector<MapEntry> region_maps{
      MapEntry::to(in, params.grid_bytes),
      MapEntry::from(out, params.grid_bytes),
      MapEntry::alloc(residual.addr(), residual.bytes())};
  rt.target_data_begin(region_maps, device);

  const VirtAddr resv = residual.addr();
  for (int iter = 0; iter < params.iterations; ++iter) {
    rt.target(TargetRegion{
        .name = "stencil_sweep",
        .maps = {MapEntry::always_tofrom(resv, residual.bytes())},
        .uses = {BufferUse{in, params.grid_bytes, hsa::Access::Read},
                 BufferUse{out, params.grid_bytes, hsa::Access::Write}},
        .compute = params.per_iter_compute,
        .body =
            [resv](hsa::KernelContext& ctx, const omp::ArgTranslator& tr) {
              ctx.ptr<double>(tr.device(resv), 1)[0] += 0.5;
            },
        .device = device,
    });
  }
  rt.target_data_end(region_maps, device);

  const double result = residual[0];
  residual.release();
  rt.host_free(in);
  rt.host_free(out);
  return result;
}

/// One lbm shard (per-shard lattice sizes, homed on socket `device`).
double lbm_shard(OffloadStack& stack, const LbmParams& params, int device) {
  OffloadRuntime& rt = stack.omp();

  // Both lattices are initialized on the host (initial distribution).
  const VirtAddr src = rt.host_alloc(params.lattice_bytes, "lbm-src", device);
  const VirtAddr dst = rt.host_alloc(params.lattice_bytes, "lbm-dst", device);
  rt.host_first_touch(AddrRange{src, params.lattice_bytes});
  rt.host_first_touch(AddrRange{dst, params.lattice_bytes});

  HostArray<double> mass{rt, 8, "lbm-mass", device};
  mass.first_touch();

  // Large transfer at the beginning (Copy config only does real work).
  const std::vector<MapEntry> region_maps{
      MapEntry::tofrom(src, params.lattice_bytes),
      MapEntry::to(dst, params.lattice_bytes),
      MapEntry::alloc(mass.addr(), mass.bytes())};
  rt.target_data_begin(region_maps, device);

  const VirtAddr massv = mass.addr();
  for (int iter = 0; iter < params.iterations; ++iter) {
    // The target constructs carry map clauses for the lattices (present
    // on every iteration): Copy pays bookkeeping, Eager Maps a prefault
    // syscall plus a presence walk over the whole lattice.
    rt.target(TargetRegion{
        .name = "lbm_collide_stream",
        .maps = {MapEntry::alloc(src, params.lattice_bytes),
                 MapEntry::alloc(dst, params.lattice_bytes),
                 MapEntry::always_tofrom(massv, mass.bytes())},
        .compute = params.per_iter_compute,
        .body =
            [massv](hsa::KernelContext& ctx, const omp::ArgTranslator& tr) {
              ctx.ptr<double>(tr.device(massv), 1)[0] += 1.0;
            },
        .device = device,
    });
  }
  rt.target_data_end(region_maps, device);

  const double result = mass[0];
  mass.release();
  rt.host_free(src);
  rt.host_free(dst);
  return result;
}

/// One ep shard (per-shard arena, homed on socket `device`).
double ep_shard(OffloadStack& stack, const EpParams& params, int device) {
  OffloadRuntime& rt = stack.omp();

  // The arena is allocated but never touched by the host: under Copy it
  // becomes a bulk-populated pool allocation; under zero-copy the GPU
  // first-touches it page by page inside the init kernel.
  const VirtAddr arena = rt.host_alloc(params.arena_bytes, "ep-arena", device);
  HostArray<double> counts{rt, 16, "ep-counts", device};
  counts.first_touch();
  const std::vector<MapEntry> region_maps{
      MapEntry::alloc(arena, params.arena_bytes),
      MapEntry::alloc(counts.addr(), counts.bytes())};
  rt.target_data_begin(region_maps, device);

  // GPU-side first-touch initialization of the whole arena.
  rt.target(TargetRegion{
      .name = "ep_init",
      .maps = {},
      .uses = {BufferUse{arena, params.arena_bytes, hsa::Access::Write}},
      .compute = sim::Duration::from_us(12000),
      .body = {},
      .device = device,
  });

  const VirtAddr cv = counts.addr();
  for (int b = 0; b < params.batches; ++b) {
    rt.target(TargetRegion{
        .name = "ep_gaussian_batch",
        .maps = {MapEntry::always_tofrom(cv, counts.bytes())},
        .uses = {BufferUse{arena, params.arena_bytes, hsa::Access::ReadWrite}},
        .compute = params.per_batch_compute,
        .body =
            [cv](hsa::KernelContext& ctx, const omp::ArgTranslator& tr) {
              ctx.ptr<double>(tr.device(cv), 1)[0] += 2.0;
            },
        .device = device,
    });
  }
  rt.target_data_end(region_maps, device);

  const double result = counts[0];
  counts.release();
  rt.host_free(arena);
  return result;
}

/// Common body for the spC/bt pattern: per cycle, fresh host "stack"
/// arrays are initialized, mapped tofrom, run through `kernels` target
/// regions, unmapped (device-to-host copy), and freed. `device` homes the
/// arrays and receives the dispatches (0 in the classic single-APU run).
double run_alloc_cycle_benchmark(OffloadStack& stack, std::uint64_t array_bytes,
                                 int cycles, int kernels_per_cycle,
                                 sim::Duration per_kernel,
                                 sim::Duration big_kernel,
                                 const std::string& label, int device) {
  OffloadRuntime& rt = stack.omp();
  double checksum = 0.0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    // Stack allocation in the host function: fresh addresses every call,
    // so the GPU page table never has these pages (zero-copy configs fault
    // or prefault them anew each cycle).
    const VirtAddr a = rt.host_alloc(array_bytes, label + "-a", device);
    const VirtAddr b = rt.host_alloc(array_bytes, label + "-b", device);
    rt.host_first_touch(AddrRange{a, array_bytes});
    rt.host_first_touch(AddrRange{b, array_bytes});

    HostArray<double> norm{rt, 8, label + "-norm", device};

    const std::vector<MapEntry> cycle_maps{
        MapEntry::tofrom(a, array_bytes), MapEntry::tofrom(b, array_bytes),
        MapEntry::alloc(norm.addr(), norm.bytes())};
    rt.target_data_begin(cycle_maps, device);

    const VirtAddr nv = norm.addr();
    for (int k = 0; k < kernels_per_cycle; ++k) {
      const bool dominant = k == 0 && !big_kernel.is_zero();
      rt.target(TargetRegion{
          .name = label + "_solve",
          .maps = {MapEntry::always_tofrom(nv, norm.bytes())},
          .uses = {BufferUse{a, array_bytes, hsa::Access::ReadWrite},
                   BufferUse{b, array_bytes, hsa::Access::Read}},
          .compute = dominant ? big_kernel : per_kernel,
          .body =
              [nv](hsa::KernelContext& ctx, const omp::ArgTranslator& tr) {
                ctx.ptr<double>(tr.device(nv), 1)[0] += 1.0;
              },
          .device = device,
      });
    }
    rt.target_data_end(cycle_maps, device);
    checksum += norm[0];

    norm.release();
    rt.host_free(a);
    rt.host_free(b);
  }
  return checksum;
}

/// Per-shard compute: the kernel time shrinks with the shard (perfect
/// strong scaling of the compute phase); only applied when devices > 1 so
/// the single-APU runs replay the historical schedule exactly.
sim::Duration shard_compute(sim::Duration whole, int devices) {
  return devices > 1 ? whole * (1.0 / devices) : whole;
}

std::uint64_t shard_bytes(std::uint64_t whole, int devices) {
  return devices > 1 ? whole / static_cast<std::uint64_t>(devices) : whole;
}

}  // namespace

Program make_stencil(const StencilParams& params) {
  StencilParams shard = params;
  shard.grid_bytes = shard_bytes(params.grid_bytes, params.devices);
  shard.per_iter_compute =
      shard_compute(params.per_iter_compute, params.devices);
  return sharded_program("403.stencil", params.devices,
                         [shard](OffloadStack& stack, int device) {
                           return stencil_shard(stack, shard, device);
                         });
}

Program make_lbm(const LbmParams& params) {
  LbmParams shard = params;
  shard.lattice_bytes = shard_bytes(params.lattice_bytes, params.devices);
  shard.per_iter_compute =
      shard_compute(params.per_iter_compute, params.devices);
  return sharded_program("404.lbm", params.devices,
                         [shard](OffloadStack& stack, int device) {
                           return lbm_shard(stack, shard, device);
                         });
}

Program make_ep(const EpParams& params) {
  EpParams shard = params;
  shard.arena_bytes = shard_bytes(params.arena_bytes, params.devices);
  shard.per_batch_compute =
      shard_compute(params.per_batch_compute, params.devices);
  return sharded_program("452.ep", params.devices,
                         [shard](OffloadStack& stack, int device) {
                           return ep_shard(stack, shard, device);
                         });
}

Program make_spc(const SpcParams& params) {
  SpcParams shard = params;
  shard.array_bytes = shard_bytes(params.array_bytes, params.devices);
  shard.per_kernel_compute =
      shard_compute(params.per_kernel_compute, params.devices);
  return sharded_program("457.spC", params.devices,
                         [shard](OffloadStack& stack, int device) {
                           return run_alloc_cycle_benchmark(
                               stack, shard.array_bytes, shard.cycles,
                               shard.kernels_per_cycle,
                               shard.per_kernel_compute, sim::Duration::zero(),
                               "spc", device);
                         });
}

Program make_bt(const BtParams& params) {
  BtParams shard = params;
  shard.array_bytes = shard_bytes(params.array_bytes, params.devices);
  shard.per_kernel_compute =
      shard_compute(params.per_kernel_compute, params.devices);
  shard.big_kernel_compute =
      shard_compute(params.big_kernel_compute, params.devices);
  return sharded_program("470.bt", params.devices,
                         [shard](OffloadStack& stack, int device) {
                           return run_alloc_cycle_benchmark(
                               stack, shard.array_bytes, shard.cycles,
                               shard.kernels_per_cycle,
                               shard.per_kernel_compute,
                               shard.big_kernel_compute, "bt", device);
                         });
}

std::vector<SpecBenchmark> make_spec_suite() {
  std::vector<SpecBenchmark> suite;
  suite.push_back({"stencil", make_stencil({})});
  suite.push_back({"lbm", make_lbm({})});
  suite.push_back({"ep", make_ep({})});
  suite.push_back({"spC", make_spc({})});
  suite.push_back({"bt", make_bt({})});
  return suite;
}

}  // namespace zc::workloads

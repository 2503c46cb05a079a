#include "zc/workloads/qmcpack.hpp"

#include <algorithm>
#include <cmath>
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

std::uint64_t QmcpackParams::walker_buf_bytes() const {
  // Walker state grows linearly with the problem size (more electrons).
  return walker_buf_base * static_cast<std::uint64_t>(size);
}

std::vector<int> qmcpack_paper_sizes() { return {2, 4, 8, 16, 24, 32, 64, 128}; }

namespace {

/// State shared between the virtual host threads of one run.
struct SharedState {
  SharedState(int threads, int sockets)
      : spline(static_cast<std::size_t>(sockets)),
        spline_ready(static_cast<std::size_t>(sockets)),
        block_barrier{threads},
        partials(static_cast<std::size_t>(threads)) {}
  /// One read-only spline replica per socket (an affinity-aware app keeps
  /// its big lookup tables in local HBM; with MPI-per-socket this happens
  /// naturally, one copy per rank).
  std::vector<VirtAddr> spline;
  std::vector<sim::Latch> spline_ready;
  std::uint64_t spline_bytes = 0;
  sim::Barrier block_barrier;
  /// Per-thread checksum contributions, reduced in thread-index order at
  /// finalize. Accumulating into one shared double at thread exit would make
  /// the floating-point summation order follow thread *completion* order —
  /// results would then differ in the low bits across interleavings, and the
  /// stress-mode differential tests require bit-identical checksums under
  /// every schedule.
  std::vector<double> partials;
};

/// Deterministic per-(thread,walker,step) hash used to rotate the spline
/// window and to vary functional values without an RNG.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
                    c * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 29;
  return x;
}

/// Per-walker persistent device-resident state.
struct Walker {
  HostArray<double> pos;
  HostArray<double> vel;
  HostArray<double> psi;
  HostArray<double> grads;

  Walker(OffloadRuntime& rt, int t, int w, std::size_t doubles, int home)
      : pos{rt, doubles, "pos-t" + std::to_string(t) + "w" + std::to_string(w),
            home},
        vel{rt, doubles, "vel-t" + std::to_string(t) + "w" + std::to_string(w),
            home},
        psi{rt, doubles, "psi-t" + std::to_string(t) + "w" + std::to_string(w),
            home},
        grads{rt, doubles,
              "grads-t" + std::to_string(t) + "w" + std::to_string(w), home} {}
};

void run_thread(OffloadStack& stack, const QmcpackParams& params, int tid,
                const std::shared_ptr<SharedState>& shared) {
  OffloadRuntime& rt = stack.omp();
  const std::uint64_t page = stack.machine().page_bytes();
  // §III-A affinity: thread tid offloads to the GPU of its socket.
  const int threads = std::max(1, params.threads);
  const int device = tid * params.sockets / threads;
  const bool socket_leader =
      tid == 0 || (tid - 1) * params.sockets / threads != device;

  // --- ahead-of-time bulk transfer of the shared spline table -------------
  // One replica per socket, allocated and read from file by that socket's
  // leader thread.
  auto& my_spline = shared->spline[static_cast<std::size_t>(device)];
  auto& my_ready = shared->spline_ready[static_cast<std::size_t>(device)];
  if (socket_leader) {
    shared->spline_bytes = params.spline_bytes();
    my_spline = rt.host_alloc(shared->spline_bytes,
                              "nio-spline-s" + std::to_string(device), device);
    // Wavefunction coefficients are read from HDF5 on the host: the pages
    // are CPU-resident before the GPU ever sees them.
    rt.host_first_touch(AddrRange{my_spline, shared->spline_bytes});
    my_ready.set(stack.sched());
  } else {
    my_ready.wait(stack.sched());
  }
  const MapEntry spline_map = MapEntry::to(my_spline, shared->spline_bytes);
  rt.target_data_begin({&spline_map, 1}, device);

  // --- per-walker persistent arrays ---------------------------------------
  const std::size_t doubles = params.walker_buf_bytes() / sizeof(double);
  const std::size_t functional = std::min<std::size_t>(doubles, 64);
  std::vector<Walker> walkers;
  walkers.reserve(static_cast<std::size_t>(params.walkers_per_thread));
  HostArray<double> reduce1{rt, params.reduce_bytes / sizeof(double),
                            "reduce1-t" + std::to_string(tid), device};
  HostArray<double> reduce2{rt, params.reduce_bytes / sizeof(double),
                            "reduce2-t" + std::to_string(tid), device};
  HostArray<double> spline_params{rt, 512, "params-t" + std::to_string(tid),
                                  device};

  std::vector<MapEntry> persistent;
  for (int w = 0; w < params.walkers_per_thread; ++w) {
    walkers.emplace_back(rt, tid, w, doubles, device);
    Walker& wk = walkers.back();
    for (std::size_t i = 0; i < functional; ++i) {
      wk.pos[i] = 0.01 * static_cast<double>(i + w);
      wk.vel[i] = 0.0;
      wk.psi[i] = 1.0;
    }
    wk.pos.first_touch();
    wk.vel.first_touch();
    wk.psi.first_touch();
    wk.grads.first_touch();
    persistent.push_back(wk.pos.to());
    persistent.push_back(wk.vel.to());
    persistent.push_back(wk.psi.tofrom());
    persistent.push_back(wk.grads.tofrom());
  }
  reduce1.first_touch();
  reduce2.first_touch();
  spline_params.first_touch();
  persistent.push_back(reduce1.alloc());
  persistent.push_back(reduce2.alloc());
  persistent.push_back(spline_params.to());
  rt.target_data_begin(persistent, device);

  const sim::Duration c = params.kernel_compute();
  const std::uint64_t window_bytes = params.spline_window_pages * page;
  double acc = 0.0;

  // Regions whose shape is invariant across steps are built once per
  // walker; only the spline window and the step hash mutate per step.
  struct StepCtx {
    std::uint64_t h = 0;
  };
  struct WalkerRegions {
    StepCtx ctx;
    TargetRegion drift;
    TargetRegion det;
    TargetRegion accum;
  };
  std::vector<WalkerRegions> regions(
      static_cast<std::size_t>(params.walkers_per_thread));
  const VirtAddr r1 = reduce1.addr();
  for (int w = 0; w < params.walkers_per_thread; ++w) {
    WalkerRegions& wr = regions[static_cast<std::size_t>(w)];
    Walker& wk = walkers[static_cast<std::size_t>(w)];
    const VirtAddr posv = wk.pos.addr();
    const VirtAddr psiv = wk.psi.addr();
    StepCtx* const ctx = &wr.ctx;

    // Kernel A: drift/diffusion update of walker positions.
    wr.drift = TargetRegion{
        .name = "nio_drift",
        .maps = {MapEntry::always_tofrom(posv, wk.pos.bytes()),
                 MapEntry::always_to(wk.vel.addr(), wk.vel.bytes())},
        .uses = {BufferUse{my_spline, window_bytes, hsa::Access::Read}},
        .compute = c,
        .body =
            [posv, functional, ctx](hsa::KernelContext& kc,
                                    const omp::ArgTranslator& tr) {
              double* p = kc.ptr<double>(tr.device(posv), functional);
              for (std::size_t i = 0; i < functional; ++i) {
                p[i] += 1e-3 * static_cast<double>((ctx->h + i) % 7);
              }
            },
        .device = device,
    };

    // Kernel C: determinant update reading/writing psi and gradients.
    wr.det = TargetRegion{
        .name = "nio_det_update",
        .maps = {MapEntry::always_tofrom(psiv, wk.psi.bytes()),
                 MapEntry::always_tofrom(wk.grads.addr(), wk.grads.bytes())},
        .compute = c,
        .body =
            [psiv, posv, functional](hsa::KernelContext& kc,
                                     const omp::ArgTranslator& tr) {
              double* psi = kc.ptr<double>(tr.device(psiv), functional);
              const double* p = kc.ptr<double>(tr.device(posv), functional);
              for (std::size_t i = 0; i < functional; ++i) {
                psi[i] += 1e-6 * p[i];
              }
            },
        .device = device,
    };

    // Kernel D: cross-team reduction into host-allocated arrays, read on
    // the host right after (the pattern behind the paper's persistent
    // Eager-Maps-vs-Implicit-Z-C gap).
    wr.accum = TargetRegion{
        .name = "nio_accumulate",
        .maps = {MapEntry::always_tofrom(r1, reduce1.bytes()),
                 MapEntry::always_tofrom(reduce2.addr(), reduce2.bytes())},
        .compute = params.kernel_base,
        .body =
            [r1, psiv](hsa::KernelContext& kc, const omp::ArgTranslator& tr) {
              double* r = kc.ptr<double>(tr.device(r1), 1);
              const double* psi = kc.ptr<double>(tr.device(psiv), 1);
              r[0] += psi[0];
            },
        .device = device,
    };
  }

  const std::uint64_t spline_pages = shared->spline_bytes / page;
  const std::uint64_t win_pages =
      spline_pages > params.spline_window_pages
          ? spline_pages - params.spline_window_pages
          : 1;

  // --- Monte-Carlo steady state -------------------------------------------
  for (int step = 0; step < params.steps; ++step) {
    if (params.block_sync_period > 0 && step > 0 &&
        step % params.block_sync_period == 0) {
      // MC block boundary: all threads exchange walker statistics.
      shared->block_barrier.arrive_and_wait(stack.sched());
    }
    for (int w = 0; w < params.walkers_per_thread; ++w) {
      WalkerRegions& wr = regions[static_cast<std::size_t>(w)];
      wr.ctx.h =
          mix(static_cast<std::uint64_t>(tid), static_cast<std::uint64_t>(w),
              static_cast<std::uint64_t>(step));
      const VirtAddr window = my_spline + (wr.ctx.h % win_pages) * page;

      wr.drift.uses[0].addr = window;
      rt.target(wr.drift);

      // Kernel B: spline evaluation into a stack-allocated scratch buffer
      // (fresh host address every step -> Legacy Copy re-allocates device
      // storage for it on every map). The host fills in the evaluation
      // inputs first, so the fresh pages are CPU-resident when mapped.
      {
        HostArray<double> scratch{rt, params.scratch_bytes / sizeof(double),
                                  "scratch", device};
        scratch.first_touch();
        rt.target(TargetRegion{
            .name = "nio_spline_eval",
            .maps = {scratch.to(),
                     MapEntry::to(spline_params.addr(), spline_params.bytes())},
            .uses = {BufferUse{window, window_bytes, hsa::Access::Read}},
            .compute = c,
            .body = {},
            .device = device,
        });
        scratch.release();
      }

      rt.target(wr.det);
      rt.target(wr.accum);
      acc += reduce1[0];  // host-side consumption of the reduction
    }
  }

  rt.target_data_end(persistent, device);
  rt.target_data_end({&spline_map, 1}, device);
  for (Walker& wk : walkers) {
    wk.pos.release();
    wk.vel.release();
    wk.psi.release();
    wk.grads.release();
  }
  reduce1.release();
  reduce2.release();
  spline_params.release();
  shared->partials[static_cast<std::size_t>(tid)] = acc;
}

}  // namespace

Program make_qmcpack(const QmcpackParams& params) {
  // Fresh per-run shared state (the Program may be run repeatedly).
  auto slot = std::make_shared<std::shared_ptr<SharedState>>();
  Program program;
  program.binary.name = "qmcpack-nio-S" + std::to_string(params.size);
  program.setup_threads = [params, slot](OffloadStack& stack) {
    *slot = std::make_shared<SharedState>(params.threads, params.sockets);
    for (int t = 0; t < params.threads; ++t) {
      stack.sched().spawn("omp-host-" + std::to_string(t),
                          [&stack, params, t, shared = *slot] {
                            run_thread(stack, params, t, shared);
                          });
    }
  };
  program.finalize = [slot](OffloadStack&) {
    double checksum = 0.0;
    for (const double p : (*slot)->partials) {
      checksum += p;
    }
    return checksum;
  };
  return program;
}

}  // namespace zc::workloads

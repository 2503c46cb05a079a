#include "zc/workloads/openfoam.hpp"

#include <memory>
#include <string>

#include "zc/core/host_array.hpp"

namespace zc::workloads {

using mem::AddrRange;
using mem::VirtAddr;
using omp::BufferUse;
using omp::HostArray;
using omp::OffloadRuntime;
using omp::OffloadStack;
using omp::TargetRegion;

Program make_openfoam(const OpenfoamParams& params) {
  auto checksum = std::make_shared<double>(0.0);
  Program program;
  program.binary.name = "openfoam-pcg";
  // Built with `#pragma omp requires unified_shared_memory` in every
  // translation unit.
  program.binary.requires_unified_shared_memory = true;
  program.binary.globals.push_back(omp::GlobalVar{"relax", sizeof(double)});

  program.setup_threads = [params, checksum](OffloadStack& stack) {
    stack.sched().spawn("omp-host-0", [&stack, params, checksum] {
      OffloadRuntime& rt = stack.omp();

      // Mesh, matrix and field storage: plain host allocations; in USM the
      // GPU uses them directly, no mapping anywhere.
      const VirtAddr matrix =
          rt.host_alloc(params.matrix_bytes(), "foam-matrix");
      rt.host_first_touch(AddrRange{matrix, params.matrix_bytes()});
      HostArray<double> p{rt, static_cast<std::size_t>(params.cells), "foam-p"};
      HostArray<double> q{rt, static_cast<std::size_t>(params.cells), "foam-q"};
      HostArray<double> residual{rt, 8, "foam-residual"};
      const std::size_t functional = 64;
      for (std::size_t i = 0; i < functional; ++i) {
        p[i] = 1.0 + 0.001 * static_cast<double>(i);
      }
      p.first_touch();
      q.first_touch();
      residual.first_touch();

      // Solver control global, updated by the host between time steps and
      // read by kernels through the USM double indirection.
      const VirtAddr relax = rt.global_host_addr("relax");
      double* relax_host =
          stack.memory().space().translate_as<double>(relax, 1);
      *relax_host = 0.9;

      const VirtAddr pv = p.addr();
      const VirtAddr qv = q.addr();
      const VirtAddr rv = residual.addr();

      for (int ts = 0; ts < params.time_steps; ++ts) {
        *relax_host = 0.9 + 0.001 * static_cast<double>(ts % 7);
        for (int it = 0; it < params.pcg_iterations; ++it) {
          // SpMV: q = A * p (matrix streamed, fields updated in place).
          rt.target(TargetRegion{
              .name = "foam_spmv",
              .uses = {BufferUse{matrix, params.matrix_bytes(),
                                 hsa::Access::Read},
                       BufferUse{pv, p.bytes(), hsa::Access::Read},
                       BufferUse{qv, q.bytes(), hsa::Access::Write},
                       BufferUse{relax, sizeof(double), hsa::Access::Read}},
              .compute = params.spmv_compute,
              .body =
                  [pv, qv, relax, functional](hsa::KernelContext& ctx,
                                              const omp::ArgTranslator& tr) {
                    const double* pd =
                        ctx.ptr<double>(tr.device(pv), functional);
                    double* qd = ctx.ptr<double>(tr.device(qv), functional);
                    const double rf = *ctx.ptr<double>(tr.device(relax), 1);
                    for (std::size_t i = 0; i < functional; ++i) {
                      qd[i] = rf * pd[i] + (i > 0 ? 0.25 * pd[i - 1] : 0.0);
                    }
                  },
          });
          // Dot product with cross-team reduction into shared storage.
          rt.target(TargetRegion{
              .name = "foam_dot",
              .uses = {BufferUse{pv, p.bytes(), hsa::Access::Read},
                       BufferUse{qv, q.bytes(), hsa::Access::Read},
                       BufferUse{rv, residual.bytes(), hsa::Access::Write}},
              .compute = params.dot_compute,
              .body =
                  [pv, qv, rv, functional](hsa::KernelContext& ctx,
                                           const omp::ArgTranslator& tr) {
                    const double* pd =
                        ctx.ptr<double>(tr.device(pv), functional);
                    const double* qd =
                        ctx.ptr<double>(tr.device(qv), functional);
                    double dot = 0.0;
                    for (std::size_t i = 0; i < functional; ++i) {
                      dot += pd[i] * qd[i];
                    }
                    ctx.ptr<double>(tr.device(rv), 1)[0] = dot;
                  },
          });
          // Host-side convergence check: reads the GPU-written residual
          // directly from the one shared storage — the USM idiom.
          const double res = residual[0];
          if (res < 0.0) {
            break;  // never taken with this synthetic data; shape only
          }
          // AXPY field update.
          rt.target(TargetRegion{
              .name = "foam_axpy",
              .uses = {BufferUse{pv, p.bytes(), hsa::Access::ReadWrite},
                       BufferUse{qv, q.bytes(), hsa::Access::Read}},
              .compute = params.axpy_compute,
              .body =
                  [pv, qv, functional](hsa::KernelContext& ctx,
                                       const omp::ArgTranslator& tr) {
                    double* pd = ctx.ptr<double>(tr.device(pv), functional);
                    const double* qd =
                        ctx.ptr<double>(tr.device(qv), functional);
                    for (std::size_t i = 0; i < functional; ++i) {
                      pd[i] += 1e-4 * qd[i];
                    }
                  },
          });
        }
      }
      *checksum = residual[0] + p[0];
      p.release();
      q.release();
      residual.release();
      rt.host_free(matrix);
    });
  };
  program.finalize = [checksum](OffloadStack&) { return *checksum; };
  return program;
}

}  // namespace zc::workloads

#include "zc/workloads/oversubscribe.hpp"

#include <memory>
#include <string>
#include <vector>

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

int oversubscribe_chunks(const OversubscribeParams& p) {
  const double target =
      p.working_set_ratio * static_cast<double>(p.hbm_bytes);
  const auto chunks = static_cast<std::uint64_t>(
      (target + static_cast<double>(p.chunk_bytes) - 1.0) /
      static_cast<double>(p.chunk_bytes));
  return chunks < 1 ? 1 : static_cast<int>(chunks);
}

apu::Topology oversubscribed_topology(const OversubscribeParams& p) {
  apu::Topology t;
  t.hbm_bytes = p.hbm_bytes;
  return t;
}

namespace {

double oversubscribe_body(OffloadStack& stack, const OversubscribeParams& p) {
  OffloadRuntime& rt = stack.omp();
  const int chunks = oversubscribe_chunks(p);

  HostArray<double> acc{rt, 8, "oversub-acc", 0};
  acc.first_touch();
  const VirtAddr accv = acc.addr();

  // Warm the runtime the way a real application's first target op does:
  // the image and per-thread init land their pinned pool allocations on a
  // still-empty socket, before the working set oversubscribes it.
  rt.target(TargetRegion{
      .name = "oversub_warmup",
      .maps = {acc.always_tofrom()},
      .compute = sim::Duration::from_us(1),
      .body = [](hsa::KernelContext&, const omp::ArgTranslator&) {},
      .device = 0,
  });

  // The ballast: host-resident zero-copy pages totalling ratio * HBM.
  // Never read through a host pointer, so the backing stays unmaterialized
  // no matter how large the simulated working set is.
  std::vector<VirtAddr> ballast;
  ballast.reserve(static_cast<std::size_t>(chunks));
  for (int i = 0; i < chunks; ++i) {
    const VirtAddr b = rt.host_alloc(
        p.chunk_bytes, "oversub-ballast-" + std::to_string(i), 0);
    rt.host_first_touch(AddrRange{b, p.chunk_bytes});
    ballast.push_back(b);
  }

  HostArray<double> data{rt, static_cast<std::size_t>(p.data_bytes / 8),
                         "oversub-data", 0};
  data.first_touch();

  const VirtAddr datav = data.addr();
  for (int s = 0; s < p.sweeps; ++s) {
    for (int i = 0; i < chunks; ++i) {
      const VirtAddr b = ballast[static_cast<std::size_t>(i)];
      // Phase-scoped device presence: the chunk's pool copy (Legacy Copy)
      // or mapping bookkeeping (zero-copy) lives only for this phase, so
      // the pool peak stays one chunk even at 4x oversubscription.
      const std::vector<MapEntry> phase_maps{
          MapEntry::alloc(b, p.chunk_bytes), data.tofrom()};
      rt.target_data_begin(phase_maps, 0);
      rt.target(TargetRegion{
          .name = "oversub_sweep",
          .maps = {acc.always_tofrom()},
          .uses = {BufferUse{b, p.chunk_bytes, hsa::Access::Read},
                   BufferUse{datav, p.data_bytes, hsa::Access::ReadWrite}},
          .compute = p.per_kernel_compute,
          .body =
              [accv, datav, s, i](hsa::KernelContext& ctx,
                                  const omp::ArgTranslator& tr) {
                double* cell = ctx.ptr<double>(tr.device(datav), 1);
                cell[0] += static_cast<double>((s + 1) * (i + 1));
                ctx.ptr<double>(tr.device(accv), 1)[0] += cell[0];
              },
          .device = 0,
      });
      rt.target_data_end(phase_maps, 0);
    }
  }

  // Both the accumulator and the mapped-back data cell enter the checksum:
  // the identity check across configurations covers the copy-in/copy-out,
  // OOM-fallback, and reclaim/promote paths end to end.
  const double result = acc[0] + data[0];
  acc.release();
  data.release();
  for (const VirtAddr b : ballast) {
    rt.host_free(b);
  }
  return result;
}

}  // namespace

Program make_oversubscribe(const OversubscribeParams& params) {
  auto checksum = std::make_shared<double>(0.0);
  Program program;
  program.binary.name = "oversubscribe";
  program.setup_threads = [params, checksum](OffloadStack& stack) {
    stack.sched().spawn("omp-host-0", [&stack, params, checksum] {
      *checksum = oversubscribe_body(stack, params);
    });
  };
  program.finalize = [checksum](OffloadStack&) { return *checksum; };
  return program;
}

}  // namespace zc::workloads

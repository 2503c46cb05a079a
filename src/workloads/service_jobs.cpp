#include "zc/workloads/service_jobs.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "zc/core/host_array.hpp"

namespace zc::workloads {

using mem::VirtAddr;
using omp::BufferUse;
using omp::HostArray;
using omp::MapEntry;
using omp::OffloadRuntime;
using omp::OffloadStack;
using omp::TargetRegion;

namespace {

/// Same deterministic hash the workloads use (qmcpack.cpp); duplicated
/// here because it is an implementation detail of each workload's
/// functional arithmetic, not a shared API.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
                    c * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 29;
  return x;
}

std::uint64_t job_seed(const ServiceJobSpec& spec) {
  return mix(static_cast<std::uint64_t>(spec.tenant), spec.id,
             static_cast<std::uint64_t>(spec.flavor));
}

/// Functional cell value for kernel `k`, element `i`. Small exact
/// multiples of 1e-6 summed over a prefix of <= 64 elements in index
/// order: the same arithmetic in the same order is bit-identical whether
/// it runs in a kernel body or in `service_job_checksum`.
double val(std::uint64_t seed, std::uint64_t k, std::uint64_t i) {
  return 1e-6 * static_cast<double>(mix(seed, k, i) % 1024);
}

struct Shape {
  std::size_t doubles = 0;     ///< elements per working-set array
  std::size_t functional = 0;  ///< prefix the kernels actually compute on
};

Shape shape_of(const ServiceJobSpec& spec, std::uint64_t page_bytes) {
  Shape s;
  s.doubles = static_cast<std::size_t>(spec.pages * page_bytes /
                                       sizeof(double));
  s.functional = std::min<std::size_t>(s.doubles, 64);
  return s;
}

std::string job_tag(const ServiceJobSpec& spec) {
  // Appended piece by piece: GCC 12 flags `"t" + std::to_string(n)` with a
  // false-positive -Wrestrict.
  std::string tag = "t";
  tag += std::to_string(spec.tenant);
  tag += 'j';
  tag += std::to_string(spec.id);
  return tag;
}

/// Persistent arrays + kernel burst (map traffic only at the edges). The
/// kernel bodies *assign* rather than accumulate: a watchdog replay of an
/// aborted kernel then re-derives the same cells instead of doubling them.
double run_compute(OffloadStack& stack, const ServiceJobSpec& spec,
                   const Shape& sh) {
  OffloadRuntime& rt = stack.omp();
  const std::uint64_t seed = job_seed(spec);
  HostArray<double> data{rt, sh.doubles, "svc-data-" + job_tag(spec),
                         spec.device};
  HostArray<double> out{rt, std::max<std::size_t>(sh.functional, 1),
                        "svc-out-" + job_tag(spec), spec.device};
  for (std::size_t i = 0; i < sh.functional; ++i) {
    data[i] = val(seed, 0, i);
    out[i] = 0.0;
  }
  data.first_touch();
  out.first_touch();

  const std::vector<MapEntry> persistent{data.tofrom(), out.tofrom()};
  rt.target_data_begin(persistent, spec.device);
  const VirtAddr datav = data.addr();
  const VirtAddr outv = out.addr();
  const std::size_t functional = sh.functional;
  try {
    for (int k = 0; k < spec.kernels; ++k) {
      rt.target(TargetRegion{
          .name = "svc_compute",
          .maps = {data.always_tofrom(), out.always_tofrom()},
          .compute = spec.kernel_compute,
          .body =
              [datav, outv, functional, seed, k](
                  hsa::KernelContext& kc, const omp::ArgTranslator& tr) {
                double* d = kc.ptr<double>(tr.device(datav), functional);
                double* o = kc.ptr<double>(tr.device(outv), functional);
                const auto ku = static_cast<std::uint64_t>(k);
                for (std::size_t i = 0; i < functional; ++i) {
                  d[i] = val(seed, ku, i);
                  o[i] = d[i] + val(seed, ku, i + 64);
                }
              },
          .device = spec.device,
      });
    }
  } catch (...) {
    // Best-effort unmap so a failed job does not pin device storage for
    // the rest of the service run (Copy-managed configurations allocate
    // pool memory per map). A data-end that itself fails is swallowed —
    // the original error is the one the service reports.
    try {
      rt.target_data_end(persistent, spec.device);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    throw;
  }
  rt.target_data_end(persistent, spec.device);

  double acc = 0.0;
  for (std::size_t i = 0; i < sh.functional; ++i) {
    acc += out[i];
  }
  data.release();
  out.release();
  return acc;
}

/// Fresh bulk buffer mapped and swept per kernel (the mapping-path
/// stressor). Nothing persists between kernels, so the error path needs
/// no unmap — HostArray reclaims on unwind.
double run_stream(OffloadStack& stack, const ServiceJobSpec& spec,
                  const Shape& sh) {
  OffloadRuntime& rt = stack.omp();
  const std::uint64_t seed = job_seed(spec);
  const std::size_t functional = sh.functional;
  double acc = 0.0;
  for (int k = 0; k < spec.kernels; ++k) {
    HostArray<double> scratch{
        rt, sh.doubles,
        "svc-stream-" + job_tag(spec) + "k" + std::to_string(k), spec.device};
    for (std::size_t i = 0; i < functional; ++i) {
      scratch[i] = 0.0;
    }
    scratch.first_touch();
    const VirtAddr sv = scratch.addr();
    rt.target(TargetRegion{
        .name = "svc_stream",
        .maps = {scratch.always_tofrom()},
        .compute = spec.kernel_compute,
        .body =
            [sv, functional, seed, k](hsa::KernelContext& kc,
                                      const omp::ArgTranslator& tr) {
              double* s = kc.ptr<double>(tr.device(sv), functional);
              const auto ku = static_cast<std::uint64_t>(k);
              for (std::size_t i = 0; i < functional; ++i) {
                s[i] = val(seed, ku, i);
              }
            },
        .device = spec.device,
    });
    for (std::size_t i = 0; i < functional; ++i) {
      acc += scratch[i];
    }
    scratch.release();
  }
  return acc;
}

/// Explicit staging buffer fed by `omp_target_memcpy` — the only flavor
/// whose steady state crosses the SDMA engines under Implicit Zero-Copy
/// (stage-in before the kernels, stage-out after). The pool buffer is
/// freed on the error path too: a hung tenant must not leak HBM into its
/// neighbours' admission budget.
double run_staged(OffloadStack& stack, const ServiceJobSpec& spec,
                  const Shape& sh) {
  OffloadRuntime& rt = stack.omp();
  const std::uint64_t seed = job_seed(spec);
  const std::uint64_t bytes = sh.doubles * sizeof(double);
  const std::size_t functional = sh.functional;

  HostArray<double> src{rt, sh.doubles, "svc-src-" + job_tag(spec),
                        spec.device};
  HostArray<double> result{rt, std::max<std::size_t>(sh.functional, 1),
                           "svc-result-" + job_tag(spec), spec.device};
  for (std::size_t i = 0; i < functional; ++i) {
    src[i] = val(seed, 0, i);
    result[i] = 0.0;
  }
  src.first_touch();
  result.first_touch();

  const VirtAddr dev =
      rt.device_alloc(bytes, "svc-stage-" + job_tag(spec), spec.device);
  double acc = 0.0;
  try {
    rt.target_memcpy(dev, src.addr(), bytes);  // stage in (SDMA)
    const VirtAddr resultv = result.addr();
    for (int k = 0; k < spec.kernels; ++k) {
      rt.target(TargetRegion{
          .name = "svc_staged",
          .maps = {result.always_tofrom()},
          .uses = {BufferUse{dev, bytes, hsa::Access::Read}},
          .compute = spec.kernel_compute,
          .body =
              [resultv, functional, seed, k](hsa::KernelContext& kc,
                                             const omp::ArgTranslator& tr) {
                double* r = kc.ptr<double>(tr.device(resultv), functional);
                const auto ku = static_cast<std::uint64_t>(k);
                for (std::size_t i = 0; i < functional; ++i) {
                  r[i] = val(seed, ku, i);
                }
              },
          .device = spec.device,
      });
    }
    rt.target_memcpy(src.addr(), dev, bytes);  // stage out (SDMA)
    for (std::size_t i = 0; i < functional; ++i) {
      acc += result[i];
    }
  } catch (...) {
    rt.device_free(dev);
    throw;
  }
  rt.device_free(dev);
  src.release();
  result.release();
  return acc;
}

}  // namespace

std::uint64_t job_footprint_bytes(const ServiceJobSpec& spec,
                                  std::uint64_t page_bytes) {
  // Worst case over the configurations, counting BOTH sides of the APU's
  // single physical HBM: the host working set itself, plus the same bytes
  // again for what lives in the device pool at peak (Copy-managed map
  // copies, or Staged's explicit staging buffer). One extra page per side
  // covers the small out/result array. Charging the union keeps admission
  // sound on capped sockets where `device_alloc` would otherwise be able
  // to exhaust the pool mid-job.
  switch (spec.flavor) {
    case JobFlavor::Compute:
    case JobFlavor::Staged:
      return 2 * (spec.pages + 1) * page_bytes;
    case JobFlavor::Stream:
      return 2 * spec.pages * page_bytes;
  }
  return 2 * spec.pages * page_bytes;
}

double service_job_checksum(const ServiceJobSpec& spec,
                            std::uint64_t page_bytes) {
  const Shape sh = shape_of(spec, page_bytes);
  const std::uint64_t seed = job_seed(spec);
  const auto last = static_cast<std::uint64_t>(
      spec.kernels > 0 ? spec.kernels - 1 : 0);
  double acc = 0.0;
  switch (spec.flavor) {
    case JobFlavor::Compute:
      // Kernels assign; the checksum reads the last kernel's cells.
      if (spec.kernels > 0) {
        for (std::size_t i = 0; i < sh.functional; ++i) {
          acc += val(seed, last, i) + val(seed, last, i + 64);
        }
      }
      return acc;
    case JobFlavor::Stream:
      for (int k = 0; k < spec.kernels; ++k) {
        for (std::size_t i = 0; i < sh.functional; ++i) {
          acc += val(seed, static_cast<std::uint64_t>(k), i);
        }
      }
      return acc;
    case JobFlavor::Staged:
      if (spec.kernels > 0) {
        for (std::size_t i = 0; i < sh.functional; ++i) {
          acc += val(seed, last, i);
        }
      }
      return acc;
  }
  return acc;
}

double run_service_job(OffloadStack& stack, const ServiceJobSpec& spec) {
  const Shape sh = shape_of(spec, stack.machine().page_bytes());
  switch (spec.flavor) {
    case JobFlavor::Compute:
      return run_compute(stack, spec, sh);
    case JobFlavor::Stream:
      return run_stream(stack, spec, sh);
    case JobFlavor::Staged:
      return run_staged(stack, spec, sh);
  }
  return 0.0;
}

}  // namespace zc::workloads

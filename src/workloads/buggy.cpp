#include "zc/workloads/buggy.hpp"

#include <cstddef>
#include <memory>

#include "zc/core/host_array.hpp"

namespace zc::workloads {

using omp::ArgTranslator;
using omp::BufferUse;
using omp::HostArray;
using omp::MapEntry;
using omp::OffloadRuntime;
using omp::OffloadStack;
using omp::TargetRegion;
using sim::literals::operator""_us;

namespace {

/// Corpus buffers are one small page of doubles: large enough to exercise
/// page-granularity accounting, small enough that every config runs fast.
constexpr std::size_t kN = 512;

/// Deterministic functional values; the virtual first touch that models
/// the write must already have been recorded by the caller.
void fill(HostArray<double>& a, double scale, double bias) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = scale * static_cast<double>(i) + bias;
  }
}

/// One single-threaded Program around `body(rt, checksum_out)`.
template <typename Body>
Program single_thread_program(const char* name, Body body) {
  auto slot = std::make_shared<double>(0.0);
  Program program;
  program.binary.name = name;
  program.setup_threads = [slot, body](OffloadStack& stack) {
    *slot = 0.0;
    stack.sched().spawn("buggy-main", [&stack, slot, body] {
      body(stack.omp(), *slot);
    });
  };
  program.finalize = [slot](OffloadStack&) { return *slot; };
  return program;
}

}  // namespace

Program make_buggy_missing_map() {
  return single_thread_program(
      "buggy-missing-map", [](OffloadRuntime& rt, double& out) {
        HostArray<double> mapped{rt, kN, "mapped"};
        HostArray<double> orphan{rt, kN, "orphan"};
        mapped.first_touch();
        fill(mapped, 1.0, 0.0);
        orphan.first_touch();
        fill(orphan, 2.0, 1.0);
        double sum = 0.0;
        // The bug: `orphan` is consumed from the "enclosing data
        // environment" without any enclosing map. Zero-copy translates it
        // to itself; Legacy Copy has no device copy to hand the kernel.
        TargetRegion region{
            .name = "use-orphan",
            .maps = {mapped.to()},
            .uses = {BufferUse{orphan.addr(), orphan.bytes(),
                               hsa::Access::Read}},
            .compute = 5_us,
            .body =
                [&](hsa::KernelContext& ctx, const ArgTranslator& tr) {
                  const double* m =
                      ctx.ptr<double>(tr.device(mapped.addr()), kN);
                  const double* o =
                      ctx.ptr<double>(tr.device(orphan.addr()), kN);
                  for (std::size_t i = 0; i < kN; ++i) {
                    sum += m[i] + o[i];
                  }
                }};
        rt.target(region);
        out = sum;
        mapped.release();
        orphan.release();
      });
}

Program make_buggy_stale_data() {
  return single_thread_program(
      "buggy-stale-data", [](OffloadRuntime& rt, double& out) {
        HostArray<double> x{rt, kN, "x"};
        x.first_touch();
        fill(x, 1.0, 0.0);
        const MapEntry enter = x.to();
        rt.target_enter_data({&enter, 1});
        TargetRegion region{
            .name = "double-x",
            .maps = {},
            .uses = {BufferUse{x.addr(), x.bytes(), hsa::Access::ReadWrite}},
            .compute = 5_us,
            .body =
                [&](hsa::KernelContext& ctx, const ArgTranslator& tr) {
                  double* p = ctx.ptr<double>(tr.device(x.addr()), kN);
                  for (std::size_t i = 0; i < kN; ++i) {
                    p[i] *= 2.0;
                  }
                }};
        rt.target(region);
        // The bug: the mapping exits with `delete` (no copy-back) and the
        // host reads the result without a `target update from`. Zero-copy
        // configs see the doubled values; Legacy Copy reads the stale
        // pre-kernel host copy.
        const MapEntry del = MapEntry::del(x.addr(), x.bytes());
        rt.target_exit_data({&del, 1});
        rt.host_read(x.range());
        double sum = 0.0;
        for (std::size_t i = 0; i < kN; ++i) {
          sum += x[i];
        }
        out = sum;
        x.release();
      });
}

Program make_buggy_double_delete() {
  return single_thread_program(
      "buggy-double-delete", [](OffloadRuntime& rt, double& out) {
        HostArray<double> x{rt, kN, "x"};
        x.first_touch();
        fill(x, 1.0, 0.0);
        const MapEntry map = x.tofrom();
        rt.target_enter_data({&map, 1});
        rt.target_enter_data({&map, 1});  // refcount 2
        TargetRegion region{
            .name = "double-x",
            .maps = {},
            .uses = {BufferUse{x.addr(), x.bytes(), hsa::Access::ReadWrite}},
            .compute = 5_us,
            .body =
                [&](hsa::KernelContext& ctx, const ArgTranslator& tr) {
                  double* p = ctx.ptr<double>(tr.device(x.addr()), kN);
                  for (std::size_t i = 0; i < kN; ++i) {
                    p[i] *= 2.0;
                  }
                }};
        rt.target(region);
        // The bug: `delete` drops the mapping regardless of the refcount,
        // so the structured `exit data tofrom` that follows releases a
        // range that is no longer mapped — a mapping violation under
        // Legacy Copy, a silent no-op under zero-copy.
        const MapEntry del = MapEntry::del(x.addr(), x.bytes());
        rt.target_exit_data({&del, 1});
        const MapEntry exit = x.tofrom();
        rt.target_exit_data({&exit, 1});
        double sum = 0.0;
        for (std::size_t i = 0; i < kN; ++i) {
          sum += x[i];
        }
        out = sum;
        x.release();
      });
}

Program make_buggy_coherence() {
  return single_thread_program(
      "buggy-coherence", [](OffloadRuntime& rt, double& out) {
        HostArray<double> x{rt, kN, "x"};
        HostArray<double> result{rt, 64, "result"};
        x.first_touch();
        fill(x, 1.0, 0.0);
        result.first_touch();
        result[0] = 0.0;
        const MapEntry enter = x.to();
        rt.target_enter_data({&enter, 1});
        // The bug: the host rewrites the mapped buffer *after* the `to`
        // map snapshotted it, with no `always` modifier or `update to`
        // before the kernel reads it. Zero-copy kernels see the rewrite;
        // Legacy Copy kernels read the stale device snapshot.
        rt.host_first_touch(x.range());
        fill(x, 2.0, 1.0);
        TargetRegion region{
            .name = "sum-x",
            .maps = {result.tofrom()},
            .uses = {BufferUse{x.addr(), x.bytes(), hsa::Access::Read}},
            .compute = 5_us,
            .body =
                [&](hsa::KernelContext& ctx, const ArgTranslator& tr) {
                  const double* p = ctx.ptr<double>(tr.device(x.addr()), kN);
                  double* r = ctx.ptr<double>(tr.device(result.addr()), 1);
                  for (std::size_t i = 0; i < kN; ++i) {
                    r[0] += p[i];
                  }
                }};
        rt.target(region);
        const MapEntry del = MapEntry::del(x.addr(), x.bytes());
        rt.target_exit_data({&del, 1});
        out = result[0];
        result.release();
        x.release();
      });
}

Program make_buggy_nowait_race() {
  return single_thread_program(
      "buggy-nowait-race", [](OffloadRuntime& rt, double& out) {
        HostArray<double> x{rt, kN, "x"};
        x.first_touch();
        fill(x, 1.0, 0.0);
        TargetRegion region{.name = "inflight",
                            .maps = {x.tofrom()},
                            .compute = 50_us,
                            .body = {}};
        omp::TargetTask task = rt.target_nowait(region);
        // The bug: the kernel is still in flight — this host write has no
        // happens-before path from the kernel's page accesses. The static
        // verifier cannot prove `x` safe (nowait), so a pruned detector
        // run must still instrument it and report the race.
        rt.host_first_touch(x.range());
        rt.target_wait(task);
        double sum = 0.0;
        for (std::size_t i = 0; i < kN; ++i) {
          sum += x[i];
        }
        out = sum;
        x.release();
      });
}

}  // namespace zc::workloads

// Characterization of the run-end telemetry on three runs that cover a
// multi-APU node, the Legacy Copy path and the multi-tenant service under
// overload with injected faults. It pins every per-device counter, the
// node-wide kernel sums, the Table III ledger, the per-call statistics,
// the record counts and each tenant's counters and sojourn quantiles.
//
// The values were taken from the implementation that kept the kernel and
// copy sums in per-trace summary objects, a per-tenant counter struct of
// its own and a streaming quantile sketch. Giving each fact one home must
// not move any of them. The only deliberate difference is the quantiles:
// they are now the exact order statistic at rank floor(p * (n - 1)) over
// the tenant's completed jobs, which the sketch approximated to 1/256
// relative.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "zc/service/service.hpp"
#include "zc/workloads/qmcpack.hpp"
#include "zc/workloads/runner.hpp"

namespace zc::workloads {
namespace {

using namespace zc::sim::literals;
using omp::RuntimeConfig;
using trace::HsaCall;

constexpr std::size_t kCalls = static_cast<std::size_t>(HsaCall::kCount);

/// One device's ten counters, in declaration order.
using DeviceRow = std::array<std::uint64_t, 10>;

DeviceRow row(const hsa::DeviceCounters& c) {
  return {c.kernels, c.remote_kernels, c.page_faults, c.tlb_misses,
          c.copies, c.copy_bytes, c.cross_socket_copies, c.migrated_pages,
          c.evicted_pages, c.promoted_pages};
}

/// Node-wide kernel sums; durations in nanoseconds.
struct KernelTotals {
  std::uint64_t launches = 0;
  std::int64_t gpu_ns = 0;
  std::int64_t compute_ns = 0;
  std::int64_t fault_stall_ns = 0;
  std::int64_t tlb_stall_ns = 0;
  std::uint64_t page_faults = 0;
};

KernelTotals kernel_totals(const RunResult& r) {
  const hsa::DeviceCounters t = r.totals();
  return {t.kernels,
          t.gpu_time.ns(),
          t.compute.ns(),
          t.fault_stall.ns(),
          t.tlb_stall.ns(),
          t.page_faults};
}

/// Records the runtime kept, read on the live stack before teardown.
struct RecordCounts {
  std::size_t kernels = 0;
  std::size_t copies = 0;
};

RecordCounts record_counts(omp::OffloadStack& stack) {
  return {stack.hsa().kernel_records().size(),
          stack.hsa().copy_records().size()};
}

/// Wrap `p.finalize` so the run also reports the runtime's record counts.
std::shared_ptr<RecordCounts> capture_records(Program& p) {
  auto counts = std::make_shared<RecordCounts>();
  p.finalize = [inner = p.finalize, counts](omp::OffloadStack& stack) {
    *counts = record_counts(stack);
    return inner ? inner(stack) : 0.0;
  };
  return counts;
}

struct Pinned {
  std::vector<DeviceRow> devices;
  KernelTotals kernels;
  std::int64_t mm_ns = 0;
  std::int64_t mi_ns = 0;
  std::array<std::uint64_t, kCalls> call_counts{};
  std::array<std::int64_t, kCalls> call_ns{};
};

void expect_pinned(const RunResult& r, const Pinned& want) {
  ASSERT_EQ(r.devices.size(), want.devices.size());
  for (std::size_t d = 0; d < want.devices.size(); ++d) {
    EXPECT_EQ(row(r.devices[d].counters), want.devices[d]) << "device " << d;
  }
  const KernelTotals k = kernel_totals(r);
  EXPECT_EQ(k.launches, want.kernels.launches);
  EXPECT_EQ(k.gpu_ns, want.kernels.gpu_ns);
  EXPECT_EQ(k.compute_ns, want.kernels.compute_ns);
  EXPECT_EQ(k.fault_stall_ns, want.kernels.fault_stall_ns);
  EXPECT_EQ(k.tlb_stall_ns, want.kernels.tlb_stall_ns);
  EXPECT_EQ(k.page_faults, want.kernels.page_faults);
  EXPECT_EQ(r.ledger.mm().ns(), want.mm_ns);
  EXPECT_EQ(r.ledger.mi().ns(), want.mi_ns);
  for (std::size_t c = 0; c < kCalls; ++c) {
    const auto call = static_cast<HsaCall>(c);
    EXPECT_EQ(r.stats.count(call), want.call_counts[c]) << to_string(call);
    EXPECT_EQ(r.stats.total_latency(call).ns(), want.call_ns[c])
        << to_string(call);
  }
}

/// Two host threads on a 2-socket xgmi node, each homing a buffer on its
/// own socket: three local launches, then one deliberately misplaced
/// launch on the other socket that reaches the buffer over the fabric.
Program two_socket_program() {
  Program p;
  p.binary.name = "two-way";
  p.setup_threads = [](omp::OffloadStack& stack) {
    for (int d = 0; d < 2; ++d) {
      stack.sched().spawn("omp-host-" + std::to_string(d), [&stack, d] {
        omp::OffloadRuntime& rt = stack.omp();
        const std::uint64_t bytes = 4 * stack.machine().page_bytes();
        std::string name = "buf-";
        name += std::to_string(d);
        const mem::VirtAddr buf =
            rt.host_alloc(bytes, std::move(name), /*home_socket=*/d);
        rt.host_first_touch(mem::AddrRange{buf, bytes});
        for (int i = 0; i < 3; ++i) {
          rt.target(omp::TargetRegion{
              .name = "work",
              .maps = {omp::MapEntry::tofrom(buf, bytes)},
              .compute = sim::Duration::microseconds(100 + 10 * d),
              .body = {},
              .device = d,
          });
        }
        rt.target(omp::TargetRegion{
            .name = "remote",
            .maps = {omp::MapEntry::tofrom(buf, bytes)},
            .compute = 100_us,
            .body = {},
            .device = (d + 1) % 2,
        });
        rt.host_free(buf);
      });
    }
  };
  p.finalize = [](omp::OffloadStack&) { return 1.0; };
  return p;
}

TEST(TelemetryCharacterization, TwoSocketZeroCopyWithARemoteKernel) {
  Program p = two_socket_program();
  const std::shared_ptr<RecordCounts> records = capture_records(p);
  const RunResult r = run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy,
                                      .keep_kernel_records = true,
                                      .sockets = 2,
                                      .fabric_spec = "xgmi"});
  expect_pinned(r, {.devices = {{4, 1, 8, 8, 3, 196608, 0, 0, 0, 0},
                                {4, 1, 8, 8, 0, 0, 0, 0, 0, 0}},
                    .kernels = {8, 1165170, 969000, 170250, 1920, 16},
                    .mm_ns = 0,
                    .mi_ns = 170250,
                    .call_counts = {0, 9, 0, 29, 0, 3, 8, 0},
                    .call_ns = {0, 1171501, 0, 13548000, 0, 17193, 12000, 0}});
  EXPECT_EQ(records->kernels, 8u);
  EXPECT_EQ(records->copies, 3u);
  EXPECT_EQ(r.kernel_records.size(), 8u);
}

TEST(TelemetryCharacterization, LegacyCopyQmcpack) {
  QmcpackParams params;
  params.size = 2;
  params.threads = 2;
  params.walkers_per_thread = 2;
  params.steps = 3;
  Program p = make_qmcpack(params);
  const std::shared_ptr<RecordCounts> records = capture_records(p);
  const RunResult r = run_program(
      p, {.config = RuntimeConfig::LegacyCopy, .keep_kernel_records = true});
  expect_pinned(r, {.devices = {{48, 0, 0, 114, 174, 203005952, 0, 0, 0, 0}},
                    .kernels = {48, 1357680, 1200000, 0, 13680, 0},
                    .mm_ns = 20431608,
                    .mi_ns = 0,
                    .call_counts = {0, 138, 68, 64, 35, 174, 48, 0},
                    .call_ns = {0, 9960969, 68000, 23568000, 1170000, 9258801,
                                72000, 0}});
  EXPECT_EQ(records->kernels, 48u);
  EXPECT_EQ(records->copies, 174u);
  EXPECT_EQ(r.kernel_records.size(), 48u);
}

/// The order statistic at rank floor(p * (n - 1)) of one tenant's
/// completed-job sojourns, in microseconds.
double sojourn_quantile(const std::vector<trace::ServiceJobRecord>& jobs,
                        int tenant, double p) {
  std::vector<double> us;
  for (const trace::ServiceJobRecord& j : jobs) {
    if (j.tenant == tenant &&
        j.outcome == trace::ServiceJobOutcome::Completed) {
      us.push_back(j.sojourn().us());
    }
  }
  std::sort(us.begin(), us.end());
  if (us.empty()) {
    return 0.0;
  }
  return us[static_cast<std::size_t>(p * static_cast<double>(us.size() - 1))];
}

/// fig_service's 2x-overload cell under the full policy, with its chaos
/// fault mix, at the --quick job count.
service::ServiceParams overload_full_params() {
  service::ServiceParams p;
  p.config.tenants = 4;
  p.config.policy = apu::ServicePolicy::Full;
  p.workers = 4;
  p.arrival.tenants = 4;
  p.arrival.sockets = 2;
  p.arrival.jobs = 96;
  p.arrival.base_interarrival = 1000_us;
  p.arrival.kernel_compute = 50_us;
  p.arrival.seed = 1;
  p.base.config = RuntimeConfig::LegacyCopy;
  apu::Topology topology;
  topology.sockets = 2;
  topology.hbm_bytes = 512ULL << 20;
  p.base.topology = topology;
  p.base.seed = 1;
  p.queue_limit = 6;
  p.base.fault_spec =
      "sdma_stall@p=0.03:x40;tenant_burst@p=0.05:x6;"
      "admission_flap@p=0.1;evict_storm@p=0.2:x4";
  p.base.watchdog_spec = "500us:recover";
  p.base.pressure_spec = "watermarks";
  return p;
}

/// One tenant's HSA counters (kernels, copies, copy bytes, page faults) and
/// its p50/p99/p999 sojourn in microseconds as the quantile sketch
/// reported them.
struct TenantPin {
  std::array<std::uint64_t, 4> counters;
  std::array<double, 3> sketch_us;
};

TEST(TelemetryCharacterization, ServiceOverloadUnderTheFullPolicy) {
  const service::ServiceResult s = service::run_service(overload_full_params());
  // The fault term carries the pressure driver work: no page faults and no
  // MI, yet a nonzero fault stall.
  expect_pinned(s.run,
                {.devices = {{145, 0, 0, 295, 127, 503535744, 0, 0, 0, 0},
                             {119, 0, 0, 539, 149, 1587566208, 0, 0, 0, 0}},
                 .kernels = {264, 31003639, 13110000, 17001559, 100080, 0},
                 .mm_ns = 139280758,
                 .mi_ns = 0,
                 .call_counts = {0, 500, 150, 160, 101, 276, 264, 158},
                 .call_ns = {0, 129343062, 150000, 57220000, 4756000, 88137401,
                             396000, 3692550}});
  constexpr TenantPin kTenants[] = {
      {{65, 60, 266347520, 0}, {14304, 24768, 24768}},
      {{61, 58, 767568896, 0}, {22848, 31040, 31040}},
      {{79, 62, 236991488, 0}, {15072, 24000, 24000}},
      {{57, 89, 819997184, 0}, {22592, 32704, 32704}},
  };
  constexpr double kQuantiles[] = {0.50, 0.99, 0.999};
  ASSERT_EQ(s.run.service_tenants.size(), std::size(kTenants));
  for (std::size_t t = 0; t < std::size(kTenants); ++t) {
    const TenantServiceStats& got = s.run.service_tenants[t];
    const TenantPin& want = kTenants[t];
    EXPECT_EQ(got.counters.kernels, want.counters[0]) << "tenant " << t;
    EXPECT_EQ(got.counters.copies, want.counters[1]) << "tenant " << t;
    EXPECT_EQ(got.counters.copy_bytes, want.counters[2]) << "tenant " << t;
    EXPECT_EQ(got.counters.page_faults, want.counters[3]) << "tenant " << t;
    const double quantiles[] = {got.p50_us, got.p99_us, got.p999_us};
    for (std::size_t q = 0; q < std::size(kQuantiles); ++q) {
      const double exact =
          sojourn_quantile(s.jobs, got.tenant, kQuantiles[q]);
      EXPECT_EQ(quantiles[q], exact)
          << "tenant " << t << " p" << kQuantiles[q];
      EXPECT_NEAR(quantiles[q], want.sketch_us[q], want.sketch_us[q] / 256.0)
          << "tenant " << t << " p" << kQuantiles[q];
    }
  }
}

}  // namespace
}  // namespace zc::workloads

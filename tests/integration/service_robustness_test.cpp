// The multi-tenant service robustness suite — the PR's acceptance bar:
// under 2x-overload open-loop arrival with injected faults, the full
// policy must (a) never exhaust HBM, (b) never retire a wrong answer,
// (c) shed only with typed retry-after errors, (d) bound admitted p99
// versus the policy-off collapse baseline, (e) isolate a hang-faulted
// tenant behind its own circuit breaker while clean tenants keep
// bit-identical checksums, and (f) reproduce every per-tenant stat
// bit-for-bit on a same-seed rerun.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "zc/service/service.hpp"

namespace zc::service {
namespace {

using apu::ServicePolicy;
using omp::ErrorCode;
using omp::RuntimeConfig;
using trace::FaultEvent;
using workloads::JobFlavor;
using workloads::TenantServiceStats;

/// 512 MB sockets (the pinned runtime image takes ~a quarter): small
/// enough that un-gated concurrent Copy-config jobs can collide with
/// capacity, which is exactly what admission control must prevent.
apu::Topology capped_topology(int sockets = 1) {
  apu::Topology t;
  t.sockets = sockets;
  t.hbm_bytes = 512ULL << 20;
  return t;
}

/// ~6x the service rate: two workers, ~200 us of kernel time per job,
/// arrivals every 25 us. Queues overflow, the full policy must shed.
ServiceParams overload_params(ServicePolicy policy, std::uint64_t seed = 1) {
  ServiceParams p;
  p.config.tenants = 4;
  p.config.policy = policy;
  p.workers = 2;
  p.arrival.tenants = 4;
  p.arrival.jobs = 240;
  p.arrival.base_interarrival = sim::Duration::microseconds(25);
  p.arrival.kernel_compute = sim::Duration::microseconds(50);
  p.arrival.seed = seed;
  // Tight queues are the degradation mechanism under overload: admitted
  // sojourn is bounded by ~queue_limit * tenants jobs of backlog, the
  // rest sheds with retry hints.
  p.queue_limit = 6;
  p.base.config = RuntimeConfig::LegacyCopy;  // pool allocs make HBM real
  p.base.topology = capped_topology();
  p.base.seed = seed;
  return p;
}

std::uint64_t total(const std::vector<TenantServiceStats>& tenants,
                    std::uint64_t TenantServiceStats::*field) {
  std::uint64_t n = 0;
  for (const auto& t : tenants) {
    n += t.*field;
  }
  return n;
}

double worst_p99(const std::vector<TenantServiceStats>& tenants) {
  double worst = 0.0;
  for (const auto& t : tenants) {
    worst = std::max(worst, t.p99_us);
  }
  return worst;
}

void expect_conservation(const ServiceResult& r) {
  for (const auto& t : r.run.service_tenants) {
    EXPECT_EQ(t.offered, t.completed + t.failed + t.shed)
        << "tenant " << t.tenant;
  }
  EXPECT_EQ(r.sheds.size(), total(r.run.service_tenants,
                                  &TenantServiceStats::shed));
}

// (a) + (b) + (c): overload under the full policy degrades gracefully —
// no HBM exhaustion, no wrong answers, every shed typed with a positive
// retry hint.
TEST(ServiceRobustness, OverloadShedsTypedAndNeverExhaustsHbm) {
  const ServiceResult r = run_service(overload_params(ServicePolicy::Full));
  expect_conservation(r);
  EXPECT_EQ(r.run.faults.count(FaultEvent::HbmExhausted), 0u);
  EXPECT_EQ(r.checksum_divergences, 0u);
  EXPECT_EQ(total(r.run.service_tenants, &TenantServiceStats::failed), 0u);
  // 6x overload with bounded queues must shed a lot.
  EXPECT_GT(r.sheds.size(), 50u);
  for (const auto& shed : r.sheds) {
    EXPECT_EQ(shed.error.code(), ErrorCode::JobShed);
    EXPECT_GT(shed.retry_after.ns(), 0);
    EXPECT_NE(std::string{shed.error.what()}.find("retry after"),
              std::string::npos);
  }
  // Shedding is the service doing its job, not a fault: the shed ledger
  // records it, and this fault-free run's fault trace stays empty.
  EXPECT_TRUE(r.run.faults.empty());
  // Something still completes for every tenant (overload != outage).
  for (const auto& t : r.run.service_tenants) {
    EXPECT_GT(t.completed, 0u) << "tenant " << t.tenant;
  }
}

// (d): admitted p99 under the full policy stays bounded, while the
// unbounded-FIFO baseline's p99 balloons with the backlog.
TEST(ServiceRobustness, FullPolicyBoundsP99VersusOffBaseline) {
  const ServiceResult off = run_service(overload_params(ServicePolicy::Off));
  const ServiceResult full =
      run_service(overload_params(ServicePolicy::Full));
  const double p99_off = worst_p99(off.run.service_tenants);
  const double p99_full = worst_p99(full.run.service_tenants);
  ASSERT_GT(p99_off, 0.0);
  ASSERT_GT(p99_full, 0.0);
  // Off admits everything into an ever-growing queue; full keeps the
  // admitted population small. The gap is an order of magnitude, assert
  // a conservative 2x.
  EXPECT_LT(p99_full * 2.0, p99_off);
  // The off baseline sheds nothing — collapse, not degradation.
  EXPECT_EQ(off.sheds.size(), 0u);
}

// (f): the whole stats block reproduces bit-for-bit on a same-seed rerun,
// under overload and shedding.
TEST(ServiceRobustness, OverloadRunsAreBitIdenticalAcrossReruns) {
  const ServiceResult a = run_service(overload_params(ServicePolicy::Full));
  const ServiceResult b = run_service(overload_params(ServicePolicy::Full));
  ASSERT_EQ(a.run.service_tenants.size(), b.run.service_tenants.size());
  for (std::size_t i = 0; i < a.run.service_tenants.size(); ++i) {
    const auto& x = a.run.service_tenants[i];
    const auto& y = b.run.service_tenants[i];
    EXPECT_EQ(x.offered, y.offered);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.p50_us, y.p50_us);
    EXPECT_EQ(x.p99_us, y.p99_us);
    EXPECT_EQ(x.p999_us, y.p999_us);
    EXPECT_EQ(x.goodput_jps, y.goodput_jps);
    EXPECT_EQ(x.checksum, y.checksum);
  }
  ASSERT_EQ(a.sheds.size(), b.sheds.size());
  for (std::size_t i = 0; i < a.sheds.size(); ++i) {
    EXPECT_EQ(a.sheds[i].tenant, b.sheds[i].tenant);
    EXPECT_EQ(a.sheds[i].job, b.sheds[i].job);
    EXPECT_EQ(a.sheds[i].at.since_start().ns(),
              b.sheds[i].at.since_start().ns());
    EXPECT_EQ(a.sheds[i].retry_after.ns(), b.sheds[i].retry_after.ns());
  }
  EXPECT_EQ(a.run.wall_time.ns(), b.run.wall_time.ns());
}

/// Breaker-isolation fixture: tenant 0 runs Staged jobs (the only flavor
/// crossing the SDMA engines under Implicit Zero-Copy), tenant 1 runs
/// Compute. An sdma_stall schedule from call 4 on (calls 1..3 are the
/// image load) hangs every Staged staging copy; the watchdog aborts them.
ServiceParams isolation_params(std::uint64_t machine_seed) {
  ServiceParams p;
  p.config.tenants = 2;
  p.config.policy = ServicePolicy::Full;
  p.workers = 2;
  p.arrival.tenants = 2;
  p.arrival.jobs = 60;
  p.arrival.base_interarrival = sim::Duration::microseconds(400);  // benign
  p.arrival.tenant_flavors = {JobFlavor::Staged, JobFlavor::Compute};
  p.arrival.seed = 11;
  p.base.config = RuntimeConfig::ImplicitZeroCopy;
  p.base.seed = machine_seed;
  p.base.fault_spec = "sdma_stall@call=4..1000000:x50";
  p.base.watchdog_spec = "400us:abort";
  return p;
}

// (e): the faulted tenant trips its own breaker; the clean tenant never
// fails, never sheds, never opens a breaker, and reproduces the checksum
// of a fault-free run — across machine seeds 1, 7, 42.
TEST(ServiceRobustness, BreakerIsolatesFaultedTenantAcrossSeeds) {
  // Fault-free baseline fixes the clean tenant's expected checksum.
  ServiceParams clean = isolation_params(1);
  clean.base.fault_spec.clear();
  clean.base.watchdog_spec.clear();
  const ServiceResult baseline = run_service(clean);
  ASSERT_EQ(baseline.run.service_tenants.size(), 2u);
  const double clean_checksum = baseline.run.service_tenants[1].checksum;
  const std::uint64_t clean_offered =
      baseline.run.service_tenants[1].offered;
  ASSERT_GT(clean_offered, 0u);
  EXPECT_EQ(baseline.run.service_tenants[1].completed, clean_offered);

  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const ServiceResult r = run_service(isolation_params(seed));
    ASSERT_EQ(r.run.service_tenants.size(), 2u);
    const TenantServiceStats& victim = r.run.service_tenants[0];
    const TenantServiceStats& bystander = r.run.service_tenants[1];
    // The victim visibly degrades: failures trip the breaker open.
    EXPECT_GT(victim.failed, 0u) << "seed " << seed;
    EXPECT_GE(victim.breaker_opens, 1u) << "seed " << seed;
    // The bystander never notices: same offered set as the fault-free
    // baseline (arrival seed is fixed), all of it completed, checksum
    // bit-identical, no breaker activity.
    EXPECT_EQ(bystander.offered, clean_offered) << "seed " << seed;
    EXPECT_EQ(bystander.completed, clean_offered) << "seed " << seed;
    EXPECT_EQ(bystander.failed, 0u) << "seed " << seed;
    EXPECT_EQ(bystander.shed, 0u) << "seed " << seed;
    EXPECT_EQ(bystander.breaker_opens, 0u) << "seed " << seed;
    EXPECT_EQ(bystander.checksum, clean_checksum) << "seed " << seed;
    EXPECT_EQ(r.checksum_divergences, 0u) << "seed " << seed;
    // Breaker-open arrivals shed with the open-breaker retry hint.
    if (victim.shed > 0) {
      bool saw_breaker_shed = false;
      for (const auto& shed : r.sheds) {
        if (shed.tenant == 0) {
          EXPECT_EQ(shed.error.code(), ErrorCode::JobShed);
          EXPECT_GT(shed.retry_after.ns(), 0);
          saw_breaker_shed = true;
        }
      }
      EXPECT_TRUE(saw_breaker_shed);
    }
  }
}

// Memory-pressure de-admission: a capped socket under Copy-config load
// crosses the (lowered) watermark; the full policy pauses low-priority
// tenants, counts the pauses, and still drains everything it admitted.
TEST(ServiceRobustness, PressureDeAdmitsLowPriorityTenants) {
  ServiceParams p = overload_params(ServicePolicy::Full);
  p.arrival.jobs = 120;
  p.arrival.min_pages = 8;  // bigger jobs keep occupancy high
  p.deadmit_high = 0.50;    // ~27% pinned image + in-flight jobs cross it
  p.deadmit_low = 0.45;
  const ServiceResult r = run_service(p);
  expect_conservation(r);
  EXPECT_EQ(r.run.faults.count(FaultEvent::HbmExhausted), 0u);
  EXPECT_EQ(r.checksum_divergences, 0u);
  EXPECT_GT(total(r.run.service_tenants, &TenantServiceStats::deadmissions),
            0u);
  // Tenant 0 (highest priority) is never de-admitted.
  EXPECT_EQ(r.run.service_tenants[0].deadmissions, 0u);
}

// Chaos: service-side fault injection (arrival bursts + admission flaps)
// on top of pressure faults, across seeds — conservation, typed sheds,
// no exhaustion, no divergence, and a bit-identical same-seed rerun.
TEST(ServiceRobustness, ChaosSeedsStayConservativeAndDeterministic) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    ServiceParams p = overload_params(ServicePolicy::Full, seed);
    p.arrival.jobs = 160;
    p.base.fault_spec =
        "tenant_burst@p=0.05:x6;admission_flap@p=0.1;evict_storm@p=0.2:x4";
    p.base.pressure_spec = "watermarks";
    const ServiceResult r = run_service(p);
    expect_conservation(r);
    EXPECT_EQ(r.run.faults.count(FaultEvent::HbmExhausted), 0u)
        << "seed " << seed;
    EXPECT_EQ(r.checksum_divergences, 0u) << "seed " << seed;
    // The injected service faults actually fired and were recorded.
    EXPECT_GT(r.run.faults.count(fault::Kind::TenantBurst), 0u)
        << "seed " << seed;
    EXPECT_GT(r.run.faults.count(fault::Kind::AdmissionFlap), 0u)
        << "seed " << seed;
    for (const auto& shed : r.sheds) {
      EXPECT_EQ(shed.error.code(), ErrorCode::JobShed);
      EXPECT_GT(shed.retry_after.ns(), 0);
    }
    // Same seed, same chaos: bit-identical rerun.
    const ServiceResult again = run_service(p);
    for (std::size_t i = 0; i < r.run.service_tenants.size(); ++i) {
      EXPECT_EQ(r.run.service_tenants[i].completed,
                again.run.service_tenants[i].completed)
          << "seed " << seed;
      EXPECT_EQ(r.run.service_tenants[i].checksum,
                again.run.service_tenants[i].checksum)
          << "seed " << seed;
      EXPECT_EQ(r.run.service_tenants[i].p99_us,
                again.run.service_tenants[i].p99_us)
          << "seed " << seed;
    }
    EXPECT_EQ(r.run.wall_time.ns(), again.run.wall_time.ns())
        << "seed " << seed;
  }
}

// The race detector in report mode stays silent across a full-policy
// overload run: the service's locking is clean, not lucky.
TEST(ServiceRobustness, RaceDetectorSilentUnderOverload) {
  ServiceParams p = overload_params(ServicePolicy::Full);
  p.arrival.jobs = 120;
  p.base.race_check_spec = "report";
  const ServiceResult r = run_service(p);
  EXPECT_TRUE(r.run.races.empty());
  expect_conservation(r);
}

}  // namespace
}  // namespace zc::service

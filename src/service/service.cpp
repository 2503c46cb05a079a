#include "zc/service/service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "zc/core/circuit_breaker.hpp"
#include "zc/core/host_array.hpp"
#include "zc/core/target_region.hpp"
#include "zc/fault/engine.hpp"
#include "zc/mem/memory_system.hpp"

namespace zc::service {

using apu::ServicePolicy;
using omp::OffloadStack;
using sim::Duration;
using sim::LockGuard;
using sim::TimePoint;
using workloads::ServiceJobSpec;

namespace {

[[nodiscard]] bool at_least(ServicePolicy policy, ServicePolicy floor) {
  return static_cast<int>(policy) >= static_cast<int>(floor);
}

/// Per-tenant accumulation while the run is live.
struct TenantAgg {
  TenantAgg(int threshold, Duration window, Duration cooldown)
      : breaker{threshold, window, cooldown} {}

  workloads::TenantServiceStats stats;
  omp::CircuitBreaker breaker;
  bool paused = false;        ///< de-admitted by memory pressure
  std::uint64_t running = 0;  ///< jobs of this tenant currently in flight
  TimePoint breaker_opened_at;
  /// (id, checksum) of completed jobs; summed in id order at finalize so
  /// the per-tenant checksum is independent of retirement interleaving.
  std::vector<std::pair<std::uint64_t, double>> completed;
};

/// Everything the arrival fiber and the workers share, under one mutex.
struct Core {
  Core(DrrParams drr, const ServiceParams& p, int sockets)
      : queue{std::move(drr)},
        budget(static_cast<std::size_t>(sockets), 0),
        charged(static_cast<std::size_t>(sockets), 0) {
    for (int t = 0; t < p.config.tenants; ++t) {
      tenants.emplace_back(p.breaker_threshold, p.breaker_window,
                           p.breaker_cooldown);
      TenantAgg& a = tenants.back();
      a.stats.tenant = t;
      a.stats.weight = queue.params().weights[static_cast<std::size_t>(t)];
    }
  }

  DrrScheduler queue;
  std::vector<TenantAgg> tenants;
  std::vector<std::uint64_t> budget;   ///< admission budget per socket
  std::vector<std::uint64_t> charged;  ///< admitted-but-unretired bytes
  bool budget_ready = false;  ///< warmup measured the budgets; dispatch may go
  bool arrivals_done = false;
  std::uint64_t in_flight = 0;
  std::uint64_t divergences = 0;
  std::vector<trace::ServiceJobRecord> records;
  std::vector<ShedRecord> sheds;
  bool saw_arrival = false;
  TimePoint first_arrival;
  TimePoint last_retire;
};

struct SharedState {
  SharedState(DrrParams drr, const ServiceParams& p, int sockets)
      : core{mu, "ServiceCore", std::move(drr), p, sockets} {}

  sim::Mutex mu{"service"};
  sim::WaitList work;  ///< notified on arrivals, retires, and shutdown
  sim::GuardedBy<Core> core;
  /// Snapshot taken by finalize (the HSA stack dies with run_program;
  /// everything needed afterwards is copied out here).
  std::vector<workloads::TenantServiceStats> final_stats;
};

/// One dispatch decision, carried from the locked pick to the unlocked run.
struct Dispatch {
  ServiceJobSpec spec;
  TimePoint arrival;
  TimePoint start;
  std::uint64_t footprint = 0;
  double occupancy = 0.0;  ///< budget occupancy of the target socket
};

void shed_job(Core& c, const ServiceJobSpec& spec, TimePoint now,
              Duration retry_after, const std::string& why) {
  retry_after = max(retry_after, Duration::microseconds(1));
  TenantAgg& a = c.tenants[static_cast<std::size_t>(spec.tenant)];
  ++a.stats.shed;
  trace::ServiceJobRecord rec;
  rec.tenant = spec.tenant;
  rec.job = spec.id;
  rec.device = spec.device;
  rec.pages = spec.pages;
  rec.arrival = now;
  rec.start = now;
  rec.end = now;
  rec.outcome = trace::ServiceJobOutcome::Shed;
  c.records.push_back(rec);
  c.sheds.push_back(ShedRecord{
      spec.tenant, spec.id, now, retry_after,
      omp::OffloadError{
          omp::ErrorCode::JobShed,
          "tenant " + std::to_string(spec.tenant) + " job " +
              std::to_string(spec.id) + ": " + why + "; retry after " +
              retry_after.to_string(),
          spec.device}});
}

/// Handle breaker transitions (time-based or trip-born) for one tenant:
/// each opening is counted and starts the cooldown its sheds quote.
void apply_transitions(
    Core& c, int tenant,
    const std::vector<omp::CircuitBreaker::Transition>& transitions) {
  TenantAgg& a = c.tenants[static_cast<std::size_t>(tenant)];
  for (const auto& tr : transitions) {
    if (tr.to == omp::CircuitBreaker::State::Open) {
      ++a.stats.breaker_opens;
      a.breaker_opened_at = tr.at;
    }
  }
}

void advance_breakers(Core& c, const ServiceParams& p, TimePoint now) {
  if (p.config.policy != ServicePolicy::Full) {
    return;
  }
  for (int t = 0; t < p.config.tenants; ++t) {
    apply_transitions(
        c, t, c.tenants[static_cast<std::size_t>(t)].breaker.advance_to(now));
  }
}

/// Memory-pressure de-admission (policy `full`): crossing the high
/// watermark pauses the lowest-priority tenant with pending work (never
/// tenant 0); falling under the low watermark — or the drain phase —
/// resumes paused tenants, highest priority first.
void pressure_step(Core& c, const ServiceParams& p, OffloadStack& stack,
                   int sockets) {
  if (p.config.policy != ServicePolicy::Full) {
    return;
  }
  if (c.arrivals_done) {
    // Drain: everything still queued must be allowed to finish (admission
    // control keeps gating actual dispatch).
    for (TenantAgg& a : c.tenants) {
      a.paused = false;
    }
    return;
  }
  const mem::MemorySystem& memory = stack.hsa().memory();
  double worst = 0.0;
  for (int s = 0; s < sockets; ++s) {
    const auto capacity = static_cast<double>(memory.hbm_capacity());
    if (capacity > 0) {
      worst = std::max(
          worst, static_cast<double>(memory.hbm_used(s)) / capacity);
    }
  }
  if (worst > p.deadmit_high) {
    for (int t = p.config.tenants - 1; t >= 1; --t) {
      TenantAgg& a = c.tenants[static_cast<std::size_t>(t)];
      if (!a.paused && c.queue.queue_len(t) > 0) {
        a.paused = true;
        ++a.stats.deadmissions;
        break;  // one tenant per pass: pressure relief is gradual
      }
    }
  } else if (worst < p.deadmit_low) {
    for (TenantAgg& a : c.tenants) {
      if (a.paused) {
        a.paused = false;
        break;
      }
    }
  }
}

/// Locked half of the dispatch: DRR pop + admission accounting. A head
/// that does not fit its socket's remaining budget is returned to the
/// front of its queue and the tenant masked for this pass — other
/// tenants' heads still get their chance (no head-of-line blocking across
/// tenants).
std::optional<Dispatch> pick_job(Core& c, const ServiceParams& p,
                                 OffloadStack& stack, std::uint64_t page,
                                 TimePoint now) {
  const bool full = p.config.policy == ServicePolicy::Full;
  const bool admit = at_least(p.config.policy, ServicePolicy::Admit);
  const auto n = static_cast<std::size_t>(p.config.tenants);
  std::vector<char> blocked(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const TenantAgg& a = c.tenants[t];
    const auto st = a.breaker.state();
    const bool breaker_blocked =
        full && (st == omp::CircuitBreaker::State::Open ||
                 (st == omp::CircuitBreaker::State::HalfOpen &&
                  a.running > 0));  // half-open: one probe at a time
    blocked[t] = (full && a.paused) || breaker_blocked ? 1 : 0;
  }
  fault::FaultEngine& faults = stack.machine().faults();
  for (;;) {
    std::optional<Pick> pick = c.queue.pop(now, blocked);
    if (!pick) {
      return std::nullopt;
    }
    const ServiceJobSpec& spec = pick->job.spec;
    const auto t = static_cast<std::size_t>(spec.tenant);
    const auto s = static_cast<std::size_t>(spec.device);
    const std::uint64_t footprint =
        workloads::job_footprint_bytes(spec, page);
    if (admit) {
      if (footprint > c.budget[s]) {
        // Larger than the whole budget: waiting can never help.
        shed_job(c, spec, now, p.arrival.base_interarrival,
                 "footprint " + std::to_string(footprint) +
                     " B exceeds the device admission budget");
        continue;
      }
      bool fits = c.charged[s] + footprint <= c.budget[s];
      if (fits) {
        const fault::Injection inj =
            faults.consult(fault::Site::AdmissionFlap, now);
        if (inj.fired()) {
          stack.hsa().record_injection(inj, spec.device);
          fits = false;  // admission briefly reads "full"
        }
      }
      if (!fits) {
        c.queue.push_front(pick->job);
        blocked[t] = 1;
        continue;
      }
    }
    TenantAgg& a = c.tenants[t];
    if (pick->starvation_boost) {
      ++a.stats.starvation_boosts;
    }
    c.charged[s] += footprint;
    ++c.in_flight;
    ++a.running;
    Dispatch d;
    d.spec = spec;
    d.arrival = pick->job.arrival;
    d.start = now;
    d.footprint = footprint;
    d.occupancy =
        c.budget[s] > 0 ? static_cast<double>(c.charged[s]) /
                              static_cast<double>(c.budget[s])
                        : 0.0;
    return d;
  }
}

/// Locked half of retirement; returns the socket occupancy after the
/// job's charge is released (pushed to the adaptive policy outside the
/// lock).
double retire_job(Core& c, const ServiceParams& p, const Dispatch& d,
                  double functional, bool ok, std::uint64_t page,
                  TimePoint now) {
  const auto t = static_cast<std::size_t>(d.spec.tenant);
  const auto s = static_cast<std::size_t>(d.spec.device);
  c.charged[s] -= d.footprint;
  --c.in_flight;
  TenantAgg& a = c.tenants[t];
  --a.running;
  ++a.stats.admitted;
  c.last_retire = max(c.last_retire, now);

  trace::ServiceJobRecord rec;
  rec.tenant = d.spec.tenant;
  rec.job = d.spec.id;
  rec.device = d.spec.device;
  rec.pages = d.spec.pages;
  rec.arrival = d.arrival;
  rec.start = d.start;
  rec.end = now;

  bool completed = false;
  if (ok) {
    const double expected = workloads::service_job_checksum(d.spec, page);
    if (functional == expected) {
      completed = true;
    } else {
      ++c.divergences;  // demoted to Failed; the suite asserts this stays 0
    }
  }
  if (completed) {
    ++a.stats.completed;
    a.completed.emplace_back(d.spec.id,
                             workloads::service_job_checksum(d.spec, page));
    rec.outcome = trace::ServiceJobOutcome::Completed;
  } else {
    ++a.stats.failed;
    rec.outcome = trace::ServiceJobOutcome::Failed;
    if (p.config.policy == ServicePolicy::Full) {
      apply_transitions(c, d.spec.tenant, a.breaker.record_trip(now));
    }
  }
  c.records.push_back(rec);
  return c.budget[s] > 0 ? static_cast<double>(c.charged[s]) /
                               static_cast<double>(c.budget[s])
                         : 0.0;
}

/// Arrival-side admission to the queueing stage (lock held).
void offer_job(Core& c, const ServiceParams& p, const ServiceJobSpec& spec,
               TimePoint now) {
  TenantAgg& a = c.tenants[static_cast<std::size_t>(spec.tenant)];
  ++a.stats.offered;
  if (!c.saw_arrival) {
    c.saw_arrival = true;
    c.first_arrival = now;
  }
  if (p.config.policy == ServicePolicy::Full &&
      a.breaker.state() == omp::CircuitBreaker::State::Open) {
    const Duration left =
        a.breaker_opened_at + p.breaker_cooldown - now;
    shed_job(c, spec, now, left, "tenant circuit breaker is open");
    return;
  }
  if (!c.queue.push(QueuedJob{spec, now})) {
    const auto depth = static_cast<std::int64_t>(
        c.queue.queue_len(spec.tenant) + 1);
    shed_job(c, spec, now,
             p.arrival.base_interarrival * static_cast<double>(depth),
             "tenant admission queue is full (" +
                 std::to_string(c.queue.queue_len(spec.tenant)) + " jobs)");
    return;
  }
}

void worker_fiber(OffloadStack& stack, const ServiceParams& p,
                  const std::shared_ptr<SharedState>& sh, int sockets) {
  sim::Scheduler& sched = stack.sched();
  omp::OffloadRuntime& rt = stack.omp();
  const std::uint64_t page = stack.machine().page_bytes();
  for (;;) {
    std::optional<Dispatch> dis;
    bool finished = false;
    {
      LockGuard lock{sh->mu, sched};
      Core& c = sh->core.get(sched);
      advance_breakers(c, p, sched.now());
      pressure_step(c, p, stack, sockets);
      if (c.budget_ready) {
        dis = pick_job(c, p, stack, page, sched.now());
      }
      finished = !dis && c.arrivals_done && c.queue.empty() &&
                 c.in_flight == 0;
    }
    if (finished) {
      sh->work.notify_all(sched, sched.now());
      return;
    }
    if (!dis) {
      // Bounded idle tick (not a bare wait): breaker cooldowns and
      // watermark transitions are time-based, so a sleeping dispatcher
      // must keep virtual time moving even with no notifications coming.
      (void)sh->work.wait_for(sched, p.idle_tick, "service-idle");
      continue;
    }
    rt.set_service_pressure(dis->spec.device, dis->occupancy);
    stack.hsa().set_thread_tenant(dis->spec.tenant);
    double functional = 0.0;
    bool ok = false;
    try {
      functional = workloads::run_service_job(stack, dis->spec);
      ok = true;
    } catch (const omp::OffloadError&) {
      ok = false;  // typed runtime failure -> Failed outcome + breaker trip
    }
    stack.hsa().set_thread_tenant(-1);
    double occ_after = 0.0;
    {
      LockGuard lock{sh->mu, sched};
      occ_after = retire_job(sh->core.get(sched), p, *dis, functional, ok,
                             page, sched.now());
    }
    rt.set_service_pressure(dis->spec.device, occ_after);
    sh->work.notify_all(sched, sched.now());
  }
}

void arrival_fiber(OffloadStack& stack, const ServiceParams& p,
                   const std::shared_ptr<SharedState>& sh, int sockets) {
  sim::Scheduler& sched = stack.sched();
  omp::OffloadRuntime& rt = stack.omp();
  // Warmup: one trivial region per device loads the image and pays this
  // thread's lazy init *before* the budgets are measured, so the pinned
  // runtime pool is already accounted and the AsyncCopy call numbering the
  // fault schedules target is stable across policies.
  for (int d = 0; d < sockets; ++d) {
    omp::HostArray<double> warm{rt, 8, "svc-warmup-" + std::to_string(d), d};
    warm.first_touch();
    rt.target(omp::TargetRegion{
        .name = "svc_warmup",
        .maps = {warm.tofrom()},
        .compute = Duration::microseconds(5),
        .body = [](hsa::KernelContext&, const omp::ArgTranslator&) {},
        .device = d,
    });
    warm.release();
  }
  {
    LockGuard lock{sh->mu, sched};
    Core& c = sh->core.get(sched);
    const mem::MemorySystem& memory = stack.hsa().memory();
    for (int s = 0; s < sockets; ++s) {
      const std::uint64_t used = memory.hbm_used(s);
      const std::uint64_t capacity = memory.hbm_capacity();
      const std::uint64_t free = capacity > used ? capacity - used : 0;
      c.budget[static_cast<std::size_t>(s)] = static_cast<std::uint64_t>(
          p.admit_fraction * static_cast<double>(free));
    }
    c.budget_ready = true;
  }
  sh->work.notify_all(sched, sched.now());

  ArrivalProcess arrivals{p.arrival};
  fault::FaultEngine& faults = stack.machine().faults();
  while (!arrivals.done()) {
    Arrival a = arrivals.next();
    const fault::Injection burst =
        faults.consult(fault::Site::TenantBurst, sched.now());
    if (burst.fired()) {
      const auto extra = static_cast<std::uint64_t>(
          std::max(1.0, std::ceil(burst.factor)));
      arrivals.inject_burst(extra);
      stack.hsa().record_injection(burst, a.spec.device);
    }
    if (!a.gap.is_zero()) {
      sched.sleep_for(a.gap);
    }
    {
      LockGuard lock{sh->mu, sched};
      offer_job(sh->core.get(sched), p, a.spec, sched.now());
    }
    sh->work.notify_all(sched, sched.now());
  }
  {
    LockGuard lock{sh->mu, sched};
    sh->core.get(sched).arrivals_done = true;
  }
  sh->work.notify_all(sched, sched.now());
}

DrrParams drr_params(const ServiceParams& p) {
  DrrParams drr;
  if (p.weights.empty()) {
    for (int t = 0; t < p.config.tenants; ++t) {
      drr.weights.push_back(
          static_cast<std::uint64_t>(p.config.tenants - t));
    }
  } else {
    drr.weights = p.weights;
  }
  drr.quantum_pages = p.quantum_pages;
  // `off` runs the unbounded-FIFO collapse baseline: no queue bound (one
  // slot per possible job), no deficits.
  const bool bounded = at_least(p.config.policy, ServicePolicy::Admit);
  drr.queue_limit = bounded ? p.queue_limit : p.arrival.jobs + 1;
  drr.starvation_budget = p.starvation_budget;
  drr.fifo = !at_least(p.config.policy, ServicePolicy::Fair);
  return drr;
}

void validate(const ServiceParams& p, int sockets) {
  if (!p.config.enabled()) {
    throw std::invalid_argument(
        "run_service: service disabled (tenant count is 0; set "
        "OMPX_APU_SERVICE=<tenants>:<policy>)");
  }
  if (p.arrival.tenants != p.config.tenants) {
    throw std::invalid_argument(
        "run_service: arrival.tenants (" +
        std::to_string(p.arrival.tenants) + ") != config.tenants (" +
        std::to_string(p.config.tenants) + ")");
  }
  if (p.arrival.sockets != sockets) {
    throw std::invalid_argument(
        "run_service: arrival.sockets (" +
        std::to_string(p.arrival.sockets) + ") != run sockets (" +
        std::to_string(sockets) + ")");
  }
  if (!p.weights.empty() &&
      p.weights.size() != static_cast<std::size_t>(p.config.tenants)) {
    throw std::invalid_argument(
        "run_service: weights must be empty or one per tenant");
  }
  if (p.workers <= 0) {
    throw std::invalid_argument("run_service: workers must be positive");
  }
  if (p.admit_fraction <= 0.0 || p.admit_fraction > 1.0) {
    throw std::invalid_argument(
        "run_service: admit_fraction must be in (0, 1]");
  }
  if (p.deadmit_low >= p.deadmit_high) {
    throw std::invalid_argument(
        "run_service: deadmit_low must be below deadmit_high");
  }
}

}  // namespace

ServiceResult run_service(const ServiceParams& params) {
  int sockets = 1;
  if (params.base.sockets > 0) {
    sockets = params.base.sockets;
  } else if (params.base.topology) {
    sockets = params.base.topology->sockets;
  }
  validate(params, sockets);

  auto slot = std::make_shared<std::shared_ptr<SharedState>>();
  workloads::Program program;
  program.binary.name =
      "service-T" + std::to_string(params.config.tenants) + "-" +
      apu::to_string(params.config.policy);
  program.setup_threads = [params, slot, sockets](OffloadStack& stack) {
    *slot = std::make_shared<SharedState>(drr_params(params), params,
                                          sockets);
    stack.hsa().configure_tenants(params.config.tenants);
    stack.sched().spawn("svc-arrival",
                        [&stack, params, shared = *slot, sockets] {
                          arrival_fiber(stack, params, shared, sockets);
                        });
    for (int w = 0; w < params.workers; ++w) {
      stack.sched().spawn("svc-worker-" + std::to_string(w),
                          [&stack, params, shared = *slot, sockets] {
                            worker_fiber(stack, params, shared, sockets);
                          });
    }
  };
  program.finalize = [params, slot](OffloadStack& stack) {
    const std::shared_ptr<SharedState>& sh = *slot;
    // Post-run, scheduler drained: unguarded access is the sanctioned
    // quiescent-reader pattern.
    Core& c = sh->core.unguarded();
    const std::vector<hsa::DeviceCounters>& counters =
        stack.hsa().tenant_counters();
    const Duration makespan =
        c.saw_arrival ? c.last_retire - c.first_arrival : Duration::zero();
    // Each tenant's completed-job sojourns, for its exact quantiles.
    std::vector<std::vector<double>> sojourn_us(c.tenants.size());
    for (const trace::ServiceJobRecord& r : c.records) {
      if (r.outcome == trace::ServiceJobOutcome::Completed) {
        sojourn_us[static_cast<std::size_t>(r.tenant)].push_back(
            r.sojourn().us());
      }
    }
    double total = 0.0;
    sh->final_stats.clear();
    for (int t = 0; t < params.config.tenants; ++t) {
      TenantAgg& a = c.tenants[static_cast<std::size_t>(t)];
      std::sort(a.completed.begin(), a.completed.end());
      double checksum = 0.0;
      for (const auto& [id, cs] : a.completed) {
        checksum += cs;
      }
      a.stats.checksum = checksum;
      total += checksum;
      std::vector<double>& us = sojourn_us[static_cast<std::size_t>(t)];
      if (!us.empty()) {
        std::sort(us.begin(), us.end());
        // The order statistic at rank floor(p * (n - 1)).
        const auto at = [&us](double p) {
          return us[static_cast<std::size_t>(
              p * static_cast<double>(us.size() - 1))];
        };
        a.stats.p50_us = at(0.50);
        a.stats.p99_us = at(0.99);
        a.stats.p999_us = at(0.999);
      }
      if (makespan > Duration::zero()) {
        a.stats.goodput_jps =
            static_cast<double>(a.stats.completed) / makespan.sec();
      }
      if (static_cast<std::size_t>(t) < counters.size()) {
        a.stats.counters = counters[static_cast<std::size_t>(t)];
      }
      sh->final_stats.push_back(a.stats);
    }
    return total;
  };

  workloads::RunResult run = workloads::run_program(program, params.base);
  const std::shared_ptr<SharedState>& sh = *slot;
  Core& c = sh->core.unguarded();  // stack destroyed; no threads left
  run.service_tenants = sh->final_stats;
  ServiceResult result;
  result.run = std::move(run);
  result.jobs = std::move(c.records);
  result.sheds = std::move(c.sheds);
  result.checksum_divergences = c.divergences;
  return result;
}

}  // namespace zc::service

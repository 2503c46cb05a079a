#pragma once

#include <cstdint>
#include <vector>

#include "zc/apu/env.hpp"
#include "zc/core/offload_error.hpp"
#include "zc/service/arrival.hpp"
#include "zc/service/queues.hpp"
#include "zc/trace/service_trace.hpp"
#include "zc/workloads/runner.hpp"

namespace zc::service {

/// Configuration of one multi-tenant service run. The policy ladder
/// (`apu::ServicePolicy`, `config.policy`) gates the machinery
/// cumulatively:
///
///   * `off`   — shared FIFO, unbounded queues, no admission control: the
///               collapse baseline every robustness claim is measured
///               against.
///   * `admit` — + HBM admission control (per-socket budget measured after
///               warmup; inadmissible heads wait, never allocate) and
///               bounded queues with typed-error shedding.
///   * `fair`  — + per-tenant DRR fair queueing with the starvation
///               watchdog.
///   * `full`  — + overload degradation: breaker-open shedding with
///               retry-after hints, per-tenant circuit breakers, and
///               memory-pressure de-admission of low-priority tenants.
///
/// Tenant 0 is the highest priority: DRR weights default to
/// `tenants - index`, and de-admission pauses from the highest index down.
struct ServiceParams {
  /// Tenant count + policy. `config.tenants` must match
  /// `arrival.tenants`; `run_service` enforces it.
  apu::ServiceConfig config{.tenants = 4,
                            .policy = apu::ServicePolicy::Full};
  int workers = 4;  ///< dispatcher fibers (service-side concurrency)
  ArrivalParams arrival{};

  // --- fair queueing (policy >= fair) ------------------------------------
  /// DRR weights, highest priority first; empty derives `tenants - index`.
  std::vector<std::uint64_t> weights;
  std::uint64_t quantum_pages = 8;
  std::uint64_t queue_limit = 32;
  sim::Duration starvation_budget = sim::Duration::milliseconds(5);

  // --- admission control (policy >= admit) --------------------------------
  /// Fraction of the post-warmup free HBM each socket's admission budget
  /// gets. Below 1.0 so organic allocations (thread init, image growth)
  /// never race the budget into `HbmExhausted`.
  double admit_fraction = 0.7;

  // --- overload degradation (policy == full) ------------------------------
  /// HBM-occupancy watermarks for de-admission: crossing `deadmit_high`
  /// pauses the lowest-priority active tenant, falling under `deadmit_low`
  /// resumes the highest-priority paused one.
  double deadmit_high = 0.85;
  double deadmit_low = 0.75;
  /// Per-tenant circuit breaker (job failures in a sliding window).
  int breaker_threshold = 2;
  sim::Duration breaker_window = sim::Duration::milliseconds(50);
  sim::Duration breaker_cooldown = sim::Duration::milliseconds(20);

  /// Idle-dispatcher poll tick: bounds how long a worker sleeps before
  /// re-checking breaker cooldowns and de-admission watermarks. Virtual
  /// time, so it costs events, not wall clock.
  sim::Duration idle_tick = sim::Duration::microseconds(50);

  /// Stack plumbing passed through to `run_program`: runtime config,
  /// seed, sockets, topology, fault/watchdog/pressure/race specs, stress
  /// mode. `base.sockets` (or the topology) fixes the socket count;
  /// `arrival.sockets` must match; `run_service` enforces it.
  workloads::RunOptions base{};
};

/// One shed job: when, why, and the structured error + retry hint the
/// client was handed (acceptance: every shed is typed, never silent).
struct ShedRecord {
  int tenant = 0;
  std::uint64_t job = 0;
  sim::TimePoint at;
  sim::Duration retry_after;
  omp::OffloadError error;
};

/// Everything a service run produces: the usual `RunResult` (with
/// `service_tenants` filled in), the per-job lifecycle records for the
/// chrome-trace service lanes, and the shed ledger.
struct ServiceResult {
  workloads::RunResult run;
  std::vector<trace::ServiceJobRecord> jobs;
  std::vector<ShedRecord> sheds;
  /// Completed jobs whose functional checksum diverged from the closed
  /// form (always 0 — the robustness suite asserts it stays 0 under
  /// overload and fault injection; such jobs are demoted to Failed).
  std::uint64_t checksum_divergences = 0;
};

/// Run the multi-tenant offload service: an open-loop arrival fiber plus
/// `workers` dispatcher fibers over the shared `OffloadStack`, applying
/// the admission / fair-queueing / degradation ladder `params.config`
/// selects. Deterministic: the same params produce bit-identical
/// `ServiceResult` contents (the robustness suite reruns and compares).
[[nodiscard]] ServiceResult run_service(const ServiceParams& params);

}  // namespace zc::service

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "zc/check/report.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/sim/jitter.hpp"
#include "zc/stats/repetition.hpp"
#include "zc/trace/call_stats.hpp"
#include "zc/trace/decision_trace.hpp"
#include "zc/trace/fault_trace.hpp"
#include "zc/trace/kernel_trace.hpp"
#include "zc/trace/overhead_ledger.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::workloads {

/// A workload packaged for the experiment harness: program-binary
/// properties, a thread-spawning setup, and an optional checksum extractor
/// evaluated after the simulation drains (used by tests to assert that all
/// four configurations compute identical results).
struct Program {
  omp::ProgramBinary binary;
  std::function<void(omp::OffloadStack&)> setup_threads;
  std::function<double(omp::OffloadStack&)> finalize;
};

/// How to run a Program once. The non-empty `*_spec` strings are parsed
/// together, once per run, by `apu::RunEnvironment::from_env` under their
/// environment-variable names, so a malformed one raises the same
/// `apu::EnvError` the variable would.
struct RunOptions {
  omp::RuntimeConfig config = omp::RuntimeConfig::ImplicitZeroCopy;
  sim::JitterParams jitter{};
  std::uint64_t seed = 1;
  bool keep_kernel_records = false;

  /// Number of APU sockets (OMPX_APU_SOCKETS); 0 keeps the topology's
  /// count. Values > 1 model a multi-APU node.
  int sockets = 0;
  /// Fabric mode between sockets (OMPX_APU_FABRIC grammar: "off", "xgmi",
  /// or "uniform"); empty keeps the fabric off — remote traffic then uses
  /// the legacy flat bandwidth derating.
  std::string fabric_spec;

  /// When set, run the scheduler in interleaving stress mode with this
  /// seed: ready-thread ties and lock/wait points are perturbed by a
  /// seeded RNG (reproducible per seed). Workload results must be
  /// bit-identical under any stress seed — the differential check the
  /// lock-discipline tests rely on.
  std::optional<std::uint64_t> stress_seed;

  /// Ablation overrides (defaults: MI300A machine as configured for
  /// `config`). `thp_spec = "0"` switches to 4 KB pages.
  std::optional<apu::CostParams> costs;
  std::optional<apu::Topology> topology;

  /// Deterministic fault schedule (OMPX_APU_FAULTS grammar); empty runs
  /// fault-free.
  std::string fault_spec;

  /// Hang-detection budget (OMPX_APU_WATCHDOG grammar, e.g. "200us" or
  /// "1ms:abort"); empty runs with no watchdog — a hang then deadlocks the
  /// simulation with a diagnostic naming the stuck signal.
  std::string watchdog_spec;

  /// Happens-before race detection (OMPX_APU_RACE_CHECK grammar: "off",
  /// "report", or "abort", optionally with a ":pruned" suffix); empty runs
  /// with the detector off. With ":pruned" the harness first records the
  /// program's offload IR on a detector-off phase, statically partitions
  /// buffer ranges into proven-safe and must-check sets (`zc::check`), and
  /// then runs the measured phase with the detector instrumenting only the
  /// unproven ranges.
  std::string race_check_spec;

  /// Static offload-IR mapping verification (OMPX_APU_CHECK grammar:
  /// "off", "report", or "abort"); empty runs without the recorder. In
  /// "report" the findings land in `RunResult::check`; in "abort" any
  /// finding raises `OffloadError(CheckViolation)` after the run.
  std::string check_spec;

  /// Memory-pressure handling (OMPX_APU_PRESSURE grammar: "off" or
  /// "watermarks"); empty keeps pressure handling off — a full pool then
  /// fails allocations hard, as before.
  std::string pressure_spec;

  /// Access-counter page migration (OMPX_APU_AUTOMIGRATE grammar: boolean
  /// or a remote-touch threshold >= 2); empty keeps it off.
  std::string automigrate_spec;

  /// Transparent-huge-page mode (THP grammar: boolean or "dynamic");
  /// empty keeps the config's default. "dynamic" enables the 2 MB <-> 4 KB
  /// split/collapse state machine on top of huge pages.
  std::string thp_spec;
};

/// Per-device telemetry for one run (one entry per socket).
struct DeviceStats {
  /// Kernel/fault/copy/migration counters from the HSA layer.
  hsa::DeviceCounters counters;
  /// Physical HBM occupancy at the end of the run.
  std::uint64_t hbm_used = 0;
  /// Bytes spilled to the DDR tier at the end of the run (node-wide;
  /// reported on every entry for convenience).
  std::uint64_t ddr_used = 0;
};

/// Per-tenant SLO telemetry of a `zc::service` run, filled by the service
/// layer's deterministic stats pipeline at finalize. Counts are exact; each
/// quantile is the order statistic at rank floor(p * (n - 1)) over the
/// sojourns of the tenant's n completed jobs. Plain values so `RunResult`
/// stays value-copyable.
struct TenantServiceStats {
  int tenant = 0;
  std::uint64_t weight = 1;      ///< DRR weight (higher = more service)
  std::uint64_t offered = 0;     ///< jobs the arrival process generated
  std::uint64_t admitted = 0;    ///< jobs that passed admission control
  std::uint64_t completed = 0;   ///< jobs retired with a verified checksum
  std::uint64_t shed = 0;        ///< jobs shed with a typed OffloadError
  std::uint64_t failed = 0;      ///< jobs that raised during execution
  std::uint64_t deadmissions = 0;       ///< times pressure paused the tenant
  std::uint64_t starvation_boosts = 0;  ///< DRR watchdog force-serves
  std::uint64_t breaker_opens = 0;      ///< tenant breaker open transitions
  double p50_us = 0.0;   ///< sojourn-latency quantiles (arrival -> retire)
  double p99_us = 0.0;
  double p999_us = 0.0;
  double goodput_jps = 0.0;  ///< completed jobs per second of makespan
  double checksum = 0.0;     ///< completed-job checksums, id-ordered sum
  /// GPU-queue / SDMA-engine consumption attributed by the HSA layer: the
  /// kernel and copy counters of a device row, over this tenant's work.
  hsa::DeviceCounters counters;
};

/// Everything one run produces.
struct RunResult {
  omp::RuntimeConfig config;
  sim::Duration wall_time;  ///< simulation makespan (max over host threads)
  /// Discrete scheduler events executed (context switches + timer fires);
  /// divided by host wall-clock this is the `bench/micro_des` events/sec.
  std::uint64_t sim_events = 0;
  trace::CallStats stats;
  trace::OverheadLedger ledger;
  double checksum = 0.0;
  /// Per-launch records (only when RunOptions::keep_kernel_records).
  std::vector<trace::KernelRecord> kernel_records;
  /// One entry per socket; size 1 on single-APU runs.
  std::vector<DeviceStats> devices;
  /// Adaptive Maps policy decisions (empty for the static configurations).
  trace::DecisionTrace decisions;
  /// Fault injections and degraded-mode reactions (empty on fault-free runs).
  trace::FaultTrace faults;
  /// Race reports (empty unless RunOptions::race_check_spec enabled the
  /// detector — and, on a correctly synchronized program, empty even then).
  trace::RaceTrace races;
  /// Per-tenant service stats (empty unless the program was built by
  /// `service::run_service`, which fills them in at finalize).
  std::vector<TenantServiceStats> service_tenants;
  /// Static mapping-verifier findings (empty unless RunOptions::check_spec
  /// or a ":pruned" race spec enabled the recorder). Deterministic: the
  /// same program yields a bit-identical trace under any stress seed.
  check::CheckTrace check;
  /// Static may-race partition from the same analysis.
  check::RacePartition race_partition;
  /// Host wall-clock milliseconds spent on the checker phases (the
  /// record-only run of a ":pruned" flow plus the static analysis); 0 when
  /// the recorder is off. Real time, not simulated time.
  double check_phase_ms = 0.0;
  /// Page-stamp split of a pruned detector run (both 0 otherwise).
  std::uint64_t race_pruned_stamps = 0;
  std::uint64_t race_checked_stamps = 0;

  /// Node-wide counters: the sum of every device's row.
  [[nodiscard]] hsa::DeviceCounters totals() const;
};

/// Build the stack, run the program to completion, snapshot the telemetry.
[[nodiscard]] RunResult run_program(const Program& program,
                                    const RunOptions& options);

/// Repeat a run `reps` times with distinct seeds (paper methodology) and
/// return the measured wall times.
[[nodiscard]] stats::RepeatedRuns repeat_program(const Program& program,
                                                 RunOptions options, int reps);

}  // namespace zc::workloads

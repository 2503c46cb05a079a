#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "zc/fabric/fabric.hpp"
#include "zc/sim/time.hpp"

namespace zc::apu {

/// Raised by `RunEnvironment::from_env` when a recognized environment
/// variable carries a value the runtime cannot interpret. Real runtimes
/// silently coerce such typos into "off"; the simulator refuses them so
/// configuration experiments can't accidentally run the wrong setup.
class EnvError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The three states of `OMPX_APU_MAPS`: off, the footnote-1 opt-in that
/// forces implicit zero-copy handling on discrete GPUs, and the adaptive
/// mode where the runtime's `zc::adapt` policy engine classifies each
/// mapped region online.
enum class ApuMapsMode {
  Off,
  On,
  Adaptive,
};

[[nodiscard]] constexpr const char* to_string(ApuMapsMode m) {
  switch (m) {
    case ApuMapsMode::Off:
      return "0";
    case ApuMapsMode::On:
      return "1";
    case ApuMapsMode::Adaptive:
      return "adaptive";
  }
  return "?";
}

/// The three states of `OMPX_APU_RACE_CHECK`: detection off (the default —
/// no vector clocks, zero overhead), report (record every race in
/// `trace::RaceTrace` and keep running), and abort (raise a structured
/// `OffloadError` on the first race).
enum class RaceCheckMode {
  Off,
  Report,
  Abort,
};

[[nodiscard]] constexpr const char* to_string(RaceCheckMode m) {
  switch (m) {
    case RaceCheckMode::Off:
      return "off";
    case RaceCheckMode::Report:
      return "report";
    case RaceCheckMode::Abort:
      return "abort";
  }
  return "?";
}

/// The three states of `OMPX_APU_CHECK`: the static offload-IR verifier
/// (`zc::check`) off (no recording, zero overhead), report (record the
/// operation stream, analyze it after the run, attach the findings to the
/// run result), and abort (additionally raise a structured `OffloadError`
/// after the run when any finding survives). The analysis is timing-free
/// and post-hoc: abort mode cannot stop the simulated program mid-run.
enum class CheckMode {
  Off,
  Report,
  Abort,
};

[[nodiscard]] constexpr const char* to_string(CheckMode m) {
  switch (m) {
    case CheckMode::Off:
      return "off";
    case CheckMode::Report:
      return "report";
    case CheckMode::Abort:
      return "abort";
  }
  return "?";
}

/// The two states of `OMPX_APU_PRESSURE`: off (the historical hard refusal
/// when a coarse-grain pool allocation exceeds HBM capacity) and watermarks
/// (the driver reclaims cold zero-copy pages to DDR when HBM crosses a high
/// watermark, so allocations and faults see graded slowdown instead of OOM).
enum class PressureMode {
  Off,
  Watermarks,
};

[[nodiscard]] constexpr const char* to_string(PressureMode m) {
  switch (m) {
    case PressureMode::Off:
      return "off";
    case PressureMode::Watermarks:
      return "watermarks";
  }
  return "?";
}

/// The three states of the `THP` knob: off (4 KB pages), on (2 MB pages,
/// the paper's configuration), and dynamic (2 MB pages plus the MI300A
/// split/collapse state machine: a huge-page span splits to 4 KB pricing
/// under eviction or partial migration and collapses back when the span
/// re-homogenizes on the CPU).
enum class ThpMode {
  Off,
  On,
  Dynamic,
};

[[nodiscard]] constexpr const char* to_string(ThpMode m) {
  switch (m) {
    case ThpMode::Off:
      return "0";
    case ThpMode::On:
      return "1";
    case ThpMode::Dynamic:
      return "dynamic";
  }
  return "?";
}

/// Parsed `OMPX_APU_AUTOMIGRATE`: access-counter driven automatic page
/// migration. A truthy value enables it at the default touch threshold; an
/// integer >= 2 enables it with that threshold (touches by a non-home
/// socket before the driver migrates the page).
struct AutomigrateConfig {
  bool enabled = false;
  int threshold = 4;  ///< remote touches before the page migrates
};

/// Parsed `OMPX_APU_WATCHDOG=<budget>[:abort|recover]`: the virtual-time
/// budget an in-flight device operation may stay outstanding before the
/// runtime's watchdog tears down its queue, and what happens afterwards
/// (replay the operation, or raise a structured `OffloadError`). A zero
/// budget means no watchdog — a hung operation becomes a simulation
/// deadlock, as on a machine with no driver timeout configured.
struct WatchdogConfig {
  sim::Duration budget{};  ///< zero = watchdog disabled
  bool recover = true;     ///< replay after the trip (vs abort the region)

  [[nodiscard]] bool enabled() const { return budget > sim::Duration::zero(); }
};

/// Parse an `OMPX_APU_WATCHDOG` value: an integer budget with an optional
/// `ns`/`us`/`ms` unit suffix (default ns), optionally followed by
/// `:abort` or `:recover` (default recover). "0" disables the watchdog.
/// Throws `EnvError` on anything else.
[[nodiscard]] WatchdogConfig parse_watchdog(const std::string& raw);

/// The policy ladder of the multi-tenant offload service (`zc::service`),
/// from nothing (a global FIFO that is allowed to collapse under overload)
/// to the full robustness stack. Each rung strictly adds to the previous:
///
///  * `Off`   — no admission control, no fairness: one global FIFO;
///  * `Admit` — per-socket HBM admission control with a bounded per-tenant
///              admission queue (overflow sheds with a typed error);
///  * `Fair`  — plus deficit-round-robin fair queueing across tenants with
///              a starvation watchdog;
///  * `Full`  — plus priority load shedding with retry-after hints,
///              per-tenant circuit breakers, and memory-pressure-aware
///              de-admission of the lowest-priority tenant.
enum class ServicePolicy {
  Off,
  Admit,
  Fair,
  Full,
};

[[nodiscard]] constexpr const char* to_string(ServicePolicy p) {
  switch (p) {
    case ServicePolicy::Off:
      return "off";
    case ServicePolicy::Admit:
      return "admit";
    case ServicePolicy::Fair:
      return "fair";
    case ServicePolicy::Full:
      return "full";
  }
  return "?";
}

/// How many tenants the service multiplexes and which rung of the policy
/// ladder governs them (`service::ServiceParams::config`). Zero tenants
/// means the service is disabled.
struct ServiceConfig {
  int tenants = 0;  ///< 0 = service disabled
  ServicePolicy policy = ServicePolicy::Off;

  [[nodiscard]] bool enabled() const { return tenants > 0; }
};

/// The run environment knobs that steer configuration selection, mirroring
/// the environment variables the paper describes:
///
///  * `HSA_XNACK`      — unified-memory (XNACK-replay) support enabled;
///  * `OMPX_APU_MAPS`  — opt-in implicit zero-copy on discrete GPUs with
///                        XNACK enabled (footnote 1 of the paper), or
///                        `adaptive` to let the runtime classify each mapped
///                        region online (the Adaptive Maps configuration);
///  * `OMPX_EAGER_ZERO_COPY_MAPS` — ask the runtime to prefault the GPU page
///                        table on every map (the Eager Maps configuration);
///  * THP              — transparent huge pages; the paper runs all
///                        experiments with THP on so both Copy and zero-copy
///                        work on 2 MB pages;
///  * `OMPX_APU_FAULTS` — deterministic fault schedule for the `zc::fault`
///                        engine (see zc/fault/spec.hpp for the grammar);
///                        empty means fault-free;
///  * `OMPX_APU_WATCHDOG` — hang-detection budget and policy for in-flight
///                        device operations (see `WatchdogConfig`); unset
///                        means no watchdog;
///  * `OMPX_APU_RACE_CHECK` — the happens-before race detector
///                        (`zc::race`): off, report, or abort; a `:pruned`
///                        suffix (e.g. `report:pruned`) makes the harness
///                        statically prove ranges race-free first and
///                        instrument only the rest;
///  * `OMPX_APU_CHECK`  — the static offload-IR mapping verifier
///                        (`zc::check`): off, report, or abort;
///  * `OMPX_APU_SOCKETS` — number of APU sockets the node exposes; 0 (unset)
///                        keeps the machine topology's own socket count;
///  * `OMPX_APU_FABRIC` — how inter-socket traffic is priced: `off` (the
///                        legacy flat remote factors), `xgmi` (the MI300A
///                        wide/narrow link asymmetry), or `uniform` (every
///                        pair wide). See `fabric::FabricMode`;
///  * `OMPX_APU_PRESSURE` — HBM pressure handling: `off` (hard pool-OOM
///                        refusal) or `watermarks` (graded reclaim of cold
///                        zero-copy pages to DDR). See `PressureMode`;
///  * `OMPX_APU_AUTOMIGRATE` — access-counter automatic page migration:
///                        a boolean, or an integer >= 2 giving the remote
///                        touch threshold. See `AutomigrateConfig`.
struct RunEnvironment {
  bool hsa_xnack = true;
  ApuMapsMode ompx_apu_maps = ApuMapsMode::Off;
  bool ompx_eager_maps = false;
  /// THP setting; it alone decides the page size (`page_bytes`).
  ThpMode thp = ThpMode::On;
  std::string ompx_apu_faults;
  WatchdogConfig watchdog;
  RaceCheckMode race_check = RaceCheckMode::Off;
  /// `:pruned` suffix on `OMPX_APU_RACE_CHECK` (e.g. "report:pruned"): the
  /// harness first records the program's offload IR, statically partitions
  /// buffer ranges into proven-safe and must-check sets (`zc::check`), and
  /// instruments only the unproven ranges on the measured run.
  bool race_check_pruned = false;
  CheckMode ompx_apu_check = CheckMode::Off;
  int ompx_apu_sockets = 0;  ///< 0 = use the topology's socket count
  fabric::FabricMode ompx_apu_fabric = fabric::FabricMode::Off;
  PressureMode ompx_apu_pressure = PressureMode::Off;
  AutomigrateConfig ompx_apu_automigrate;

  /// Page size implied by the THP setting: 4 KB when off, 2 MB when on or
  /// dynamic.
  [[nodiscard]] std::uint64_t page_bytes() const {
    return thp == ThpMode::Off ? (4ULL << 10) : (2ULL << 20);
  }

  /// Parse from environment-variable-style key/value pairs on top of
  /// `base` (a key that is absent keeps `base`'s value); unknown keys are
  /// ignored. Boolean knobs accept "1"/"true"/"on"/"yes" and
  /// "0"/"false"/"off"/"no" (case-insensitive); `OMPX_APU_MAPS`
  /// additionally accepts "adaptive". Any other value for a recognized key
  /// throws `EnvError`. Keys: HSA_XNACK, OMPX_APU_MAPS,
  /// OMPX_EAGER_ZERO_COPY_MAPS, THP, OMPX_APU_FAULTS (whose value is
  /// validated against the fault-spec grammar), OMPX_APU_WATCHDOG (parsed
  /// via `parse_watchdog`), OMPX_APU_RACE_CHECK ("off", "report", or
  /// "abort", case-insensitive, with an optional ":pruned" suffix on the
  /// non-off modes), OMPX_APU_CHECK (exactly "off", "report", or "abort",
  /// case-insensitive), OMPX_APU_SOCKETS (a positive integer),
  /// OMPX_APU_FABRIC (exactly "off", "xgmi", or "uniform",
  /// case-insensitive), OMPX_APU_PRESSURE (exactly "off" or "watermarks",
  /// case-insensitive), OMPX_APU_AUTOMIGRATE (a boolean, or an integer
  /// >= 2 giving the remote-touch threshold). THP additionally accepts
  /// "dynamic" (2 MB pages plus the split/collapse state machine).
  [[nodiscard]] static RunEnvironment from_env(
      const std::map<std::string, std::string>& env, RunEnvironment base);
  /// `from_env` on top of the defaults.
  [[nodiscard]] static RunEnvironment from_env(
      const std::map<std::string, std::string>& env);

  /// Render as "HSA_XNACK=1 OMPX_APU_MAPS=0 ..." for logs and reports.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace zc::apu

// Fault-injection ablation: the cost of surviving faults, per runtime
// configuration. Each cell runs the QMCPack NiO proxy under one fault
// schedule and reports the wall-time overhead relative to the same
// configuration's fault-free run.
//
// Schedules (all deterministic, OMPX_APU_FAULTS grammar):
//   * oom-cap      512 MB HBM socket: runtime init (~278 MB) plus the
//                  host-touched spline (192 MB) leave the ROCr pool unable
//                  to serve the spline's device copy — an organic capacity
//                  OOM on the run's first Copy-managed map;
//   * eintr-burst  eintr@call=1..3 — the first prefault syscall EINTRs
//                  three times and recovers through the backoff ladder;
//   * sdma-err     sdma@call=5 — one errored async copy mid-batch,
//                  recovered by resubmission;
//   * combined     all of the above in one run;
//   * kernel-hang  kernel_hang@call=3 — a kernel's completion signal never
//                  fires; the watchdog (OMPX_APU_WATCHDOG=500us:recover)
//                  tears the queue down and the runtime replays it;
//   * sdma-stall   sdma_stall@call=2 — a stalled async copy, aborted by
//                  the watchdog and resubmitted;
//   * pf-hang      prefault_hang@call=1 — a hung prefault syscall,
//                  recovered through the retry ladder after the abort;
//   * xnack-lock   xnack_livelock@call=1 — fault servicing never
//                  converges; the kernel is aborted and replayed;
//   * err-then-stall  sdma@call=24;sdma_stall@call=26 — under Legacy Copy,
//                  call 26 is the resubmission of errored call 24, and it
//                  stalls. The retry ladder must replay it rather than
//                  take the stalled resubmission for a success.
//
// The hang rows measure the watchdog-recovery overhead per configuration:
// budget wait + queue teardown/rebuild + replay, relative to fault-free.
//
// Acceptance bars (the binary exits 1 if any is violated):
//   * every faulted run computes the exact checksum of its configuration's
//     fault-free run (degradation changes timing, never data);
//   * no schedule provokes a RegionFailed — all of them are survivable;
//   * the degraded paths actually run: under oom-cap Legacy Copy records
//     an OOM fallback to zero-copy, under eintr-burst Eager Maps records a
//     successful backoff retry, under sdma-err Legacy Copy records a
//     successful copy resubmission, and every hang row records a
//     WatchdogRecovered in its configuration.
//
// Runs are deterministic (no measurement jitter): the bars compare
// degraded-mode control flow, not noise.

#include <array>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "zc/workloads/qmcpack.hpp"

namespace {

using namespace zc;
using omp::RuntimeConfig;
using trace::FaultEvent;

constexpr std::array<RuntimeConfig, 5> kAllConfigs{
    RuntimeConfig::LegacyCopy,
    RuntimeConfig::ImplicitZeroCopy,
    RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::EagerMaps,
    RuntimeConfig::AdaptiveMaps,
};

struct Schedule {
  std::string name;
  std::string spec;
  bool capped = false;
  /// Degraded-mode event that must appear, and in which configuration.
  std::optional<std::pair<RuntimeConfig, FaultEvent>> must_record;
  /// OMPX_APU_WATCHDOG value (hang schedules need one to be survivable).
  std::string watchdog;
};

apu::Topology capped_topology() {
  apu::Topology t;
  t.hbm_bytes = 512ULL << 20;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_banner(
      "Fault injection — overhead of degraded-mode survival",
      "robustness extension of Bertolli et al., SC'24", args);

  workloads::QmcpackParams params;
  params.size = 2;
  params.threads = 1;
  params.walkers_per_thread = 2;
  params.steps = args.steps_or(60, 20, 300);
  if (args.fidelity_min) {
    params.steps = 10;
  }
  const workloads::Program program = workloads::make_qmcpack(params);
  std::cout << "qmcpack S2, 1 thread, " << params.walkers_per_thread
            << " walkers, " << params.steps << " steps, seed " << args.seed
            << "\n\n";

  const std::vector<Schedule> schedules{
      {"oom-cap", "", /*capped=*/true,
       {{RuntimeConfig::LegacyCopy, FaultEvent::OomFallbackZeroCopy}}},
      {"eintr-burst", "eintr@call=1..3", /*capped=*/false,
       {{RuntimeConfig::EagerMaps, FaultEvent::PrefaultRetrySucceeded}}},
      {"sdma-err", "sdma@call=5", /*capped=*/false,
       {{RuntimeConfig::LegacyCopy, FaultEvent::CopyRetrySucceeded}}},
      {"combined", "eintr@call=1..3;sdma@call=5", /*capped=*/true,
       std::nullopt},
      {"kernel-hang", "kernel_hang@call=3", /*capped=*/false,
       {{RuntimeConfig::LegacyCopy, FaultEvent::WatchdogRecovered}},
       "500us:recover"},
      {"sdma-stall", "sdma_stall@call=2", /*capped=*/false,
       {{RuntimeConfig::LegacyCopy, FaultEvent::WatchdogRecovered}},
       "500us:recover"},
      {"pf-hang", "prefault_hang@call=1", /*capped=*/false,
       {{RuntimeConfig::EagerMaps, FaultEvent::WatchdogRecovered}},
       "500us:recover"},
      {"xnack-lock", "xnack_livelock@call=1", /*capped=*/false,
       {{RuntimeConfig::ImplicitZeroCopy, FaultEvent::WatchdogRecovered}},
       "500us:recover"},
      {"err-then-stall", "sdma@call=24;sdma_stall@call=26", /*capped=*/false,
       {{RuntimeConfig::LegacyCopy, FaultEvent::WatchdogRecovered}},
       "500us:recover"},
  };

  std::vector<std::string> header{"Configuration", "fault-free (ms)"};
  for (const Schedule& s : schedules) {
    header.push_back(s.name + " Δ%");
  }
  stats::TextTable table{header};
  std::vector<std::string> violations;

  for (const RuntimeConfig config : kAllConfigs) {
    workloads::RunOptions clean_opts;
    clean_opts.config = config;
    clean_opts.seed = args.seed;
    const workloads::RunResult clean =
        workloads::run_program(program, clean_opts);
    if (!clean.faults.empty()) {
      violations.push_back(std::string{to_string(config)} +
                           ": fault-free run recorded fault events");
    }

    std::vector<std::string> row{std::string{to_string(config)},
                                 stats::TextTable::num(
                                     clean.wall_time.us() / 1000.0, 2)};
    for (const Schedule& s : schedules) {
      workloads::RunOptions opts;
      opts.config = config;
      opts.seed = args.seed;
      opts.fault_spec = s.spec;
      opts.watchdog_spec = s.watchdog;
      if (s.capped) {
        opts.topology = capped_topology();
      }
      try {
        const workloads::RunResult r = workloads::run_program(program, opts);
        const double overhead =
            (r.wall_time.us() / clean.wall_time.us() - 1.0) * 100.0;
        row.push_back(stats::TextTable::num(overhead, 2));
        if (r.checksum != clean.checksum) {
          violations.push_back(std::string{to_string(config)} + " / " +
                               s.name +
                               ": checksum diverged from the fault-free run");
        }
        if (r.faults.any(FaultEvent::RegionFailed)) {
          violations.push_back(std::string{to_string(config)} + " / " +
                               s.name +
                               ": survivable schedule raised RegionFailed");
        }
        if (s.must_record && s.must_record->first == config &&
            !r.faults.any(s.must_record->second)) {
          violations.push_back(std::string{to_string(config)} + " / " +
                               s.name + ": expected degraded-mode event '" +
                               trace::to_string(s.must_record->second) +
                               "' was never recorded");
        }
      } catch (const omp::OffloadError& e) {
        row.push_back("FAIL");
        violations.push_back(std::string{to_string(config)} + " / " + s.name +
                             ": unexpected OffloadError: " + e.what());
      }
      std::cout << "." << std::flush;
    }
    table.add_row(row);
  }

  std::cout << "\n\nwall-time overhead of surviving each fault schedule, "
               "relative to the\nfault-free run of the same configuration "
               "(checksums must be identical)\n\n";
  table.print(std::cout);
  args.maybe_write_csv("abl_fault_inject", table);

  if (violations.empty()) {
    std::cout << "\nAll acceptance bars hold: every faulted run matched its "
                 "fault-free checksum,\nno survivable schedule failed a "
                 "region, and each degraded path was exercised.\n";
    return 0;
  }
  std::cout << "\nACCEPTANCE VIOLATIONS:\n";
  for (const std::string& v : violations) {
    std::cout << "  * " << v << '\n';
  }
  return 1;
}

#include "zc/workloads/runner.hpp"

#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "zc/check/analyzer.hpp"
#include "zc/check/ir.hpp"
#include "zc/race/prune.hpp"

namespace zc::workloads {

namespace {

/// The machine configuration `options` select: the config's base machine
/// with every non-empty `*_spec` string parsed once, by the same parser as
/// the environment variable it stands for.
[[nodiscard]] apu::Machine::Config build_machine_config(
    const RunOptions& options) {
  apu::Machine::Config machine_config = omp::OffloadStack::machine_config_for(
      options.config, options.jitter, options.seed);
  if (options.costs) {
    machine_config.costs = *options.costs;
  }
  if (options.topology) {
    machine_config.topology = *options.topology;
  }
  std::map<std::string, std::string> env{
      {"OMPX_APU_FAULTS", options.fault_spec},
      {"OMPX_APU_WATCHDOG", options.watchdog_spec},
      {"OMPX_APU_RACE_CHECK", options.race_check_spec},
      {"OMPX_APU_CHECK", options.check_spec},
      {"OMPX_APU_PRESSURE", options.pressure_spec},
      {"OMPX_APU_AUTOMIGRATE", options.automigrate_spec},
      {"THP", options.thp_spec},
      {"OMPX_APU_FABRIC", options.fabric_spec},
  };
  // An empty spec keeps the configuration's default.
  std::erase_if(env, [](const auto& kv) { return kv.second.empty(); });
  machine_config.env =
      apu::RunEnvironment::from_env(env, std::move(machine_config.env));
  if (options.sockets > 0) {
    machine_config.env.ompx_apu_sockets = options.sockets;
  }
  return machine_config;
}

/// One complete simulated run of the program. `recorder` (optional)
/// observes the offload IR; `prune` (optional) installs the proven-safe
/// page filter on the race detector before any thread runs.
[[nodiscard]] RunResult run_stack(const Program& program,
                                  const RunOptions& options,
                                  apu::Machine::Config machine_config,
                                  check::Recorder* recorder,
                                  const race::PruneFilter* prune) {
  omp::OffloadStack stack{
      std::move(machine_config),
      omp::OffloadStack::program_for(options.config, program.binary)};
  stack.hsa().set_keep_records(options.keep_kernel_records);
  if (options.stress_seed) {
    stack.sched().enable_stress(*options.stress_seed);
  }
  if (recorder != nullptr) {
    stack.omp().set_recorder(recorder);
  }
  if (prune != nullptr && stack.race_detector() != nullptr) {
    stack.race_detector()->set_prune_filter(prune);
  }

  program.setup_threads(stack);
  stack.sched().run();

  RunResult result;
  result.config = options.config;
  result.wall_time = stack.sched().horizon().since_start();
  result.sim_events = stack.sched().events();
  result.stats = stack.hsa().stats();
  result.ledger = stack.hsa().ledger();
  result.kernel_records = stack.hsa().kernel_records();
  {
    const std::vector<hsa::DeviceCounters>& counters =
        stack.hsa().device_counters();
    result.devices.resize(counters.size());
    for (std::size_t d = 0; d < counters.size(); ++d) {
      DeviceStats& ds = result.devices[d];
      ds.counters = counters[d];
      ds.hbm_used = stack.hsa().memory().hbm_used(static_cast<int>(d));
      ds.ddr_used = stack.hsa().memory().ddr_used();
    }
  }
  result.decisions = stack.omp().decision_trace();
  result.faults = stack.hsa().fault_trace();
  if (const race::Detector* d = stack.race_detector()) {
    result.races = d->trace();
    result.race_pruned_stamps = d->pruned_stamps();
    result.race_checked_stamps = d->checked_stamps();
  }
  if (program.finalize) {
    result.checksum = program.finalize(stack);
  }
  // HBM conservation: the counters must equal the occupancy recomputed
  // from page state (throws std::logic_error on drift).
  stack.memory().check_accounting();
  return result;
}

using WallClock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

}  // namespace

hsa::DeviceCounters RunResult::totals() const {
  hsa::DeviceCounters sum;
  for (const DeviceStats& ds : devices) {
    sum += ds.counters;
  }
  return sum;
}

RunResult run_program(const Program& program, const RunOptions& options) {
  if (!program.setup_threads) {
    throw std::invalid_argument("run_program: program has no setup_threads");
  }
  const apu::Machine::Config machine_config = build_machine_config(options);
  const apu::CheckMode check_mode = machine_config.env.ompx_apu_check;
  const bool race_pruned = machine_config.env.race_check_pruned;

  if (check_mode == apu::CheckMode::Off && !race_pruned) {
    return run_stack(program, options, machine_config, nullptr, nullptr);
  }

  // --- recorded flow ------------------------------------------------------
  // `:pruned` needs two phases: a record-only run with the detector off
  // (phase 1, charged to check_phase_ms together with the analysis), then
  // the measured run instrumenting only the unproven ranges. The two
  // phases share (seed, config), so the bump allocator reproduces the same
  // addresses and the page filter carries over. Plain OMPX_APU_CHECK
  // records on the single measured run — the recorder is passive, so
  // recording does not perturb it.
  RunResult result;
  check::Recorder recorder{machine_config.env.page_bytes()};
  double phase_ms = 0.0;
  check::Analysis analysis;
  if (race_pruned) {
    apu::Machine::Config record_config = machine_config;
    record_config.env.race_check = apu::RaceCheckMode::Off;
    const WallClock::time_point start = WallClock::now();
    (void)run_stack(program, options, std::move(record_config), &recorder,
                    nullptr);
    analysis = check::analyze(recorder.build(), options.config);
    phase_ms = ms_since(start);
    const race::PruneFilter filter = race::PruneFilter::from_partition(
        analysis.partition.proven_safe, analysis.partition.must_check,
        recorder.page_bytes());
    result = run_stack(program, options, machine_config, nullptr, &filter);
  } else {
    result = run_stack(program, options, machine_config, &recorder, nullptr);
    const WallClock::time_point analyze_start = WallClock::now();
    analysis = check::analyze(recorder.build(), options.config);
    phase_ms = ms_since(analyze_start);
  }
  result.check = analysis.trace;
  result.race_partition = analysis.partition;
  result.check_phase_ms = phase_ms;

  if (check_mode == apu::CheckMode::Abort && !result.check.clean()) {
    const check::CheckFinding& first = result.check.findings.front();
    throw omp::OffloadError(
        omp::ErrorCode::CheckViolation,
        "OMPX_APU_CHECK=abort: " + std::to_string(result.check.findings.size()) +
            " finding(s), first: " + first.to_string(),
        first.device);
  }
  return result;
}

stats::RepeatedRuns repeat_program(const Program& program, RunOptions options,
                                   int reps) {
  return stats::repeat(reps, options.seed,
                       [&program, options](std::uint64_t seed) mutable {
                         RunOptions o = options;
                         o.seed = seed;
                         return run_program(program, o).wall_time;
                       });
}

}  // namespace zc::workloads

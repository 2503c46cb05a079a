// UPM memory-pressure figure: wall time and spill-tier telemetry of the
// five runtime configurations as the zero-copy working set oversubscribes
// a socket's HBM (1x baseline, then 1.25x / 2x / 4x), with
// OMPX_APU_PRESSURE=watermarks driving access-counter eviction to the DDR
// tier — the graded-slowdown story that replaces the hard pool-OOM of the
// capacity-limited runs.
//
// Acceptance bars (the binary exits 1 if any is violated):
//   * no pool-OOM hard fail under watermarks: Legacy Copy completes every
//     oversubscription ratio with zero HbmExhausted events and at least
//     one PoolReclaimed event per oversubscribed ratio;
//   * with pressure off, Legacy Copy at 4x shows the historical behavior
//     (HbmExhausted + OOM fallback to zero-copy) — the contrast the figure
//     is about;
//   * graded degradation: at every oversubscribed ratio the Implicit
//     Zero-Copy run pays a visible but bounded pressure tax over an
//     uncapped-HBM floor run of identical geometry (1.02x..10x — a
//     gradient, not a cliff), and total wall time grows monotonically in
//     the ratio instead of falling off a failure edge;
//   * the spill tier actually cycles at 4x: eviction and promotion events
//     both occur under every zero-copy configuration;
//   * all five configurations compute identical checksums at every ratio,
//     including under the injected pressure-fault schedule with seeds
//     1/7/42.
//
// Runs are deterministic (no measurement jitter): the bars compare cost
// models, not noise.

#include <array>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "zc/workloads/oversubscribe.hpp"

namespace {

using namespace zc;
using omp::RuntimeConfig;

constexpr std::array<RuntimeConfig, 5> kAllConfigs{
    RuntimeConfig::LegacyCopy,       RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps,
    RuntimeConfig::AdaptiveMaps,
};

const char kPressureFaults[] =
    "evict_storm@p=0.25:x4;migration_stall@p=0.5:x6;"
    "thp_split_storm@call=5;counter_loss@p=0.2";

workloads::OversubscribeParams params_for(double ratio, int sweeps) {
  workloads::OversubscribeParams p;
  p.working_set_ratio = ratio;
  p.sweeps = sweeps;
  return p;
}

workloads::RunOptions pressured_options(
    RuntimeConfig config, const workloads::OversubscribeParams& p,
    std::uint64_t seed) {
  workloads::RunOptions o;
  o.config = config;
  o.seed = seed;
  o.topology = workloads::oversubscribed_topology(p);
  o.pressure_spec = "watermarks";
  // Built, then moved: GCC 12 flags assigning this one-character literal
  // with a false-positive -Wrestrict.
  o.automigrate_spec = std::string{"4"};
  o.thp_spec = "dynamic";
  return o;
}

std::string ms(double us) { return stats::TextTable::num(us / 1000.0, 1); }

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_banner(
      "Memory pressure — HBM oversubscription x five configurations",
      "extends Bertolli et al., SC'24 with watermark reclaim to a DDR tier",
      args);

  const int sweeps = args.level(2, 1, 3);
  constexpr std::array<double, 4> kRatios{0.25, 1.25, 2.0, 4.0};

  std::vector<std::string> violations;
  auto require = [&violations](bool ok, const std::string& text) {
    if (!ok) {
      violations.push_back(text);
    }
  };

  // ---- oversubscription ladder x configuration sweep -------------------
  // ratio 0.25 is the in-capacity baseline: the working set itself fits,
  // though the pinned runtime image still crowds the dispatch watermark a
  // little. The degradation bars normalize against the uncapped floor run
  // below, not against this row.
  std::map<double, std::map<RuntimeConfig, double>> wall_us;
  std::map<double, double> pressure_tax;
  std::map<double, double> checksum_at;
  stats::TextTable table{{"Working set / HBM", "Copy", "Implicit Z-C",
                          "Unified Shared Memory", "Eager Maps", "Adaptive",
                          "pressure tax", "evicted/promoted pages"}};
  for (const double ratio : kRatios) {
    const workloads::OversubscribeParams p = params_for(ratio, sweeps);
    const workloads::Program program = workloads::make_oversubscribe(p);
    // The floor: the same program and geometry on an uncapped socket —
    // identical phases and maps, zero reclaim. The ratio of the two
    // Implicit Z-C runs isolates what pressure handling itself costs.
    workloads::RunOptions floor_opts;
    floor_opts.config = RuntimeConfig::ImplicitZeroCopy;
    floor_opts.seed = args.seed;
    floor_opts.pressure_spec = "watermarks";
    floor_opts.automigrate_spec = "4";
    floor_opts.thp_spec = "dynamic";
    const workloads::RunResult floor =
        workloads::run_program(program, floor_opts);
    std::vector<std::string> row{stats::TextTable::num(ratio, 2) + "x"};
    double checksum = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t evicted = 0;
    std::uint64_t promoted = 0;
    for (const RuntimeConfig config : kAllConfigs) {
      const workloads::RunResult r = workloads::run_program(
          program, pressured_options(config, p, args.seed));
      wall_us[ratio][config] = r.wall_time.us();
      row.push_back(ms(r.wall_time.us()));
      if (checksum != checksum) {
        checksum = r.checksum;
      } else {
        require(r.checksum == checksum,
                "checksum mismatch at " + stats::TextTable::num(ratio, 2) +
                    "x under " + to_string(config));
      }
      require(!r.faults.any(trace::FaultEvent::RegionFailed),
              std::string("region failure at ") +
                  stats::TextTable::num(ratio, 2) + "x under " +
                  to_string(config));
      if (config == RuntimeConfig::LegacyCopy) {
        require(r.faults.count(trace::FaultEvent::HbmExhausted) == 0,
                "pool-OOM hard fail under watermarks at " +
                    stats::TextTable::num(ratio, 2) + "x");
        if (ratio > 1.0) {
          require(r.faults.count(trace::FaultEvent::PoolReclaimed) > 0,
                  "no pool reclaim at " + stats::TextTable::num(ratio, 2) +
                      "x under Copy");
        }
      }
      if (config == RuntimeConfig::ImplicitZeroCopy && !r.devices.empty()) {
        evicted = r.devices[0].counters.evicted_pages;
        promoted = r.devices[0].counters.promoted_pages;
        if (ratio >= 4.0) {
          require(evicted > 0 && promoted > 0,
                  "spill tier idle at 4x under Implicit Z-C");
        }
      }
      std::cout << "." << std::flush;
    }
    checksum_at[ratio] = checksum;
    require(floor.checksum == checksum,
            "uncapped floor checksum differs at " +
                stats::TextTable::num(ratio, 2) + "x");
    pressure_tax[ratio] =
        wall_us[ratio][RuntimeConfig::ImplicitZeroCopy] / floor.wall_time.us();
    row.push_back(stats::TextTable::num(pressure_tax[ratio], 3));
    row.push_back(std::to_string(evicted) + "/" + std::to_string(promoted));
    table.add_row(row);
  }

  // ---- graded degradation ----------------------------------------------
  {
    const auto wall = [&wall_us](double ratio) {
      return wall_us[ratio][RuntimeConfig::ImplicitZeroCopy];
    };
    require(wall(0.25) < wall(1.25) && wall(1.25) < wall(2.0) &&
                wall(2.0) < wall(4.0),
            "wall time not monotone in the oversubscription ratio under "
            "Implicit Z-C");
    for (const double ratio : {1.25, 2.0, 4.0}) {
      require(pressure_tax[ratio] > 1.02,
              "pressure tax invisible at " + stats::TextTable::num(ratio, 2) +
                  "x (reclaim churn unpriced?)");
      require(pressure_tax[ratio] < 10.0,
              "pressure tax above 10x at " + stats::TextTable::num(ratio, 2) +
                  "x (cliff, not gradient)");
    }
  }

  // ---- the historical contrast: pressure off at 4x ---------------------
  {
    const workloads::OversubscribeParams p = params_for(4.0, sweeps);
    const workloads::Program program = workloads::make_oversubscribe(p);
    workloads::RunOptions off;
    off.config = RuntimeConfig::LegacyCopy;
    off.seed = args.seed;
    off.topology = workloads::oversubscribed_topology(p);
    const workloads::RunResult hard = workloads::run_program(program, off);
    require(hard.faults.count(trace::FaultEvent::HbmExhausted) > 0,
            "pressure-off 4x Copy run shows no capacity OOM — the contrast "
            "baseline is broken");
    require(hard.faults.count(trace::FaultEvent::OomFallbackZeroCopy) > 0,
            "pressure-off 4x Copy run never rode the OOM fallback ladder");
    require(hard.checksum == checksum_at[4.0],
            "pressure-off checksum differs from watermark runs at 4x");
    std::cout << "." << std::flush;
  }

  std::cout << "\n\noversubscription wall time per configuration (ms); "
               "telemetry from the Implicit Z-C runs\n\n";
  table.print(std::cout);
  args.maybe_write_csv("fig_pressure", table);

  // ---- five-config checksum identity under pressure faults -------------
  if (!args.fidelity_min) {
    const workloads::OversubscribeParams p = params_for(2.0, sweeps);
    const workloads::Program program = workloads::make_oversubscribe(p);
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      double checksum = std::numeric_limits<double>::quiet_NaN();
      for (const RuntimeConfig config : kAllConfigs) {
        workloads::RunOptions options = pressured_options(config, p, seed);
        options.fault_spec = kPressureFaults;
        options.stress_seed = seed;
        const workloads::RunResult r =
            workloads::run_program(program, options);
        if (checksum != checksum) {
          checksum = r.checksum;
        } else {
          require(r.checksum == checksum,
                  "pressure-fault checksum mismatch at seed " +
                      std::to_string(seed) + " under " + to_string(config));
        }
      }
      std::cout << "." << std::flush;
    }
    std::cout << "\npressure-fault seeds 1/7/42: five-config checksum "
                 "identity holds at 2x oversubscription\n";
  }

  std::vector<std::pair<std::string, double>> metrics;
  for (const double ratio : kRatios) {
    const std::string tag = stats::TextTable::num(ratio, 2) + "x";
    metrics.emplace_back("wall_ms_implicit_" + tag,
                         wall_us[ratio][RuntimeConfig::ImplicitZeroCopy] /
                             1000.0);
    if (ratio > 1.0) {
      metrics.emplace_back("pressure_tax_" + tag, pressure_tax[ratio]);
    }
  }
  args.maybe_write_json("fig_pressure", violations, metrics);

  if (violations.empty()) {
    std::cout << "\nAll acceptance bars hold: watermark reclaim turns "
                 "pool-OOM into graded slowdown, the spill tier cycles, "
                 "degradation is monotone, checksums identical at every "
                 "ratio.\n";
    return 0;
  }
  std::cout << "\nACCEPTANCE VIOLATIONS:\n";
  for (const std::string& v : violations) {
    std::cout << "  * " << v << '\n';
  }
  return 1;
}

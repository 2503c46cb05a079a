// Interleaving stress mode, end to end: run a multi-threaded workload
// through the full runtime stack (OpenMP runtime -> HSA -> memory system)
// under the seeded stress scheduler and assert that workload *results* are
// bit-identical across stress seeds and across all five runtime
// configurations. The stress scheduler perturbs ready-thread order at every
// lock/wait point, so this is the differential check that the runtime's
// locking (the PresentTable mutex and the present-entry fill wait) — and
// not a lucky schedule — is what keeps the configurations semantically
// equivalent.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "zc/workloads/qmcpack.hpp"
#include "zc/workloads/runner.hpp"

namespace zc::workloads {
namespace {

constexpr omp::RuntimeConfig kAllConfigs[] = {
    omp::RuntimeConfig::LegacyCopy,
    omp::RuntimeConfig::UnifiedSharedMemory,
    omp::RuntimeConfig::ImplicitZeroCopy,
    omp::RuntimeConfig::EagerMaps,
    omp::RuntimeConfig::AdaptiveMaps,
};

QmcpackParams small_params() {
  QmcpackParams p;
  p.size = 2;
  p.threads = 4;  // several host threads contending on the shared tables
  p.steps = 40;
  return p;
}

double run_once(omp::RuntimeConfig config,
                std::optional<std::uint64_t> stress_seed) {
  RunOptions options;
  options.config = config;
  options.stress_seed = stress_seed;
  return run_program(make_qmcpack(small_params()), options).checksum;
}

TEST(StressMode, ChecksumsBitIdenticalAcrossSeedsAndConfigs) {
  // The acceptance bar from the concurrency work: >= 8 distinct stress
  // seeds, all five configurations, bit-identical workload results.
  for (omp::RuntimeConfig config : kAllConfigs) {
    const double reference = run_once(config, std::nullopt);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const double stressed = run_once(config, seed);
      EXPECT_EQ(stressed, reference)
          << to_string(config) << " stress_seed=" << seed;
    }
  }
}

TEST(StressMode, ConfigsAgreeUnderStress) {
  // Cross-configuration equivalence (the paper's semantics claim) must
  // survive perturbed interleavings too.
  const double reference =
      run_once(omp::RuntimeConfig::LegacyCopy, /*stress_seed=*/3);
  for (omp::RuntimeConfig config : kAllConfigs) {
    EXPECT_EQ(run_once(config, /*stress_seed=*/3), reference)
        << to_string(config);
  }
}

TEST(StressMode, StressRunStaysDeterministicPerSeed) {
  // Same seed, same schedule: not just the checksum but the simulated
  // makespan must reproduce exactly.
  RunOptions options;
  options.config = omp::RuntimeConfig::ImplicitZeroCopy;
  options.stress_seed = 5;
  const Program program = make_qmcpack(small_params());
  const RunResult a = run_program(program, options);
  const RunResult b = run_program(program, options);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.wall_time, b.wall_time);
  EXPECT_EQ(a.stats.total_calls(), b.stats.total_calls());
}

}  // namespace
}  // namespace zc::workloads

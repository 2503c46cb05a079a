#include "zc/workloads/spec.hpp"

#include <gtest/gtest.h>

namespace zc::workloads {
namespace {

using omp::RuntimeConfig;
using trace::HsaCall;

constexpr RuntimeConfig kAllConfigs[] = {
    RuntimeConfig::LegacyCopy,
    RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy,
    RuntimeConfig::EagerMaps,
};

// Scaled-down parameter sets so tests run in milliseconds.
StencilParams tiny_stencil() {
  return {.grid_bytes = 64ULL << 20,
          .iterations = 6,
          .per_iter_compute = sim::Duration::from_us(500)};
}
LbmParams tiny_lbm() {
  return {.lattice_bytes = 32ULL << 20,
          .iterations = 6,
          .per_iter_compute = sim::Duration::from_us(300)};
}
EpParams tiny_ep() {
  return {.arena_bytes = 128ULL << 20,
          .batches = 4,
          .per_batch_compute = sim::Duration::from_us(2000)};
}
SpcParams tiny_spc() {
  return {.array_bytes = 64ULL << 20,
          .cycles = 6,
          .kernels_per_cycle = 13,
          .per_kernel_compute = sim::Duration::from_us(50)};
}
BtParams tiny_bt() {
  return {.array_bytes = 48ULL << 20,
          .cycles = 3,
          .kernels_per_cycle = 10,
          .per_kernel_compute = sim::Duration::from_us(300),
          .big_kernel_compute = sim::Duration::from_us(2000)};
}

TEST(SpecSuite, HasPaperBenchmarksInOrder) {
  const auto suite = make_spec_suite();
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "stencil");
  EXPECT_EQ(suite[1].name, "lbm");
  EXPECT_EQ(suite[2].name, "ep");
  EXPECT_EQ(suite[3].name, "spC");
  EXPECT_EQ(suite[4].name, "bt");
}

TEST(SpecStencil, ChecksumIdenticalAcrossConfigs) {
  const Program p = make_stencil(tiny_stencil());
  const double ref = run_program(p, {.config = RuntimeConfig::LegacyCopy}).checksum;
  EXPECT_DOUBLE_EQ(ref, 3.0);  // 6 iterations x 0.5
  for (const RuntimeConfig cfg : kAllConfigs) {
    EXPECT_DOUBLE_EQ(run_program(p, {.config = cfg}).checksum, ref)
        << to_string(cfg);
  }
}

TEST(SpecStencil, OverheadDecompositionMatchesTableIII) {
  const Program p = make_stencil(tiny_stencil());
  const RunResult copy = run_program(p, {.config = RuntimeConfig::LegacyCopy});
  const RunResult zc =
      run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy});
  const RunResult eager = run_program(p, {.config = RuntimeConfig::EagerMaps});

  // Copy: MM from allocations + the two big copies, no first-touch MI.
  EXPECT_GT(copy.ledger.mm_copy(), sim::Duration::zero());
  EXPECT_GT(copy.ledger.mm_alloc(), sim::Duration::zero());
  EXPECT_EQ(copy.ledger.mi(), sim::Duration::zero());
  // Implicit Z-C: no MM, large MI (GPU-first-touched output grid).
  EXPECT_EQ(zc.ledger.mm(), sim::Duration::zero());
  EXPECT_GT(zc.ledger.mi(), sim::Duration::zero());
  // Eager: prefault-only MM, no MI.
  EXPECT_GT(eager.ledger.mm_prefault(), sim::Duration::zero());
  EXPECT_EQ(eager.ledger.mm_copy(), sim::Duration::zero());
  EXPECT_EQ(eager.ledger.mi(), sim::Duration::zero());
  EXPECT_EQ(eager.totals().page_faults, 0u);
}

TEST(SpecStencil, OutputGridFirstTouchDominatesZcMi) {
  // The never-host-touched output grid must fault with materialization,
  // making zc MI much larger than the resident input faults alone.
  const Program p = make_stencil(tiny_stencil());
  const RunResult zc =
      run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy});
  const std::uint64_t grid_pages = (64ULL << 20) / (2ULL << 20);
  // Both grids fault once, plus the one page of the residual scalar.
  EXPECT_EQ(zc.totals().page_faults, 2 * grid_pages + 1);
}

TEST(SpecLbm, ZeroCopySlightlyFasterCopyOfLatticeSkipped) {
  const Program p = make_lbm(tiny_lbm());
  const RunResult copy = run_program(p, {.config = RuntimeConfig::LegacyCopy});
  const RunResult zc =
      run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy});
  EXPECT_GT(copy.wall_time, zc.wall_time);
  EXPECT_GT(copy.ledger.mm_copy(), sim::Duration::zero());
  EXPECT_EQ(zc.ledger.mm_copy(), sim::Duration::zero());
}

TEST(SpecLbm, EagerPaysPerIterationPrefaults) {
  const LbmParams params = tiny_lbm();
  const Program p = make_lbm(params);
  const RunResult eager = run_program(p, {.config = RuntimeConfig::EagerMaps});
  // Two lattice maps + one scalar map per iteration, plus the two initial
  // data-region maps.
  EXPECT_GE(eager.stats.count(HsaCall::SvmAttributesSet),
            static_cast<std::uint64_t>(3 * params.iterations));
}

TEST(SpecEp, FirstTouchPenaltyMakesZeroCopySlower) {
  const Program p = make_ep(tiny_ep());
  const RunResult copy = run_program(p, {.config = RuntimeConfig::LegacyCopy});
  const RunResult zc =
      run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy});
  const RunResult eager = run_program(p, {.config = RuntimeConfig::EagerMaps});
  // The paper's 0.89 ratio: zero-copy slower than Copy on ep.
  EXPECT_GT(zc.wall_time, copy.wall_time);
  // Eager Maps recovers almost all of it.
  EXPECT_LT(eager.wall_time, zc.wall_time);
  // Copy performs no memory copies on ep beyond the scalar reductions.
  EXPECT_LT(copy.ledger.mm_copy(), sim::Duration::milliseconds(1));
  EXPECT_GT(copy.ledger.mm_alloc(), copy.ledger.mm_copy());
  // MI: only the zero-copy config pays GPU first-touch.
  EXPECT_GT(zc.ledger.mi(), sim::Duration::zero());
  EXPECT_EQ(copy.ledger.mi(), sim::Duration::zero());
  EXPECT_EQ(eager.ledger.mi(), sim::Duration::zero());
}

TEST(SpecEp, ArenaFaultsAreNonResident) {
  const EpParams params = tiny_ep();
  const Program p = make_ep(params);
  const RunResult zc =
      run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy});
  // The arena faults page by page, plus the one page of the counts array.
  EXPECT_EQ(zc.totals().page_faults,
            params.arena_bytes / (2ULL << 20) + 1);
}

TEST(SpecSpc, CopyMuchSlowerThanZeroCopy) {
  const Program p = make_spc(tiny_spc());
  const RunResult copy = run_program(p, {.config = RuntimeConfig::LegacyCopy});
  const RunResult zc =
      run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy});
  const RunResult eager = run_program(p, {.config = RuntimeConfig::EagerMaps});
  EXPECT_GT(copy.wall_time / zc.wall_time, 2.0);
  // Eager Maps is the best configuration on spC (paper: 8.10 vs 7.80).
  EXPECT_LT(eager.wall_time, zc.wall_time);
}

TEST(SpecSpc, FreshStackAddressesFaultEveryCycle) {
  const SpcParams params = tiny_spc();
  const Program p = make_spc(params);
  const RunResult zc =
      run_program(p, {.config = RuntimeConfig::ImplicitZeroCopy});
  // Both arrays plus the fresh norm scalar fault anew on every cycle.
  const std::uint64_t pages_per_cycle =
      2 * params.array_bytes / (2ULL << 20) + 1;
  EXPECT_EQ(zc.totals().page_faults,
            pages_per_cycle * static_cast<std::uint64_t>(params.cycles));
}

TEST(SpecBt, RatiosSmallerThanSpcButStillLarge) {
  const RunResult copy_spc =
      run_program(make_spc(tiny_spc()), {.config = RuntimeConfig::LegacyCopy});
  const RunResult zc_spc = run_program(
      make_spc(tiny_spc()), {.config = RuntimeConfig::ImplicitZeroCopy});
  const RunResult copy_bt =
      run_program(make_bt(tiny_bt()), {.config = RuntimeConfig::LegacyCopy});
  const RunResult zc_bt = run_program(
      make_bt(tiny_bt()), {.config = RuntimeConfig::ImplicitZeroCopy});
  const double spc_ratio = copy_spc.wall_time / zc_spc.wall_time;
  const double bt_ratio = copy_bt.wall_time / zc_bt.wall_time;
  EXPECT_GT(bt_ratio, 1.5);
  EXPECT_GT(spc_ratio, bt_ratio);  // bt has more kernel time per cycle
}

TEST(SpecAll, ChecksumsIdenticalAcrossConfigsEverywhere) {
  struct Case {
    const char* name;
    Program program;
  };
  std::vector<Case> cases;
  cases.push_back({"stencil", make_stencil(tiny_stencil())});
  cases.push_back({"lbm", make_lbm(tiny_lbm())});
  cases.push_back({"ep", make_ep(tiny_ep())});
  cases.push_back({"spc", make_spc(tiny_spc())});
  cases.push_back({"bt", make_bt(tiny_bt())});
  for (auto& c : cases) {
    const double ref =
        run_program(c.program, {.config = RuntimeConfig::LegacyCopy}).checksum;
    for (const RuntimeConfig cfg : kAllConfigs) {
      EXPECT_DOUBLE_EQ(run_program(c.program, {.config = cfg}).checksum, ref)
          << c.name << " / " << to_string(cfg);
    }
  }
}

TEST(SpecPartitioned, FourWayShardingKeepsChecksumsAndUsesAllDevices) {
  // devices=4 splits every array into per-device shards with 1/4 the work
  // each. Every shard runs the full iteration count, so the summed checksum
  // is exactly `devices` times the single-device value — and each socket
  // must actually run kernels, all on local memory.
  struct Case {
    const char* name;
    Program whole;
    Program sharded;
  };
  StencilParams st = tiny_stencil();
  LbmParams lbm = tiny_lbm();
  EpParams ep = tiny_ep();
  std::vector<Case> cases;
  {
    StencilParams p4 = st;
    p4.devices = 4;
    cases.push_back({"stencil", make_stencil(st), make_stencil(p4)});
  }
  {
    LbmParams p4 = lbm;
    p4.devices = 4;
    cases.push_back({"lbm", make_lbm(lbm), make_lbm(p4)});
  }
  {
    EpParams p4 = ep;
    p4.devices = 4;
    cases.push_back({"ep", make_ep(ep), make_ep(p4)});
  }
  for (auto& c : cases) {
    const double ref =
        run_program(c.whole, {.config = RuntimeConfig::ImplicitZeroCopy})
            .checksum;
    const RunResult part =
        run_program(c.sharded, {.config = RuntimeConfig::ImplicitZeroCopy,
                                .sockets = 4,
                                .fabric_spec = "xgmi"});
    EXPECT_DOUBLE_EQ(part.checksum, 4.0 * ref) << c.name;
    ASSERT_EQ(part.devices.size(), 4u) << c.name;
    for (int d = 0; d < 4; ++d) {
      EXPECT_GT(part.devices[static_cast<std::size_t>(d)].counters.kernels, 0u)
          << c.name << " device " << d;
      // Local placement: shard kernels never reach across the fabric.
      EXPECT_EQ(part.devices[static_cast<std::size_t>(d)]
                    .counters.remote_kernels,
                0u)
          << c.name << " device " << d;
    }
  }
}

TEST(SpecPartitioned, ShardingPreservesSingleDeviceSchedule) {
  // devices=1 must replay the unsharded program bit-for-bit.
  StencilParams one = tiny_stencil();
  one.devices = 1;
  const RunResult a =
      run_program(make_stencil(tiny_stencil()),
                  {.config = RuntimeConfig::ImplicitZeroCopy});
  const RunResult b = run_program(
      make_stencil(one), {.config = RuntimeConfig::ImplicitZeroCopy});
  EXPECT_EQ(a.wall_time, b.wall_time);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.totals().kernels, b.totals().kernels);
}

}  // namespace
}  // namespace zc::workloads

// Memory-pressure mechanics at the state layer: watermark reclaim into the
// DDR spill tier, GPU-fault/prefault promotion back to HBM, access-counter
// sampling and migration candidates, the THP split/collapse state machine,
// and the accounting invariant that each socket's HBM counter equals the
// occupancy recomputed from page state: resident pages by their home.

#include <gtest/gtest.h>

#include <stdexcept>

#include "zc/mem/memory_system.hpp"

namespace zc::mem {
namespace {

apu::Machine::Config pressured(int sockets = 2) {
  apu::Machine::Config c;
  c.topology.sockets = sockets;
  c.env.ompx_apu_pressure = apu::PressureMode::Watermarks;
  c.env.ompx_apu_automigrate.enabled = true;  // turns counter sampling on
  return c;
}

class PressureTest : public ::testing::Test {
 protected:
  apu::Machine machine_{pressured()};
  MemorySystem mem_{machine_};
  std::uint64_t page_ = machine_.page_bytes();
};

TEST_F(PressureTest, ReclaimSpillsPagesToDdrAndCreditsHbm) {
  Allocation& a = mem_.os_alloc(8 * page_, "buf", /*home_socket=*/0);
  mem_.host_touch(a.range());
  (void)mem_.prefault(a.range(), 0);
  ASSERT_EQ(mem_.hbm_used(0), 8 * page_);
  ASSERT_EQ(mem_.gpu_absent_pages(a.range(), 0), 0u);

  const ReclaimOutcome out = mem_.reclaim(0, 4 * page_, /*max_pages=*/100);
  EXPECT_EQ(out.evicted, 4u);
  EXPECT_EQ(mem_.hbm_used(0), 4 * page_);
  EXPECT_EQ(mem_.ddr_used(), 4 * page_);
  EXPECT_EQ(mem_.ddr_pages(a.range()), 4u);
  // Evicted pages lose their GPU translations but keep the CPU entry —
  // the data is untouched, only slower to reach.
  EXPECT_EQ(mem_.gpu_absent_pages(a.range(), 0), 4u);
  EXPECT_EQ(mem_.cpu_resident_pages(a.range()), 8u);
}

TEST_F(PressureTest, ReclaimIsBatchBounded) {
  Allocation& a = mem_.os_alloc(8 * page_, "buf", 0);
  mem_.host_touch(a.range());
  const ReclaimOutcome out = mem_.reclaim(0, 0, /*max_pages=*/2);
  EXPECT_EQ(out.evicted, 2u);
  EXPECT_EQ(mem_.ddr_used(), 2 * page_);
}

TEST_F(PressureTest, ReclaimAtOrBelowTargetIsANoOp) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  const ReclaimOutcome out = mem_.reclaim(0, 4 * page_, 100);
  EXPECT_EQ(out.evicted, 0u);
  EXPECT_EQ(mem_.ddr_used(), 0u);
}

TEST_F(PressureTest, PoolPagesArePinnedAgainstReclaim) {
  (void)mem_.pool_alloc(4 * page_, "dev", /*socket=*/0);
  ASSERT_EQ(mem_.hbm_used(0), 4 * page_);
  const ReclaimOutcome out = mem_.reclaim(0, 0, 100);
  EXPECT_EQ(out.evicted, 0u);
  EXPECT_EQ(mem_.hbm_used(0), 4 * page_);
}

TEST_F(PressureTest, GpuFaultPromotesSpilledPagesBack) {
  Allocation& a = mem_.os_alloc(8 * page_, "buf", 0);
  mem_.host_touch(a.range());
  (void)mem_.prefault(a.range(), 0);
  ASSERT_EQ(mem_.reclaim(0, 0, 100).evicted, 8u);
  ASSERT_EQ(mem_.ddr_used(), 8 * page_);

  const FaultOutcome fo = mem_.gpu_fault_in(a.range(), 0);
  EXPECT_EQ(fo.faulted, 8u);
  EXPECT_EQ(fo.non_resident, 0u);  // CPU entries survived the spill
  EXPECT_EQ(fo.promoted, 8u);
  EXPECT_EQ(mem_.ddr_used(), 0u);
  EXPECT_EQ(mem_.hbm_used(0), 8 * page_);
}

TEST_F(PressureTest, PrefaultPromotesSpilledPagesBack) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  (void)mem_.prefault(a.range(), 0);
  ASSERT_EQ(mem_.reclaim(0, 0, 100).evicted, 4u);

  const PrefaultOutcome out = mem_.prefault(a.range(), 0);
  EXPECT_EQ(out.promoted, 4u);
  EXPECT_EQ(mem_.ddr_used(), 0u);
  EXPECT_EQ(mem_.hbm_used(0), 4 * page_);
}

TEST_F(PressureTest, EvictionPrefersColdPagesOverHotOnes) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  // Heat the first two pages with a remote-touch streak; the cold tail
  // must be the first to go.
  const AddrRange hot{a.base(), 2 * page_};
  for (int i = 0; i < 3; ++i) {
    mem_.host_touch(hot, /*toucher_socket=*/1);
  }
  const ReclaimOutcome out = mem_.reclaim(0, 2 * page_, 100);
  ASSERT_EQ(out.evicted, 2u);
  EXPECT_EQ(mem_.ddr_pages(hot), 0u);
  EXPECT_EQ(mem_.ddr_pages(a.range()), 2u);
}

TEST_F(PressureTest, RemoteTouchStreakYieldsAMigrationCandidate) {
  Allocation& a = mem_.os_alloc(2 * page_, "buf", /*home_socket=*/0);
  mem_.host_touch(a.range());
  for (int i = 0; i < 4; ++i) {
    mem_.host_touch(a.range(), /*toucher_socket=*/1);
  }
  const MigrationCandidate cand = mem_.take_migration_candidate(4);
  ASSERT_TRUE(cand.valid);
  EXPECT_EQ(cand.to_socket, 1);
  EXPECT_GE(cand.page, a.range().first_page(page_));
  EXPECT_LT(cand.page, a.range().end_page(page_));
}

TEST_F(PressureTest, LocalTouchCoolsTheStreak) {
  Allocation& a = mem_.os_alloc(2 * page_, "buf", 0);
  mem_.host_touch(a.range());
  for (int i = 0; i < 3; ++i) {
    mem_.host_touch(a.range(), /*toucher_socket=*/1);
  }
  mem_.host_touch(a.range(), /*toucher_socket=*/0);  // home reclaims it
  mem_.host_touch(a.range(), /*toucher_socket=*/1);  // streak restarts at 1
  EXPECT_FALSE(mem_.take_migration_candidate(3).valid);
}

TEST_F(PressureTest, CounterLossForgetsEveryStreak) {
  Allocation& a = mem_.os_alloc(2 * page_, "buf", 0);
  mem_.host_touch(a.range());
  for (int i = 0; i < 5; ++i) {
    mem_.host_touch(a.range(), /*toucher_socket=*/1);
  }
  mem_.counter_loss();
  EXPECT_FALSE(mem_.take_migration_candidate(2).valid);
}

TEST_F(PressureTest, ConsumedCandidateIsNotOfferedTwice) {
  Allocation& a = mem_.os_alloc(page_, "buf", 0);
  mem_.host_touch(a.range());
  for (int i = 0; i < 4; ++i) {
    mem_.host_touch(a.range(), /*toucher_socket=*/1);
  }
  ASSERT_TRUE(mem_.take_migration_candidate(4).valid);
  EXPECT_FALSE(mem_.take_migration_candidate(4).valid);
}

TEST_F(PressureTest, PartialMigrateRehomesOnlyTheCoveredPages) {
  Allocation& a = mem_.os_alloc(8 * page_, "buf", /*home_socket=*/0);
  mem_.host_touch(a.range());
  (void)mem_.prefault(a.range(), 0);
  const AddrRange head{a.base(), 2 * page_};
  EXPECT_EQ(mem_.migrate_pages(head, /*to_socket=*/1), 2u);
  EXPECT_EQ(mem_.hbm_used(1), 2 * page_);
  EXPECT_EQ(mem_.hbm_used(0), 6 * page_);
  // Only the covered range's GPU translations were torn down.
  EXPECT_EQ(mem_.gpu_absent_pages(head, 0), 2u);
  EXPECT_EQ(mem_.gpu_absent_pages(a.range(), 0), 2u);
  // The device on socket 1 now sees 6 remote pages, not 8.
  EXPECT_EQ(mem_.remote_pages(a.range(), 1), 6u);
  EXPECT_EQ(mem_.remote_pages(a.range(), 0), 2u);
}

TEST_F(PressureTest, PartialMigrateIsIdempotent) {
  Allocation& a = mem_.os_alloc(8 * page_, "buf", 0);
  mem_.host_touch(a.range());
  const AddrRange head{a.base(), 2 * page_};
  ASSERT_EQ(mem_.migrate_pages(head, 1), 2u);
  const std::uint64_t used0 = mem_.hbm_used(0);
  const std::uint64_t used1 = mem_.hbm_used(1);
  // Re-migrating an already-home subrange moves nothing and changes no
  // accounting.
  EXPECT_EQ(mem_.migrate_pages(head, 1), 0u);
  EXPECT_EQ(mem_.hbm_used(0), used0);
  EXPECT_EQ(mem_.hbm_used(1), used1);
}

TEST_F(PressureTest, PartialMigratePromotesSpilledPagesIntoTheNewHome) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  ASSERT_EQ(mem_.reclaim(0, 0, 100).evicted, 4u);
  const AddrRange head{a.base(), 2 * page_};
  EXPECT_EQ(mem_.migrate_pages(head, 1), 2u);
  EXPECT_EQ(mem_.ddr_pages(head), 0u);
  EXPECT_EQ(mem_.ddr_pages(a.range()), 2u);
  EXPECT_EQ(mem_.hbm_used(1), 2 * page_);
}

TEST_F(PressureTest, WholeRangeMigrateClearsTheSpillState) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  ASSERT_EQ(mem_.reclaim(0, 0, 100).evicted, 4u);
  // A whole-allocation migration rebuilds fresh mappings on the new home:
  // every resident page (DDR-spilled ones included) lands in socket 1 HBM.
  EXPECT_EQ(mem_.migrate_pages(a.range(), 1), 4u);
  EXPECT_EQ(mem_.ddr_used(), 0u);
  EXPECT_EQ(mem_.hbm_used(1), 4 * page_);
  EXPECT_EQ(mem_.hbm_used(0), 0u);
}

TEST_F(PressureTest, ReleaseReturnsSpilledPagesToTheDdrAccounting) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  const VirtAddr base = a.base();
  mem_.host_touch(a.range());
  ASSERT_EQ(mem_.reclaim(0, 0, 100).evicted, 4u);
  mem_.os_free(base);
  EXPECT_EQ(mem_.ddr_used(), 0u);
  EXPECT_EQ(mem_.hbm_used(0), 0u);
}

// --- THP split/collapse state machine (THP=dynamic) ------------------------

apu::Machine::Config dynamic_thp() {
  apu::Machine::Config c = pressured();
  c.env.thp = apu::ThpMode::Dynamic;
  return c;
}

class ThpDynamicTest : public ::testing::Test {
 protected:
  apu::Machine machine_{dynamic_thp()};
  MemorySystem mem_{machine_};
  std::uint64_t page_ = machine_.page_bytes();
};

TEST_F(ThpDynamicTest, EvictionSplitsTheSpilledSpans) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  const ReclaimOutcome out = mem_.reclaim(0, 2 * page_, 100);
  EXPECT_EQ(out.evicted, 2u);
  EXPECT_EQ(out.split, 2u);
  EXPECT_EQ(mem_.split_spans(a.range()), 2u);
}

TEST_F(ThpDynamicTest, PartialMigrateSplitsTheMovedSpans) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  const AddrRange head{a.base(), 2 * page_};
  ASSERT_EQ(mem_.migrate_pages(head, 1), 2u);
  EXPECT_EQ(mem_.split_spans(a.range()), 2u);
}

TEST_F(ThpDynamicTest, PrefaultCollapsesRehomogenizedSpans) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  ASSERT_EQ(mem_.reclaim(0, 0, 100).evicted, 4u);
  ASSERT_EQ(mem_.split_spans(a.range()), 4u);
  // The prefault promotes the spans back to HBM and, once each is again
  // CPU-resident in the fast tier, collapses it to a huge mapping.
  const PrefaultOutcome out = mem_.prefault(a.range(), 0);
  EXPECT_EQ(out.promoted, 4u);
  EXPECT_EQ(out.collapsed, 4u);
  EXPECT_EQ(mem_.split_spans(a.range()), 0u);
}

TEST_F(ThpDynamicTest, SplitFaultsAreCountedPerFault) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  ASSERT_EQ(mem_.reclaim(0, 0, 100).evicted, 4u);
  const FaultOutcome fo = mem_.gpu_fault_in(a.range(), 0);
  EXPECT_EQ(fo.faulted, 4u);
  EXPECT_EQ(fo.split_faulted, 4u);  // every fault landed in a split span
}

TEST_F(ThpDynamicTest, ThpSplitRangeIsAnIdempotentInjection) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  mem_.host_touch(a.range());
  EXPECT_EQ(mem_.thp_split_range(a.range()), 4u);
  EXPECT_EQ(mem_.thp_split_range(a.range()), 0u);  // already split
  EXPECT_EQ(mem_.split_spans(a.range()), 4u);
}

TEST_F(ThpDynamicTest, SplitRangeSkipsUntouchedSpans) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf", 0);
  // Nothing materialized: there is no mapping to split.
  EXPECT_EQ(mem_.thp_split_range(a.range()), 0u);
}

TEST_F(ThpDynamicTest, StaticThpModesNeverSplit) {
  apu::Machine::Config c = pressured();
  c.env.thp = apu::ThpMode::On;
  apu::Machine on_machine{c};
  MemorySystem on_mem{on_machine};
  Allocation& a = on_mem.os_alloc(4 * page_, "buf", 0);
  on_mem.host_touch(a.range());
  EXPECT_EQ(on_mem.thp_split_range(a.range()), 0u);
  const ReclaimOutcome out = on_mem.reclaim(0, 0, 100);
  EXPECT_EQ(out.evicted, 4u);
  EXPECT_EQ(out.split, 0u);
}

// --- accounting drift regression ------------------------------------------

class AccountingTest : public ::testing::Test {
 protected:
  apu::Machine machine_{pressured(/*sockets=*/4)};
  MemorySystem mem_{machine_};
  std::uint64_t page_ = machine_.page_bytes();
};

TEST_F(AccountingTest, ResidencyAttributionNeverDriftsUnderPressureChurn) {
  // A torture sequence over every accounting path: interleaved striping,
  // partial and whole migration, eviction, fault-in promotion, release.
  // Every step recomputes each socket's occupancy from page state and
  // compares it with the counters; any drift throws std::logic_error.
  Allocation& inter =
      mem_.os_alloc_placed(8 * page_, "striped", Placement::Interleaved);
  mem_.host_touch(inter.range());
  EXPECT_NO_THROW(mem_.check_accounting());
  Allocation& fixed = mem_.os_alloc(6 * page_, "fixed", /*home_socket=*/1);
  mem_.host_touch(fixed.range());
  EXPECT_NO_THROW(mem_.check_accounting());
  (void)mem_.prefault(fixed.range(), 1);
  EXPECT_NO_THROW(mem_.check_accounting());

  // Partial migrations create per-page overrides on both allocations.
  const AddrRange inter_head{inter.base(), 2 * page_};
  (void)mem_.migrate_pages(inter_head, 3);
  EXPECT_NO_THROW(mem_.check_accounting());
  const AddrRange fixed_tail{fixed.base() + 4 * page_, 2 * page_};
  (void)mem_.migrate_pages(fixed_tail, 2);
  EXPECT_NO_THROW(mem_.check_accounting());

  // Evict from several sockets, then promote some of it back.
  (void)mem_.reclaim(1, 0, 3);
  EXPECT_NO_THROW(mem_.check_accounting());
  (void)mem_.reclaim(3, 0, 100);
  EXPECT_NO_THROW(mem_.check_accounting());
  (void)mem_.gpu_fault_in(fixed.range(), 1);
  EXPECT_NO_THROW(mem_.check_accounting());

  // Collapse one allocation onto a single home, then free both.
  (void)mem_.migrate_pages(inter.range(), 0);
  EXPECT_NO_THROW(mem_.check_accounting());
  const VirtAddr fixed_base = fixed.base();
  const VirtAddr inter_base = inter.base();
  mem_.os_free(fixed_base);
  EXPECT_NO_THROW(mem_.check_accounting());
  mem_.os_free(inter_base);

  EXPECT_EQ(mem_.ddr_used(), 0u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(mem_.hbm_used(s), 0u) << "socket " << s;
  }
  EXPECT_NO_THROW(mem_.check_accounting());
}

TEST_F(AccountingTest, CheckAccountingPassesOnAFreshSystem) {
  EXPECT_NO_THROW(mem_.check_accounting());
}

TEST_F(AccountingTest, PoolChurnKeepsTheBooksBalanced) {
  Allocation& p = mem_.pool_alloc(4 * page_, "dev", /*socket=*/2);
  EXPECT_NO_THROW(mem_.check_accounting());
  mem_.pool_free(p.base());
  EXPECT_NO_THROW(mem_.check_accounting());
  EXPECT_EQ(mem_.hbm_used(2), 0u);
}

TEST_F(AccountingTest, StraddlingFaultChargesEachPageToItsOwnAllocation) {
  // One GPU fault over a, the guard page after it and b. Each page is
  // charged to its own home, so freeing a leaves b's page and the guard
  // page the fault created on socket 0 (a page outside every allocation
  // counts there).
  Allocation& a = mem_.os_alloc(page_, "a", /*home_socket=*/0);
  Allocation& b = mem_.os_alloc(page_, "b", /*home_socket=*/0);
  ASSERT_EQ(b.base(), a.base() + 2 * page_);
  mem_.host_touch(a.range());
  mem_.host_touch(b.range());
  ASSERT_EQ(mem_.reclaim(0, 0, /*max_pages=*/100).evicted, 2u);
  ASSERT_EQ(mem_.hbm_used(0), 0u);

  const FaultOutcome out =
      mem_.gpu_fault_in(AddrRange{a.base(), 3 * page_}, 0);
  EXPECT_EQ(out.non_resident, 1u);  // the guard page
  EXPECT_EQ(out.promoted, 2u);
  EXPECT_EQ(mem_.hbm_used(0), 3 * page_);
  EXPECT_NO_THROW(mem_.check_accounting());

  mem_.os_free(a.base());
  EXPECT_EQ(mem_.cpu_resident_pages(b.range()), 1u);
  EXPECT_EQ(mem_.hbm_used(0), 2 * page_);
  EXPECT_NO_THROW(mem_.check_accounting());
}

TEST_F(AccountingTest, FaultIntoAPendingFirstTouchBufferResolvesItsHome) {
  // A fault that runs from a into first-touch b materializes b's pages, so
  // it decides b's home: a later touch from another socket cannot rehome
  // pages that are already charged.
  Allocation& a = mem_.os_alloc(page_, "a", /*home_socket=*/0);
  Allocation& b =
      mem_.os_alloc_placed(2 * page_, "b", Placement::FirstTouch);
  ASSERT_EQ(b.base(), a.base() + 2 * page_);
  (void)mem_.gpu_fault_in(AddrRange{a.base(), 4 * page_}, /*socket=*/2);
  EXPECT_FALSE(b.home_pending());
  EXPECT_EQ(b.home_socket(), 2);
  mem_.host_touch(b.range(), /*toucher_socket=*/3);
  EXPECT_EQ(mem_.hbm_used(0), 2 * page_);  // a and the guard page
  EXPECT_EQ(mem_.hbm_used(2), 2 * page_);
  EXPECT_NO_THROW(mem_.check_accounting());
}

TEST_F(AccountingTest, InterleavedPartialTouchChargesEachStripe) {
  // Stripe homes are rel % 4, so relative pages 1-3 live on sockets 1-3.
  Allocation& a =
      mem_.os_alloc_placed(8 * page_, "striped", Placement::Interleaved);
  EXPECT_EQ(mem_.host_touch(AddrRange{a.base() + page_, 3 * page_}), 3u);
  EXPECT_EQ(mem_.hbm_used(0), 0u);
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(mem_.hbm_used(s), page_) << "socket " << s;
  }
  EXPECT_NO_THROW(mem_.check_accounting());
}

TEST_F(AccountingTest, MigratedPageIsChargedToItsNewHomeWhenItMaterializes) {
  // Moving untouched pages moves no data, but it does change their home:
  // the touch that later materializes them charges that new home.
  Allocation& a = mem_.os_alloc(4 * page_, "buf", /*home_socket=*/1);
  EXPECT_EQ(mem_.migrate_pages(AddrRange{a.base() + 2 * page_, 2 * page_},
                               /*to_socket=*/2),
            0u);
  EXPECT_EQ(mem_.host_touch(a.range(), 1), 4u);
  EXPECT_EQ(mem_.hbm_used(1), 2 * page_);
  EXPECT_EQ(mem_.hbm_used(2), 2 * page_);
  EXPECT_NO_THROW(mem_.check_accounting());
}

}  // namespace
}  // namespace zc::mem

// NUMA placement policies on a 4-socket node: fixed homes, first-touch
// resolution by every materializing path, interleaved striping, and page
// migration (residency attribution, placement collapse, translation
// teardown).

#include <gtest/gtest.h>

#include <stdexcept>

#include "zc/mem/memory_system.hpp"

namespace zc::mem {
namespace {

apu::Machine::Config four_sockets() {
  apu::Machine::Config c;
  c.topology.sockets = 4;
  return c;
}

class PlacementTest : public ::testing::Test {
 protected:
  apu::Machine machine_{four_sockets()};
  MemorySystem mem_{machine_};
  std::uint64_t page_ = machine_.page_bytes();
};

TEST_F(PlacementTest, FixedHomeBehavesLikePlainOsAlloc) {
  Allocation& a =
      mem_.os_alloc_placed(4 * page_, "buf", Placement::FixedHome, 2);
  EXPECT_EQ(a.placement(), Placement::FixedHome);
  EXPECT_FALSE(a.home_pending());
  EXPECT_EQ(a.home_socket(), 2);
  EXPECT_EQ(mem_.remote_pages(a.range(), 2), 0u);
  EXPECT_EQ(mem_.remote_pages(a.range(), 0), 4u);
}

TEST_F(PlacementTest, FirstTouchPendingCountsLocalEverywhere) {
  Allocation& a =
      mem_.os_alloc_placed(4 * page_, "buf", Placement::FirstTouch);
  EXPECT_TRUE(a.home_pending());
  // Nobody owns it yet: no device sees it as remote.
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(mem_.remote_pages(a.range(), d), 0u);
  }
}

TEST_F(PlacementTest, HostTouchResolvesFirstTouchToTheTouchingSocket) {
  Allocation& a =
      mem_.os_alloc_placed(4 * page_, "buf", Placement::FirstTouch);
  EXPECT_EQ(mem_.host_touch(a.range(), /*toucher_socket=*/3), 4u);
  EXPECT_FALSE(a.home_pending());
  EXPECT_EQ(a.home_socket(), 3);
  EXPECT_EQ(mem_.remote_pages(a.range(), 3), 0u);
  EXPECT_EQ(mem_.remote_pages(a.range(), 0), 4u);
  // The materialized pages are attributed to the resolved home's HBM.
  EXPECT_EQ(mem_.hbm_used(3), 4 * page_);
  EXPECT_EQ(mem_.hbm_used(0), 0u);
}

TEST_F(PlacementTest, GpuFaultResolvesFirstTouchToTheFaultingSocket) {
  Allocation& a =
      mem_.os_alloc_placed(2 * page_, "buf", Placement::FirstTouch);
  (void)mem_.gpu_fault_in(a.range(), /*socket=*/1);
  EXPECT_EQ(a.home_socket(), 1);
  EXPECT_EQ(mem_.hbm_used(1), 2 * page_);
}

TEST_F(PlacementTest, PrefaultResolvesFirstTouchToTheTargetSocket) {
  Allocation& a =
      mem_.os_alloc_placed(2 * page_, "buf", Placement::FirstTouch);
  (void)mem_.prefault(a.range(), /*socket=*/2);
  EXPECT_EQ(a.home_socket(), 2);
}

TEST_F(PlacementTest, InterleavedStripesPageHomesRoundRobin) {
  Allocation& a =
      mem_.os_alloc_placed(8 * page_, "buf", Placement::Interleaved);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.page_home(a.base() + static_cast<std::uint64_t>(i) * page_,
                          page_),
              i % 4);
  }
  // Every device sees 3/4 of the pages as remote.
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(mem_.remote_pages(a.range(), d), 6u);
  }
  // A sub-range stripes relative to the allocation origin.
  EXPECT_EQ(mem_.remote_pages(AddrRange{a.base() + 4 * page_, 2 * page_}, 0),
            1u);
}

TEST_F(PlacementTest, InterleavedTouchSplitsHbmAttributionEvenly) {
  Allocation& a =
      mem_.os_alloc_placed(8 * page_, "buf", Placement::Interleaved);
  EXPECT_EQ(mem_.host_touch(a.range()), 8u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(mem_.hbm_used(s), 2 * page_);
  }
}

TEST_F(PlacementTest, MigrateMovesResidencyAndCollapsesPlacement) {
  Allocation& a =
      mem_.os_alloc_placed(4 * page_, "buf", Placement::FixedHome, 0);
  (void)mem_.host_touch(a.range());
  (void)mem_.gpu_fault_in(a.range(), 0);
  ASSERT_EQ(mem_.gpu_absent_pages(a.range(), 0), 0u);

  EXPECT_EQ(mem_.migrate_pages(a.range(), 2), 4u);
  EXPECT_EQ(a.placement(), Placement::FixedHome);
  EXPECT_EQ(a.home_socket(), 2);
  // HBM attribution followed the pages.
  EXPECT_EQ(mem_.hbm_used(0), 0u);
  EXPECT_EQ(mem_.hbm_used(2), 4 * page_);
  // Remapping physical pages tears down every GPU translation.
  EXPECT_EQ(mem_.gpu_absent_pages(a.range(), 0), 4u);
}

TEST_F(PlacementTest, MigrateInterleavedCollapsesOntoOneHome) {
  Allocation& a =
      mem_.os_alloc_placed(8 * page_, "buf", Placement::Interleaved);
  (void)mem_.host_touch(a.range());
  EXPECT_EQ(mem_.migrate_pages(a.range(), 1), 8u);
  EXPECT_EQ(a.placement(), Placement::FixedHome);
  EXPECT_EQ(mem_.remote_pages(a.range(), 1), 0u);
  EXPECT_EQ(mem_.hbm_used(1), 8 * page_);
  EXPECT_EQ(mem_.hbm_used(0), 0u);
}

TEST_F(PlacementTest, MigrateToCurrentHomeMovesNothing) {
  Allocation& a =
      mem_.os_alloc_placed(4 * page_, "buf", Placement::FixedHome, 1);
  (void)mem_.host_touch(a.range());
  EXPECT_EQ(mem_.migrate_pages(a.range(), 1), 0u);
}

TEST_F(PlacementTest, MigratePendingFirstTouchJustDecidesTheHome) {
  Allocation& a =
      mem_.os_alloc_placed(4 * page_, "buf", Placement::FirstTouch);
  EXPECT_EQ(mem_.migrate_pages(a.range(), 3), 0u);
  EXPECT_FALSE(a.home_pending());
  EXPECT_EQ(a.home_socket(), 3);
}

TEST_F(PlacementTest, PoolAllocationsRefuseMigration) {
  Allocation& a = mem_.pool_alloc(2 * page_, "dev", 0);
  EXPECT_THROW((void)mem_.migrate_pages(a.range(), 1), std::invalid_argument);
}

TEST_F(PlacementTest, UnknownRangeRefusesMigration) {
  EXPECT_THROW((void)mem_.migrate_pages(AddrRange{VirtAddr{0x1000}, page_}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace zc::mem

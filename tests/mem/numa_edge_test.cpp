// NUMA edge interactions of the pressure subsystem: a first-touch home
// resolving while another thread's watermark reclaim is running, an
// interleaved allocation migrated across a THP span boundary, and a page
// migration overlapping an in-flight cross-APU SDMA copy.

#include <gtest/gtest.h>

#include <cstring>

#include "zc/hsa/runtime.hpp"
#include "zc/mem/memory_system.hpp"

namespace zc::mem {
namespace {

using namespace zc::sim::literals;

apu::Machine::Config two_sockets(apu::ThpMode thp = apu::ThpMode::On) {
  apu::Machine::Config c;
  c.topology.sockets = 2;
  c.env.thp = thp;
  c.env.ompx_apu_pressure = apu::PressureMode::Watermarks;
  c.env.ompx_apu_automigrate.enabled = true;
  return c;
}

TEST(NumaEdge, FirstTouchRacingConcurrentEvictionKeepsBooksBalanced) {
  apu::Machine machine{two_sockets()};
  MemorySystem mem{machine};
  const std::uint64_t page = machine.page_bytes();

  Allocation& ft =
      mem.os_alloc_placed(8 * page, "first-touch", Placement::FirstTouch);
  Allocation& filler = mem.os_alloc(8 * page, "filler", /*home_socket=*/0);

  machine.sched().spawn("toucher", [&] {
    // Half the buffer materializes (resolving the pending home to socket
    // 0), the rest arrives after the evictor has already run once.
    mem.host_touch(AddrRange{ft.base(), 4 * page}, /*toucher_socket=*/0);
    EXPECT_NO_THROW(mem.check_accounting());
    machine.sched().advance(10_us);
    mem.host_touch(AddrRange{ft.base() + 4 * page, 4 * page}, 0);
    EXPECT_NO_THROW(mem.check_accounting());
  });
  machine.sched().spawn("evictor", [&] {
    mem.host_touch(filler.range(), 0);
    EXPECT_NO_THROW(mem.check_accounting());
    // First pass: the first-touch buffer is only half resident — reclaim
    // may take any mix of filler and resolved first-touch pages, but a
    // still-pending allocation must never be a victim. The books are
    // re-checked after each pass.
    machine.sched().advance(5_us);
    (void)mem.reclaim(0, 0, /*max_pages=*/6);
    EXPECT_NO_THROW(mem.check_accounting());
    machine.sched().advance(20_us);
    (void)mem.reclaim(0, 0, /*max_pages=*/100);
    EXPECT_NO_THROW(mem.check_accounting());
  });
  machine.sched().run();

  // Every page is spilled or resident, never lost: 16 pages of backing
  // split exactly between HBM and the DDR tier, CPU entries intact.
  EXPECT_EQ(mem.cpu_resident_pages(ft.range()), 8u);
  EXPECT_EQ(mem.cpu_resident_pages(filler.range()), 8u);
  EXPECT_EQ(mem.hbm_used(0) + mem.hbm_used(1) + mem.ddr_used(), 16 * page);
  EXPECT_NO_THROW(mem.check_accounting());
}

TEST(NumaEdge, InterleavedMigrationStraddlingAThpSpanBoundary) {
  apu::Machine machine{two_sockets(apu::ThpMode::Dynamic)};
  MemorySystem mem{machine};
  const std::uint64_t page = machine.page_bytes();

  // Stripe homes: rel 0 -> 0, rel 1 -> 1, rel 2 -> 0, rel 3 -> 1.
  Allocation& a =
      mem.os_alloc_placed(4 * page, "striped", Placement::Interleaved);
  mem.host_touch(a.range());
  ASSERT_EQ(mem.hbm_used(0), 2 * page);
  ASSERT_EQ(mem.hbm_used(1), 2 * page);
  EXPECT_NO_THROW(mem.check_accounting());

  // A byte range starting mid-span 1 and ending mid-span 2: it covers two
  // huge spans with *different* stripe homes. Span 1 is already homed on
  // the target (skipped idempotently); span 2 re-homes.
  const AddrRange straddle{a.base() + page + page / 2, page};
  EXPECT_EQ(mem.migrate_pages(straddle, /*to_socket=*/1), 1u);
  EXPECT_EQ(mem.hbm_used(0), page);
  EXPECT_EQ(mem.hbm_used(1), 3 * page);
  EXPECT_NO_THROW(mem.check_accounting());
  // Only the moved span splits (the skipped one keeps its huge mapping).
  EXPECT_EQ(mem.split_spans(a.range()), 1u);
  // Device 1 now reaches only stripe-rel-0 remotely; device 0 lost rel 2.
  EXPECT_EQ(mem.remote_pages(a.range(), 1), 1u);
  EXPECT_EQ(mem.remote_pages(a.range(), 0), 3u);

  // Re-issuing the same straddling migration is fully idempotent.
  EXPECT_EQ(mem.migrate_pages(straddle, 1), 0u);
  EXPECT_EQ(mem.hbm_used(0), page);
  EXPECT_EQ(mem.hbm_used(1), 3 * page);
  EXPECT_NO_THROW(mem.check_accounting());
}

TEST(NumaEdge, MigrationDuringInFlightCrossApuCopyPreservesTheData) {
  apu::Machine machine{two_sockets()};
  MemorySystem mem{machine};
  hsa::Runtime rt{machine, mem};
  const std::uint64_t page = machine.page_bytes();

  Allocation& src = mem.os_alloc(2 * page, "src", /*home_socket=*/0);
  Allocation& dst = mem.os_alloc(2 * page, "dst", /*home_socket=*/1);

  hsa::Signal copy_sig;
  machine.sched().spawn("copier", [&] {
    mem.host_touch(src.range(), 0);
    mem.host_touch(dst.range(), 1);
    EXPECT_NO_THROW(mem.check_accounting());
    std::memset(mem.space().translate(src.base()), 0x5a, 2 * page);
    // Cross-socket D2D copy: the SDMA engine holds the transfer in flight
    // well past the migrator's wake-up below.
    copy_sig = rt.memory_async_copy(dst.base(), src.base(), 2 * page,
                                    /*with_handler=*/false,
                                    /*count_in_ledger=*/true, /*device=*/1);
    rt.signal_wait_scacquire(copy_sig);
  });
  machine.sched().spawn("migrator", [&] {
    machine.sched().advance(1_us);
    // The source allocation migrates under the in-flight copy. Data is
    // unaffected (the functional transfer is attributed to submit time, in
    // program order on the copier), and the teardown/remap must leave the
    // books balanced.
    EXPECT_EQ(rt.migrate_pages(src.range(), /*device=*/1), 2u);
    EXPECT_NO_THROW(mem.check_accounting());
  });
  machine.sched().run();

  EXPECT_FALSE(copy_sig.errored());
  const std::byte* const out = mem.space().translate(dst.base());
  for (std::uint64_t i = 0; i < 2 * page; i += page / 4) {
    EXPECT_EQ(std::to_integer<int>(out[i]), 0x5a) << "offset " << i;
  }
  EXPECT_EQ(src.home_socket(), 1);
  EXPECT_EQ(mem.hbm_used(1), 4 * page);
  EXPECT_NO_THROW(mem.check_accounting());
}

}  // namespace
}  // namespace zc::mem

// The unified-memory protocols must behave identically in *counts* for any
// power-of-two page size — only the number of pages changes. Parameterized
// over page sizes (THP off = 4 KB, THP on = 2 MB, plus hypothetical sizes).

#include <gtest/gtest.h>

#include "zc/mem/memory_system.hpp"

namespace zc::mem {
namespace {

class PageSizeMatrix : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  apu::Machine make_machine() const {
    apu::Machine::Config cfg;
    cfg.kind = apu::MachineKind::ApuMi300a;
    // page_bytes is derived from THP in RunEnvironment; pick the closest
    // real setting and override capacity-independent checks by page count.
    cfg.env.thp =
        GetParam() == (2ULL << 20) ? apu::ThpMode::On : apu::ThpMode::Off;
    return apu::Machine{std::move(cfg)};
  }
};

INSTANTIATE_TEST_SUITE_P(Thp, PageSizeMatrix,
                         ::testing::Values(4096ULL, 2ULL << 20));

TEST_P(PageSizeMatrix, ProtocolCountsScaleWithPageSize) {
  apu::Machine machine = make_machine();
  ASSERT_EQ(machine.page_bytes(), GetParam());
  MemorySystem mem{machine};
  const std::uint64_t bytes = 8ULL << 20;  // 8 MB
  const std::uint64_t pages = bytes / GetParam();

  Allocation& a = mem.os_alloc(bytes, "buf");
  EXPECT_EQ(mem.gpu_absent_pages(a.range()), pages);

  const FaultOutcome faults = mem.gpu_fault_in(a.range());
  EXPECT_EQ(faults.faulted, pages);
  EXPECT_EQ(faults.non_resident, pages);
  EXPECT_EQ(mem.gpu_absent_pages(a.range()), 0u);

  Allocation& b = mem.os_alloc(bytes, "buf2");
  (void)mem.host_touch(b.range());
  const PrefaultOutcome pf = mem.prefault(b.range());
  EXPECT_EQ(pf.inserted, pages);
  EXPECT_EQ(pf.materialized, 0u);  // host-resident

  const PrefaultOutcome again = mem.prefault(b.range());
  EXPECT_EQ(again.inserted, 0u);
  EXPECT_EQ(again.present, pages);
}

TEST_P(PageSizeMatrix, FreeInvalidatesForAnyPageSize) {
  apu::Machine machine = make_machine();
  MemorySystem mem{machine};
  Allocation& a = mem.os_alloc(4ULL << 20, "buf");
  const AddrRange r = a.range();
  (void)mem.gpu_fault_in(r);
  (void)mem.tlb_access(r);
  mem.os_free(a.base());
  EXPECT_EQ(mem.gpu_pt().count_present(r), 0u);
  EXPECT_EQ(mem.cpu_pt().count_present(r), 0u);
}

TEST_P(PageSizeMatrix, PartialPageRangesRoundOutward) {
  apu::Machine machine = make_machine();
  MemorySystem mem{machine};
  const std::uint64_t page = machine.page_bytes();
  Allocation& a = mem.os_alloc(3 * page, "buf");
  // One byte in the middle page faults exactly that page.
  const AddrRange middle{a.base() + page + page / 2, 1};
  const FaultOutcome out = mem.gpu_fault_in(middle);
  EXPECT_EQ(out.faulted, 1u);
  EXPECT_EQ(mem.gpu_absent_pages(a.range()), 2u);
}

}  // namespace
}  // namespace zc::mem

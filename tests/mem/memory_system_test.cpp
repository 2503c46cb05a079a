#include "zc/mem/memory_system.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace zc::mem {
namespace {

class MemorySystemTest : public ::testing::Test {
 protected:
  apu::Machine machine_ = apu::Machine::mi300a();
  MemorySystem mem_{machine_};
  std::uint64_t page_ = machine_.page_bytes();
};

TEST_F(MemorySystemTest, OsAllocCreatesNoPageTableEntries) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf");
  EXPECT_EQ(mem_.cpu_pt().count_present(a.range()), 0u);
  EXPECT_EQ(mem_.gpu_pt().count_present(a.range()), 0u);
  EXPECT_EQ(mem_.gpu_absent_pages(a.range()), 4u);
}

TEST_F(MemorySystemTest, PoolAllocBulkMapsBothTablesOnApu) {
  Allocation& a = mem_.pool_alloc(4 * page_, "dev");
  EXPECT_EQ(mem_.gpu_pt().count_present(a.range()), 4u);
  EXPECT_EQ(mem_.cpu_pt().count_present(a.range()), 4u);
  EXPECT_EQ(mem_.gpu_absent_pages(a.range()), 0u);
}

TEST(MemorySystemDiscrete, PoolAllocIsDeviceOnlyOnDiscreteGpu) {
  apu::Machine machine = apu::Machine::discrete_gpu();
  MemorySystem mem{machine};
  Allocation& a = mem.pool_alloc(4 * machine.page_bytes(), "dev");
  EXPECT_EQ(mem.gpu_pt().count_present(a.range()), 4u);
  EXPECT_EQ(mem.cpu_pt().count_present(a.range()), 0u);
}

TEST_F(MemorySystemTest, HostTouchMaterializesCpuPagesOnce) {
  Allocation& a = mem_.os_alloc(3 * page_, "buf");
  EXPECT_EQ(mem_.host_touch(a.range()), 3u);
  EXPECT_EQ(mem_.host_touch(a.range()), 0u);
  EXPECT_EQ(mem_.cpu_pt().count_present(a.range()), 3u);
  // Host touch does not populate the GPU page table.
  EXPECT_EQ(mem_.gpu_absent_pages(a.range()), 3u);
}

TEST_F(MemorySystemTest, GpuFaultInIsOneOffPerPage) {
  Allocation& a = mem_.os_alloc(5 * page_, "buf");
  const FaultOutcome first = mem_.gpu_fault_in(a.range());
  EXPECT_EQ(first.faulted, 5u);
  EXPECT_EQ(first.non_resident, 5u);  // never CPU-touched
  const FaultOutcome second = mem_.gpu_fault_in(a.range());
  EXPECT_EQ(second.faulted, 0u);  // subsequent touches are free
  EXPECT_EQ(mem_.gpu_absent_pages(a.range()), 0u);
  // Fault-in also materialized host pages (the XNACK walk).
  EXPECT_EQ(mem_.cpu_pt().count_present(a.range()), 5u);
}

TEST_F(MemorySystemTest, FaultsOnHostResidentPagesReportResident) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf");
  (void)mem_.host_touch(AddrRange{a.base(), 2 * page_});  // CPU touched half
  const FaultOutcome out = mem_.gpu_fault_in(a.range());
  EXPECT_EQ(out.faulted, 4u);
  EXPECT_EQ(out.non_resident, 2u);
  EXPECT_EQ(out.resident(), 2u);
}

TEST_F(MemorySystemTest, PrefaultReportsInsertedVsPresent) {
  Allocation& a = mem_.os_alloc(6 * page_, "buf");
  const PrefaultOutcome first = mem_.prefault(a.range());
  EXPECT_EQ(first.inserted, 6u);
  EXPECT_EQ(first.present, 0u);
  const PrefaultOutcome second = mem_.prefault(a.range());
  EXPECT_EQ(second.inserted, 0u);
  EXPECT_EQ(second.present, 6u);
}

TEST_F(MemorySystemTest, PrefaultThenGpuTouchNeedsNoFault) {
  Allocation& a = mem_.os_alloc(2 * page_, "buf");
  (void)mem_.prefault(a.range());
  EXPECT_EQ(mem_.gpu_absent_pages(a.range()), 0u);
}

TEST_F(MemorySystemTest, PartialFaultThenPrefaultCountsRemainder) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf");
  (void)mem_.gpu_fault_in(AddrRange{a.base(), page_});  // first page only
  const PrefaultOutcome out = mem_.prefault(a.range());
  EXPECT_EQ(out.inserted, 3u);
  EXPECT_EQ(out.present, 1u);
}

TEST_F(MemorySystemTest, FreeDropsTranslationsSoReuseWouldFault) {
  Allocation& a = mem_.os_alloc(2 * page_, "buf");
  (void)mem_.gpu_fault_in(a.range());
  const AddrRange r = a.range();
  mem_.os_free(a.base());
  EXPECT_EQ(mem_.gpu_pt().count_present(r), 0u);
  EXPECT_EQ(mem_.cpu_pt().count_present(r), 0u);
}

TEST_F(MemorySystemTest, PoolFreeDropsGpuEntries) {
  Allocation& a = mem_.pool_alloc(2 * page_, "dev");
  const AddrRange r = a.range();
  mem_.pool_free(a.base());
  EXPECT_EQ(mem_.gpu_pt().count_present(r), 0u);
}

TEST_F(MemorySystemTest, KindMismatchOnFreeThrows) {
  Allocation& os = mem_.os_alloc(page_, "os");
  Allocation& dev = mem_.pool_alloc(page_, "dev");
  EXPECT_THROW(mem_.pool_free(os.base()), std::invalid_argument);
  EXPECT_THROW(mem_.os_free(dev.base()), std::invalid_argument);
}

TEST_F(MemorySystemTest, FreeOfInteriorAddressThrows) {
  Allocation& a = mem_.os_alloc(2 * page_, "buf");
  EXPECT_THROW(mem_.os_free(a.base() + 1), std::invalid_argument);
}

TEST_F(MemorySystemTest, TlbAccessGoesThroughSharedTlb) {
  Allocation& a = mem_.pool_alloc(3 * page_, "dev");
  const TlbAccessResult first = mem_.tlb_access(a.range());
  EXPECT_EQ(first.misses, 3u);
  const TlbAccessResult second = mem_.tlb_access(a.range());
  EXPECT_EQ(second.hits, 3u);
}

class MemoryCapacityTest : public ::testing::Test {
 protected:
  static apu::Machine small_machine() {
    apu::Machine::Config config;
    config.topology.hbm_bytes = 16ULL << 21;  // 16 huge pages per socket
    return apu::Machine{std::move(config)};
  }

  apu::Machine machine_ = small_machine();
  MemorySystem mem_{machine_};
  std::uint64_t page_ = machine_.page_bytes();
};

TEST_F(MemoryCapacityTest, HbmChargedOnMaterializationNotReservation) {
  Allocation& a = mem_.os_alloc(8 * page_, "buf");
  EXPECT_EQ(mem_.hbm_used(0), 0u);  // virtual reservation is free
  (void)mem_.host_touch(AddrRange{a.base(), 3 * page_});
  EXPECT_EQ(mem_.hbm_used(0), 3 * page_);
  (void)mem_.host_touch(AddrRange{a.base(), 3 * page_});  // idempotent
  EXPECT_EQ(mem_.hbm_used(0), 3 * page_);
  // GPU demand fault-in materializes the remaining five pages.
  (void)mem_.gpu_fault_in(a.range());
  EXPECT_EQ(mem_.hbm_used(0), 8 * page_);
  mem_.os_free(a.base());
  EXPECT_EQ(mem_.hbm_used(0), 0u);
}

TEST_F(MemoryCapacityTest, PrefaultChargesOnlyMaterializedPages) {
  Allocation& a = mem_.os_alloc(4 * page_, "buf");
  (void)mem_.host_touch(AddrRange{a.base(), page_});
  EXPECT_EQ(mem_.hbm_used(0), page_);
  (void)mem_.prefault(a.range());  // 1 resident insert + 3 materializations
  EXPECT_EQ(mem_.hbm_used(0), 4 * page_);
}

TEST_F(MemoryCapacityTest, PoolAllocChargesFootprintAndFreeCredits) {
  Allocation& a = mem_.pool_alloc(4 * page_, "dev");
  EXPECT_EQ(mem_.hbm_used(0), 4 * page_);
  mem_.pool_free(a.base());
  EXPECT_EQ(mem_.hbm_used(0), 0u);
}

TEST_F(MemoryCapacityTest, PoolAllocationIsRefusedBeyondCapacity) {
  EXPECT_TRUE(mem_.pool_fits(16 * page_));
  EXPECT_FALSE(mem_.pool_fits(17 * page_));
  EXPECT_EQ(mem_.try_pool_alloc(17 * page_, "big"), nullptr);
  Allocation* a = mem_.try_pool_alloc(12 * page_, "a");
  ASSERT_NE(a, nullptr);
  // 4 pages left: 5 no longer fit, and the throwing wrapper agrees.
  EXPECT_FALSE(mem_.pool_fits(5 * page_));
  EXPECT_EQ(mem_.try_pool_alloc(5 * page_, "b"), nullptr);
  EXPECT_THROW(mem_.pool_alloc(5 * page_, "c"), std::runtime_error);
  EXPECT_TRUE(mem_.pool_fits(4 * page_));
}

TEST_F(MemoryCapacityTest, HostMaterializationCompetesWithPoolForHbm) {
  // The paper's premise: one physical store. CPU-resident pages shrink
  // what the ROCr pool can hand out.
  Allocation& a = mem_.os_alloc(10 * page_, "host");
  (void)mem_.host_touch(a.range());
  EXPECT_FALSE(mem_.pool_fits(7 * page_));
  EXPECT_TRUE(mem_.pool_fits(6 * page_));
}

TEST(MemoryCapacityDiscrete, DiscretePoolChargesDeviceMemoryOnly) {
  apu::Machine::Config config;
  config.kind = apu::MachineKind::DiscreteGpu;
  config.topology.hbm_bytes = 8ULL << 21;
  apu::Machine machine{std::move(config)};
  MemorySystem mem{machine};
  const std::uint64_t page = machine.page_bytes();
  // Host-side materialization does not consume device memory on a
  // discrete node...
  Allocation& host = mem.os_alloc(8 * page, "host");
  (void)mem.host_touch(host.range());
  EXPECT_EQ(mem.hbm_used(0), 0u);
  // ...but pool allocations charge their full footprint against it.
  Allocation& dev = mem.pool_alloc(6 * page, "dev");
  EXPECT_EQ(mem.hbm_used(0), 6 * page);
  EXPECT_FALSE(mem.pool_fits(3 * page));
  mem.pool_free(dev.base());
  EXPECT_EQ(mem.hbm_used(0), 0u);
}

TEST_F(MemorySystemTest, ThpOffMultipliesPageCounts) {
  apu::RunEnvironment env;
  env.thp = apu::ThpMode::Off;
  apu::Machine machine = apu::Machine::mi300a(env);
  MemorySystem mem{machine};
  Allocation& a = mem.os_alloc(2ULL << 20, "buf");  // 2 MB
  EXPECT_EQ(mem.gpu_fault_in(a.range()).faulted, 512u);  // 4 KB pages
}

}  // namespace
}  // namespace zc::mem

// HSA-level behavior of the memory-pressure subsystem: watermark reclaim
// on the pool-allocation and dispatch paths, access-counter auto-migration,
// and end-to-end injection of the four pressure fault tokens.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "zc/hsa/runtime.hpp"

namespace zc::hsa {
namespace {

using namespace zc::sim::literals;
using sim::Duration;
using trace::FaultEvent;
using trace::HsaCall;

constexpr std::uint64_t kPage = 2ULL << 20;

/// Stack with pressure handling, a small HBM, and an optional fault
/// schedule wired in.
class PressureHsaTest : public ::testing::Test {
 protected:
  void make(const std::string& faults, std::uint64_t hbm_pages = 32,
            apu::PressureMode pressure = apu::PressureMode::Watermarks,
            bool automigrate = false,
            apu::ThpMode thp = apu::ThpMode::On) {
    apu::Machine::Config config;
    config.env.ompx_apu_faults = faults;
    config.env.ompx_apu_pressure = pressure;
    config.env.ompx_apu_automigrate.enabled = automigrate;
    config.env.thp = thp;
    config.topology.sockets = 2;
    config.topology.hbm_bytes = hbm_pages * kPage;
    machine_ = std::make_unique<apu::Machine>(std::move(config));
    mem_ = std::make_unique<mem::MemorySystem>(*machine_);
    rt_ = std::make_unique<Runtime>(*machine_, *mem_);
  }

  void run(std::function<void()> body) {
    machine_->sched().run_single(std::move(body));
  }

  /// A minimal zero-copy kernel over `a`.
  void launch(mem::Allocation& a, const char* name = "k") {
    KernelLaunch k{.name = name,
                   .buffers = {{a.base(), a.bytes(), Access::ReadWrite}},
                   .compute = 10_us,
                   .body = {}};
    rt_->run_kernel(k);
  }

  std::unique_ptr<apu::Machine> machine_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<Runtime> rt_;
};

TEST_F(PressureHsaTest, PoolAllocationReclaimsColdPagesInsteadOfFailing) {
  make("", /*hbm_pages=*/32);
  run([&] {
    // 16 zero-copy pages become HBM-resident on socket 0...
    mem::Allocation& zc = mem_->os_alloc(16 * kPage, "zc", /*home_socket=*/0);
    mem_->host_touch(zc.range());
    ASSERT_EQ(mem_->hbm_used(0), 16 * kPage);
    // ...so a 24-page pool request exceeds capacity. Under watermarks the
    // driver spills cold zero-copy pages to DDR and the allocation lands.
    const PoolAllocResult r = rt_->try_memory_pool_allocate(24 * kPage, "pool");
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.reclaimed, 8u);
    EXPECT_GE(mem_->ddr_used(), 8 * kPage);
    EXPECT_LE(mem_->hbm_used(0), 32 * kPage);
    EXPECT_EQ(mem_->split_spans(zc.range()), 0u);  // static THP
    EXPECT_NO_THROW(mem_->check_accounting());
  });
  EXPECT_EQ(rt_->fault_trace().count(FaultEvent::PoolReclaimed), 1u);
  EXPECT_FALSE(rt_->fault_trace().any(FaultEvent::HbmExhausted));
  EXPECT_EQ(rt_->fault_trace().records().size(), 1u);
  EXPECT_GE(rt_->device_counters()[0].evicted_pages, 8u);
}

TEST_F(PressureHsaTest, ReclaimRecordsTheThpSpansItSplits) {
  // Under THP=dynamic every spilled page splits the 2 MB span around it.
  // The split pricing is charged to the reclaim, and the split spans are
  // recorded in the memory system's split-span set: one per evicted page.
  make("", /*hbm_pages=*/32, apu::PressureMode::Watermarks,
       /*automigrate=*/false, apu::ThpMode::Dynamic);
  std::uint64_t split = 0;
  run([&] {
    mem::Allocation& zc = mem_->os_alloc(16 * kPage, "zc", 0);
    mem_->host_touch(zc.range());
    ASSERT_EQ(mem_->split_spans(zc.range()), 0u);
    ASSERT_TRUE(rt_->try_memory_pool_allocate(24 * kPage, "pool").ok());
    split = mem_->split_spans(zc.range());
  });
  ASSERT_GT(split, 0u);
  EXPECT_EQ(split, rt_->device_counters()[0].evicted_pages);
}

TEST_F(PressureHsaTest, PoolAllocationStillFailsHardWithPressureOff) {
  make("", /*hbm_pages=*/32, apu::PressureMode::Off);
  run([&] {
    mem::Allocation& zc = mem_->os_alloc(16 * kPage, "zc", 0);
    mem_->host_touch(zc.range());
    const PoolAllocResult r = rt_->try_memory_pool_allocate(24 * kPage, "pool");
    EXPECT_EQ(r.status, Status::OutOfMemory);
    EXPECT_EQ(r.reclaimed, 0u);
    EXPECT_EQ(mem_->ddr_used(), 0u);
  });
  EXPECT_TRUE(rt_->fault_trace().any(FaultEvent::HbmExhausted));
  EXPECT_FALSE(rt_->fault_trace().any(FaultEvent::PoolReclaimed));
}

TEST_F(PressureHsaTest, ReclaimingAllocationCostsMoreThanACleanOne) {
  make("", /*hbm_pages=*/64);
  Duration clean;
  Duration reclaiming;
  run([&] {
    const sim::TimePoint t0 = machine_->sched().now();
    const PoolAllocResult a = rt_->try_memory_pool_allocate(24 * kPage, "a");
    clean = machine_->sched().now() - t0;
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a.reclaimed, 0u);
    mem::Allocation& zc = mem_->os_alloc(32 * kPage, "zc", 0);
    mem_->host_touch(zc.range());
    const sim::TimePoint t1 = machine_->sched().now();
    const PoolAllocResult b = rt_->try_memory_pool_allocate(24 * kPage, "b");
    reclaiming = machine_->sched().now() - t1;
    ASSERT_TRUE(b.ok());
    ASSERT_GT(b.reclaimed, 0u);
  });
  // The spill (per-page eviction + SDMA writeback) is billed to the caller
  // that triggered it, on top of the identical base allocation cost.
  EXPECT_GT(reclaiming, clean);
}

TEST_F(PressureHsaTest, DispatchWatermarkReclaimDrainsOccupancy) {
  make("", /*hbm_pages=*/32);
  run([&] {
    // Fill HBM to ~94% with CPU-resident zero-copy pages, then dispatch.
    mem::Allocation& cold = mem_->os_alloc(28 * kPage, "cold", 0);
    mem_->host_touch(cold.range());
    mem::Allocation& hot = mem_->os_alloc(2 * kPage, "hot", 0);
    mem_->host_touch(hot.range());
    ASSERT_GT(mem_->hbm_used(0), (32 * kPage * 9) / 10);
    launch(hot);
    // The post-fault watermark check reclaims down toward the low water
    // mark (80% of capacity), batch-bounded.
    EXPECT_LE(mem_->hbm_used(0), (32 * kPage * 9) / 10);
    EXPECT_GT(mem_->ddr_used(), 0u);
    EXPECT_NO_THROW(mem_->check_accounting());
  });
  EXPECT_GT(rt_->device_counters()[0].evicted_pages, 0u);
}

TEST_F(PressureHsaTest, GpuFaultPromotesSpilledPagesWithAnEvent) {
  make("", /*hbm_pages=*/32);
  run([&] {
    mem::Allocation& zc = mem_->os_alloc(16 * kPage, "zc", 0);
    mem_->host_touch(zc.range());
    const PoolAllocResult pool =
        rt_->try_memory_pool_allocate(24 * kPage, "pool");
    ASSERT_TRUE(pool.ok());
    ASSERT_GT(mem_->ddr_used(), 0u);
    // Free the pool so the promotion has somewhere to land, then fault the
    // spilled buffer back in from the GPU.
    rt_->memory_pool_free(pool.addr);
    launch(zc);
    EXPECT_EQ(mem_->ddr_used(), 0u);
    EXPECT_NO_THROW(mem_->check_accounting());
  });
  EXPECT_GT(rt_->device_counters()[0].promoted_pages, 0u);
}

TEST_F(PressureHsaTest, AccessCountersMigrateARemotelyHammeredPage) {
  make("", /*hbm_pages=*/1024, apu::PressureMode::Watermarks,
       /*automigrate=*/true);
  run([&] {
    mem::Allocation& a = mem_->os_alloc(kPage, "hammered", /*home_socket=*/0);
    mem_->host_touch(a.range(), 0);
    ASSERT_EQ(mem_->hbm_used(0), kPage);
    // Four remote touches from socket 1 reach the default threshold.
    for (int i = 0; i < 4; ++i) {
      mem_->host_touch(a.range(), 1);
    }
    // The next dispatch samples the counters and retires the candidate.
    mem::Allocation& other = mem_->os_alloc(kPage, "other", 0);
    launch(other);
    EXPECT_EQ(mem_->hbm_used(1), kPage);
    EXPECT_EQ(mem_->hbm_used(0), kPage);  // only `other` remains
    EXPECT_NO_THROW(mem_->check_accounting());
  });
  EXPECT_EQ(rt_->device_counters()[1].migrated_pages, 1u);
}

TEST_F(PressureHsaTest, InjectedCounterLossForgetsThePendingCandidate) {
  make("counter_loss@call=1", /*hbm_pages=*/1024,
       apu::PressureMode::Watermarks, /*automigrate=*/true);
  run([&] {
    mem::Allocation& a = mem_->os_alloc(kPage, "hammered", 0);
    mem_->host_touch(a.range(), 0);
    for (int i = 0; i < 4; ++i) {
      mem_->host_touch(a.range(), 1);
    }
    mem::Allocation& other = mem_->os_alloc(kPage, "other", 0);
    launch(other);
    // The loss hit before the candidate was consumed: no migration.
    EXPECT_EQ(mem_->hbm_used(1), 0u);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::CounterLoss), 1u);
  EXPECT_EQ(rt_->device_counters()[1].migrated_pages, 0u);
}

TEST_F(PressureHsaTest, InjectedMigrationStallStillMigratesButSlower) {
  make("migration_stall@call=1:x10", /*hbm_pages=*/1024,
       apu::PressureMode::Watermarks, /*automigrate=*/true);
  run([&] {
    mem::Allocation& a = mem_->os_alloc(kPage, "hammered", 0);
    mem_->host_touch(a.range(), 0);
    for (int i = 0; i < 4; ++i) {
      mem_->host_touch(a.range(), 1);
    }
    mem::Allocation& other = mem_->os_alloc(kPage, "other", 0);
    launch(other);
    EXPECT_EQ(mem_->hbm_used(1), kPage);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::MigrationStall), 1u);
  EXPECT_EQ(rt_->device_counters()[1].migrated_pages, 1u);
}

TEST_F(PressureHsaTest, InjectedEvictStormInflatesTheReclaimCost) {
  make("evict_storm@call=1:x5", /*hbm_pages=*/32);
  run([&] {
    mem::Allocation& zc = mem_->os_alloc(16 * kPage, "zc", 0);
    mem_->host_touch(zc.range());
    const PoolAllocResult r = rt_->try_memory_pool_allocate(24 * kPage, "pool");
    // The storm slows the reclaim down; it does not break it.
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.reclaimed, 0u);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::EvictStorm), 1u);
  EXPECT_TRUE(rt_->fault_trace().any(FaultEvent::PoolReclaimed));
}

TEST_F(PressureHsaTest, InjectedThpSplitStormShattersTheLaunchBuffers) {
  make("thp_split_storm@call=1", /*hbm_pages=*/1024,
       apu::PressureMode::Watermarks, /*automigrate=*/false,
       apu::ThpMode::Dynamic);
  run([&] {
    mem::Allocation& a = mem_->os_alloc(8 * kPage, "buf", 0);
    mem_->host_touch(a.range());
    ASSERT_EQ(mem_->split_spans(a.range()), 0u);
    launch(a);
    EXPECT_EQ(mem_->split_spans(a.range()), 8u);
    // A second dispatch is outside the schedule and splits nothing more.
    launch(a, "k2");
    EXPECT_EQ(mem_->split_spans(a.range()), 8u);
  });
  EXPECT_EQ(rt_->fault_trace().count(fault::Kind::ThpSplitStorm), 1u);
}

TEST_F(PressureHsaTest, SplitSpansRaiseTlbAndFaultPricingOnLaterLaunches) {
  make("", /*hbm_pages=*/1024, apu::PressureMode::Watermarks,
       /*automigrate=*/false, apu::ThpMode::Dynamic);
  Duration intact;
  Duration shattered;
  run([&] {
    mem::Allocation& a = mem_->os_alloc(8 * kPage, "a", 0);
    mem_->host_touch(a.range());
    launch(a, "warm");  // fault in once; spans intact
    const sim::TimePoint t0 = machine_->sched().now();
    launch(a, "intact");
    intact = machine_->sched().now() - t0;
    // Shatter the spans and evict nothing: the only delta is TLB pricing.
    mem_->thp_split_range(a.range());
    ASSERT_EQ(mem_->split_spans(a.range()), 8u);
    const sim::TimePoint t1 = machine_->sched().now();
    launch(a, "shattered");
    shattered = machine_->sched().now() - t1;
  });
  EXPECT_GT(shattered, intact);
}

}  // namespace
}  // namespace zc::hsa

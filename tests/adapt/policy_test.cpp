// Unit tests for the Adaptive Maps policy engine: the cost model matches
// hand-computed figures, the classifier picks the argmin handling per
// feature profile, and the decision cache honours containment, hysteresis,
// active-map pinning, bounded size, and host-free invalidation.

#include "zc/adapt/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace zc::adapt {
namespace {

constexpr std::uint64_t kPage = 2ULL << 20;  // THP page, matches the machine

RegionFeatures features(std::uint64_t base, std::uint64_t pages,
                        std::uint64_t resident, std::uint64_t gpu_absent,
                        bool copies_in = false, bool copies_out = false) {
  RegionFeatures f;
  f.range = mem::AddrRange{mem::VirtAddr{base}, pages * kPage};
  f.pages = pages;
  f.cpu_resident_pages = resident;
  f.gpu_absent_pages = gpu_absent;
  f.copies_in = copies_in;
  f.copies_out = copies_out;
  return f;
}

PolicyEngine engine(bool xnack = true, apu::AdaptParams params = {},
                    apu::CostParams costs = apu::mi300a_costs()) {
  return PolicyEngine{costs, params, /*devices=*/1, kPage, xnack};
}

TEST(PolicyPredict, MatchesHandComputedCosts) {
  const PolicyEngine e = engine();
  // One untouched 2 MB page, mapped tofrom: every page is GPU-absent and
  // not CPU-resident.
  const PredictedCosts c =
      e.predict(features(0x1000000, 1, 0, 1, /*in=*/true, /*out=*/true));
  // Zero-copy: fault service + one-at-a-time materialization.
  EXPECT_NEAR(c.zero_copy_us, 10.0 + 900.0, 1e-9);
  // Eager: syscall + insert + bulk populate.
  EXPECT_NEAR(c.eager_us, 1.2 + 9.0 + 40.0, 1e-9);
  // Copy: pool alloc + bulk page populate + two transfers at 24 GB/s.
  const double xfer = 3.0 + (kPage / 24e9) * 1e6;
  EXPECT_NEAR(c.copy_us, 12.0 + 100.0 + 2 * xfer, 1e-6);
}

TEST(PolicyPredict, GpuResidentPagesCostNothingUnderZeroCopy) {
  const PolicyEngine e = engine();
  const PredictedCosts c = e.predict(features(0x1000000, 8, 8, 0));
  EXPECT_EQ(c.zero_copy_us, 0.0);
  // The prefault still pays a syscall plus per-page verification.
  EXPECT_NEAR(c.eager_us, 1.2 + 8 * 0.05, 1e-9);
}

TEST(PolicyDecide, UntouchedRegionPrefersEagerPrefault) {
  // The paper's 452.ep pattern: GPU first touch of OS-allocated memory is
  // catastrophic under demand faulting, cheap under bulk prefault.
  PolicyEngine e = engine();
  const Outcome o = e.decide(0, features(0x1000000, 16, 0, 16, true, true));
  EXPECT_EQ(o.decision, Decision::EagerPrefault);
  EXPECT_TRUE(o.fresh);
  EXPECT_FALSE(o.revised);
}

TEST(PolicyDecide, SingleResidentPagePrefersZeroCopy) {
  // One fault (10us) beats one prefault syscall + insert (10.2us).
  PolicyEngine e = engine();
  EXPECT_EQ(e.decide(0, features(0x1000000, 1, 1, 1)).decision,
            Decision::ZeroCopy);
}

TEST(PolicyDecide, GpuResidentRegionPrefersZeroCopy) {
  PolicyEngine e = engine();
  EXPECT_EQ(e.decide(0, features(0x1000000, 64, 64, 0)).decision,
            Decision::ZeroCopy);
}

TEST(PolicyDecide, XnackOffNeverChoosesZeroCopy) {
  PolicyEngine e = engine(/*xnack=*/false);
  const Outcome o = e.decide(0, features(0x1000000, 64, 64, 0));
  EXPECT_NE(o.decision, Decision::ZeroCopy);
  EXPECT_TRUE(std::isinf(o.costs.zero_copy_us));
}

TEST(PolicyDecide, DmaCopyWinsWhenPrefaultPathIsExpensive) {
  // With a driver whose prefault path is pathological, the classic pool
  // allocation + DMA transfer becomes the argmin — the engine must be able
  // to reach all three verdicts.
  apu::CostParams costs = apu::mi300a_costs();
  costs.prefault_insert_per_page = sim::Duration::from_us(5000.0);
  costs.prefault_populate_per_page = sim::Duration::from_us(5000.0);
  PolicyEngine e = engine(true, {}, costs);
  EXPECT_EQ(e.decide(0, features(0x1000000, 4, 0, 4, true, true)).decision,
            Decision::DmaCopy);
}

TEST(PolicyDecide, MemoryPressurePricesDmaCopyOut) {
  // Same pathological-prefault profile as above, but the device pool has
  // already failed an allocation this run: DmaCopy would likely fail and
  // degrade anyway, so the predictor prices it at infinity and the engine
  // picks the best non-copy handling.
  apu::CostParams costs = apu::mi300a_costs();
  costs.prefault_insert_per_page = sim::Duration::from_us(5000.0);
  costs.prefault_populate_per_page = sim::Duration::from_us(5000.0);
  PolicyEngine e = engine(true, {}, costs);
  RegionFeatures f = features(0x1000000, 4, 0, 4, true, true);
  f.memory_pressure = true;
  const Outcome o = e.decide(0, f);
  EXPECT_NE(o.decision, Decision::DmaCopy);
  EXPECT_TRUE(std::isinf(o.costs.copy_us));
  // Without pressure the same profile still picks DmaCopy (see above).
  EXPECT_FALSE(std::isinf(o.costs.zero_copy_us));
}

TEST(PolicyCache, RepeatAndSubRangeHitWithoutReEvaluation) {
  PolicyEngine e = engine();
  const auto full = features(0x1000000, 16, 16, 16);
  EXPECT_TRUE(e.decide(0, full).fresh);
  e.release(0, full.range);

  // Same range again: cache hit inside the hysteresis window.
  EXPECT_FALSE(e.decide(0, full).fresh);
  e.release(0, full.range);

  // A nested sub-range resolves to the same entry via containment.
  const auto sub = features(0x1000000 + 2 * kPage, 4, 4, 0);
  EXPECT_FALSE(e.decide(0, sub).fresh);
  e.release(0, sub.range);

  EXPECT_EQ(e.cache_size(0), 1u);
}

TEST(PolicyCache, ActiveMappingPinsTheDecision) {
  apu::AdaptParams params;
  params.hysteresis_maps = 0;  // re-evaluate as eagerly as allowed
  PolicyEngine e = engine(true, params);
  const auto f = features(0x1000000, 16, 0, 16, true, true);
  ASSERT_EQ(e.decide(0, f).decision, Decision::EagerPrefault);
  // Nested maps while the first is still open: never re-evaluated, even
  // with a zero hysteresis window and features that now favour zero-copy.
  const auto now_resident = features(0x1000000, 16, 16, 0);
  for (int i = 0; i < 10; ++i) {
    const Outcome o = e.decide(0, now_resident);
    EXPECT_FALSE(o.fresh);
    EXPECT_EQ(o.decision, Decision::EagerPrefault);
  }
}

TEST(PolicyCache, HysteresisThenDecisiveRevision) {
  apu::AdaptParams params;
  params.hysteresis_maps = 4;
  PolicyEngine e = engine(true, params);
  const auto untouched = features(0x1000000, 16, 0, 16, true, true);
  ASSERT_EQ(e.decide(0, untouched).decision, Decision::EagerPrefault);
  e.release(0, untouched.range);

  // After the first lifetime the pages are resident everywhere: zero-copy
  // now costs 0, eager still pays its syscall. Within the hysteresis
  // window the cached decision holds; afterwards it is decisively revised.
  const auto resident = features(0x1000000, 16, 16, 0);
  for (std::uint32_t i = 0; i < params.hysteresis_maps; ++i) {
    const Outcome o = e.decide(0, resident);
    EXPECT_FALSE(o.fresh) << "map " << i;
    EXPECT_EQ(o.decision, Decision::EagerPrefault);
    e.release(0, resident.range);
  }
  const Outcome o = e.decide(0, resident);
  EXPECT_TRUE(o.fresh);
  EXPECT_TRUE(o.revised);
  EXPECT_EQ(o.decision, Decision::ZeroCopy);
  e.release(0, resident.range);

  // And the revised decision is itself sticky from now on.
  EXPECT_FALSE(e.decide(0, resident).fresh);
  EXPECT_EQ(e.decide(0, resident).decision, Decision::ZeroCopy);
}

TEST(PolicyCache, MarginPreventsFlipFlopping) {
  apu::AdaptParams params;
  params.hysteresis_maps = 0;
  params.switch_margin = 1.25;
  PolicyEngine e = engine(true, params);
  // GPU-resident 16-page region: zero-copy is free, cache it.
  const auto resident = features(0x1000000, 16, 16, 0);
  ASSERT_EQ(e.decide(0, resident).decision, Decision::ZeroCopy);
  e.release(0, resident.range);
  // Faulted-out again: eager (145.2us) now beats zero-copy (160us), but
  // only by ~10% — inside the switch margin, so the decision must hold.
  const auto faulted = features(0x1000000, 16, 16, 16);
  for (int i = 0; i < 5; ++i) {
    const Outcome o = e.decide(0, faulted);
    EXPECT_EQ(o.decision, Decision::ZeroCopy) << "map " << i;
    EXPECT_FALSE(o.revised);
    e.release(0, faulted.range);
  }
}

TEST(PolicyCache, EvictionIsBoundedAndSparesActiveEntries) {
  apu::AdaptParams params;
  params.max_cache_entries = 2;
  PolicyEngine e = engine(true, params);
  const auto a = features(0x1000000, 1, 1, 1);
  const auto b = features(0x2000000, 1, 1, 1);
  const auto c = features(0x3000000, 1, 1, 1);
  (void)e.decide(0, a);
  e.release(0, a.range);
  (void)e.decide(0, b);  // b stays active (pinned)
  (void)e.decide(0, c);  // over capacity: evicts a, the stale inactive one
  EXPECT_EQ(e.cache_size(0), 2u);
  EXPECT_EQ(e.evictions(), 1u);
  EXPECT_TRUE(e.decide(0, a).fresh);  // a was truly forgotten
}

TEST(PolicyCache, ForgetDropsOverlappingEntriesOnHostFree) {
  PolicyEngine e = engine();
  const auto a = features(0x1000000, 4, 4, 4);
  const auto b = features(0x9000000, 4, 4, 4);
  (void)e.decide(0, a);
  e.release(0, a.range);
  (void)e.decide(0, b);
  e.release(0, b.range);
  ASSERT_EQ(e.cache_size(0), 2u);
  // Free an allocation that starts below `a` and covers it.
  e.forget(mem::AddrRange{mem::VirtAddr{0x1000000 - kPage}, 8 * kPage});
  EXPECT_EQ(e.cache_size(0), 1u);
  EXPECT_TRUE(e.decide(0, a).fresh);   // evaluated anew
  EXPECT_FALSE(e.decide(0, b).fresh);  // untouched by the free
}

TEST(PolicyCache, DevicesKeepIndependentCaches) {
  PolicyEngine e{apu::mi300a_costs(), {}, /*devices=*/2, kPage, true};
  const auto f = features(0x1000000, 4, 4, 4);
  EXPECT_TRUE(e.decide(0, f).fresh);
  EXPECT_TRUE(e.decide(1, f).fresh);  // device 1 has its own cold cache
  EXPECT_EQ(e.cache_size(0), 1u);
  EXPECT_EQ(e.cache_size(1), 1u);
}

}  // namespace
}  // namespace zc::adapt

#include "zc/fault/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace zc::fault {
namespace {

using namespace zc::sim::literals;

sim::TimePoint at(sim::Duration d) { return sim::TimePoint::zero() + d; }

TEST(FaultEngine, DefaultEngineIsDisabledAndNeverFires) {
  FaultEngine e;
  EXPECT_FALSE(e.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(e.consult(Site::PoolAlloc, at(0_us)).fired());
  }
  EXPECT_EQ(e.calls(Site::PoolAlloc), 100u);
}

TEST(FaultEngine, CallWindowFiresExactly) {
  FaultEngine e{parse_spec("eintr@call=2..4"), 1};
  EXPECT_TRUE(e.enabled());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(e.consult(Site::SvmPrefault, at(0_us)).fired());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, true, true, true, false, false}));
  EXPECT_EQ(e.calls(Site::SvmPrefault), 6u);
}

TEST(FaultEngine, CallCountersArePerSite) {
  FaultEngine e{parse_spec("oom@call=1"), 1};
  // Consultations at other sites must not advance the pool-alloc counter.
  EXPECT_FALSE(e.consult(Site::SvmPrefault, at(0_us)).fired());
  EXPECT_FALSE(e.consult(Site::AsyncCopy, at(0_us)).fired());
  const Injection inj = e.consult(Site::PoolAlloc, at(0_us));
  EXPECT_EQ(inj.kind, Kind::Oom);
  EXPECT_EQ(e.calls(Site::PoolAlloc), 1u);
}

TEST(FaultEngine, TimeWindowFiresInsideOnly) {
  FaultEngine e{parse_spec("sdma@t=100us..200us"), 1};
  EXPECT_FALSE(e.consult(Site::AsyncCopy, at(99_us)).fired());
  EXPECT_TRUE(e.consult(Site::AsyncCopy, at(100_us)).fired());
  EXPECT_TRUE(e.consult(Site::AsyncCopy, at(150_us)).fired());
  EXPECT_TRUE(e.consult(Site::AsyncCopy, at(200_us)).fired());
  EXPECT_FALSE(e.consult(Site::AsyncCopy, at(201_us)).fired());
}

TEST(FaultEngine, OpenTimeWindowFiresForever) {
  FaultEngine e{parse_spec("ebusy@t=50us"), 1};
  EXPECT_FALSE(e.consult(Site::SvmPrefault, at(0_us)).fired());
  EXPECT_TRUE(e.consult(Site::SvmPrefault, at(50_us)).fired());
  EXPECT_TRUE(e.consult(Site::SvmPrefault, at(1000000_us)).fired());
  EXPECT_EQ(e.consult(Site::SvmPrefault, at(60_us)).kind, Kind::Ebusy);
}

TEST(FaultEngine, ReplayStormCarriesFactor) {
  FaultEngine e{parse_spec("xnack@call=1:x16"), 1};
  const Injection inj = e.consult(Site::XnackReplay, at(0_us));
  EXPECT_EQ(inj.kind, Kind::ReplayStorm);
  EXPECT_DOUBLE_EQ(inj.factor, 16.0);
}

TEST(FaultEngine, FirstMatchingClauseWins) {
  // Both clauses target the prefault site; call 1 must fire the first
  // (eintr), not the second, even though both windows contain it.
  FaultEngine e{parse_spec("eintr@call=1;ebusy@call=1..2"), 1};
  EXPECT_EQ(e.consult(Site::SvmPrefault, at(0_us)).kind, Kind::Eintr);
  EXPECT_EQ(e.consult(Site::SvmPrefault, at(0_us)).kind, Kind::Ebusy);
  EXPECT_FALSE(e.consult(Site::SvmPrefault, at(0_us)).fired());
}

TEST(FaultEngine, ProbabilityZeroAndOneAreDegenerate) {
  FaultEngine never{parse_spec("oom@p=0"), 7};
  FaultEngine always{parse_spec("oom@p=1"), 7};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(never.consult(Site::PoolAlloc, at(0_us)).fired());
    EXPECT_TRUE(always.consult(Site::PoolAlloc, at(0_us)).fired());
  }
}

TEST(FaultEngine, ProbabilityStreamIsDeterministicPerSeed) {
  const Schedule s = parse_spec("sdma@p=0.5");
  FaultEngine a{s, 42};
  FaultEngine b{s, 42};
  FaultEngine c{s, 43};
  std::vector<bool> fa, fb, fc;
  for (int i = 0; i < 256; ++i) {
    fa.push_back(a.consult(Site::AsyncCopy, at(0_us)).fired());
    fb.push_back(b.consult(Site::AsyncCopy, at(0_us)).fired());
    fc.push_back(c.consult(Site::AsyncCopy, at(0_us)).fired());
  }
  EXPECT_EQ(fa, fb);
  EXPECT_NE(fa, fc);
  // p=0.5 over 256 draws: both firing and not firing must occur.
  const auto fired = std::count(fa.begin(), fa.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 256);
}

TEST(FaultEngine, ProbabilityDrawSkippedWhenEarlierClauseFires) {
  // The probabilistic clause's RNG stream must be a pure function of the
  // consults that actually reach it: two engines whose deterministic first
  // clause differs in width still agree on the downstream draw sequence.
  FaultEngine a{parse_spec("eintr@call=1;ebusy@p=0.5"), 9};
  FaultEngine b{parse_spec("eintr@call=1..3;ebusy@p=0.5"), 9};
  // Drain the deterministic prefix of each.
  (void)a.consult(Site::SvmPrefault, at(0_us));
  for (int i = 0; i < 3; ++i) {
    (void)b.consult(Site::SvmPrefault, at(0_us));
  }
  std::vector<bool> fa, fb;
  for (int i = 0; i < 64; ++i) {
    fa.push_back(a.consult(Site::SvmPrefault, at(0_us)).fired());
    fb.push_back(b.consult(Site::SvmPrefault, at(0_us)).fired());
  }
  EXPECT_EQ(fa, fb);
}

}  // namespace
}  // namespace zc::fault

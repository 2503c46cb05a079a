#include "zc/fault/spec.hpp"

#include <gtest/gtest.h>

#include <string>

namespace zc::fault {
namespace {

using namespace zc::sim::literals;

TEST(FaultSpec, EmptySpecIsFaultFree) {
  EXPECT_TRUE(parse_spec("").empty());
}

TEST(FaultSpec, SingleCallTrigger) {
  const Schedule s = parse_spec("oom@call=3");
  ASSERT_EQ(s.clauses.size(), 1u);
  const Clause& c = s.clauses[0];
  EXPECT_EQ(c.site, Site::PoolAlloc);
  EXPECT_EQ(c.kind, Kind::Oom);
  EXPECT_EQ(c.trigger.mode, Trigger::Mode::CallRange);
  EXPECT_EQ(c.trigger.call_from, 3u);
  EXPECT_EQ(c.trigger.call_to, 3u);
}

TEST(FaultSpec, CallWindowTrigger) {
  const Schedule s = parse_spec("eintr@call=1..4");
  ASSERT_EQ(s.clauses.size(), 1u);
  EXPECT_EQ(s.clauses[0].site, Site::SvmPrefault);
  EXPECT_EQ(s.clauses[0].kind, Kind::Eintr);
  EXPECT_EQ(s.clauses[0].trigger.call_from, 1u);
  EXPECT_EQ(s.clauses[0].trigger.call_to, 4u);
}

TEST(FaultSpec, TimeWindowTrigger) {
  const Schedule s = parse_spec("sdma@t=100us..200us");
  ASSERT_EQ(s.clauses.size(), 1u);
  EXPECT_EQ(s.clauses[0].site, Site::AsyncCopy);
  EXPECT_EQ(s.clauses[0].kind, Kind::CopyError);
  EXPECT_EQ(s.clauses[0].trigger.mode, Trigger::Mode::TimeWindow);
  EXPECT_EQ(s.clauses[0].trigger.t_from.since_start(), 100_us);
  EXPECT_EQ(s.clauses[0].trigger.t_to.since_start(), 200_us);
}

TEST(FaultSpec, OpenTimeWindowExtendsToRunEnd) {
  const Schedule s = parse_spec("ebusy@t=50us");
  ASSERT_EQ(s.clauses.size(), 1u);
  EXPECT_EQ(s.clauses[0].kind, Kind::Ebusy);
  EXPECT_EQ(s.clauses[0].trigger.t_from.since_start(), 50_us);
  EXPECT_EQ(s.clauses[0].trigger.t_to, sim::TimePoint::max());
}

TEST(FaultSpec, ProbabilityTrigger) {
  const Schedule s = parse_spec("oom@p=0.25");
  ASSERT_EQ(s.clauses.size(), 1u);
  EXPECT_EQ(s.clauses[0].trigger.mode, Trigger::Mode::Probability);
  EXPECT_DOUBLE_EQ(s.clauses[0].trigger.probability, 0.25);
}

TEST(FaultSpec, ReplayStormFactorOption) {
  const Schedule s = parse_spec("xnack@call=1:x16");
  ASSERT_EQ(s.clauses.size(), 1u);
  EXPECT_EQ(s.clauses[0].site, Site::XnackReplay);
  EXPECT_EQ(s.clauses[0].kind, Kind::ReplayStorm);
  EXPECT_DOUBLE_EQ(s.clauses[0].factor, 16.0);
}

TEST(FaultSpec, MultipleClauses) {
  const Schedule s = parse_spec("oom@call=2;eintr@call=1..3;sdma@p=0.1");
  ASSERT_EQ(s.clauses.size(), 3u);
  EXPECT_EQ(s.clauses[0].site, Site::PoolAlloc);
  EXPECT_EQ(s.clauses[1].site, Site::SvmPrefault);
  EXPECT_EQ(s.clauses[2].site, Site::AsyncCopy);
}

TEST(FaultSpec, ToStringRoundTrips) {
  for (const char* spec :
       {"oom@call=3", "eintr@call=1..4", "sdma@p=0.5", "xnack@call=1:x16",
        "oom@call=2;eintr@call=1..3"}) {
    const Schedule s = parse_spec(spec);
    const Schedule again = parse_spec(to_string(s));
    ASSERT_EQ(again.clauses.size(), s.clauses.size()) << spec;
    for (std::size_t i = 0; i < s.clauses.size(); ++i) {
      EXPECT_EQ(again.clauses[i].site, s.clauses[i].site) << spec;
      EXPECT_EQ(again.clauses[i].kind, s.clauses[i].kind) << spec;
      EXPECT_EQ(again.clauses[i].trigger.mode, s.clauses[i].trigger.mode)
          << spec;
    }
  }
}

TEST(FaultSpec, HangFamilyTokensMapToSitesAndKinds) {
  const struct {
    const char* token;
    Site site;
    Kind kind;
  } cases[] = {
      {"kernel_hang", Site::KernelLaunch, Kind::KernelHang},
      {"sdma_stall", Site::AsyncCopy, Kind::SdmaStall},
      {"prefault_hang", Site::SvmPrefault, Kind::PrefaultHang},
      {"xnack_livelock", Site::XnackReplay, Kind::XnackLivelock},
  };
  for (const auto& c : cases) {
    const Schedule s = parse_spec(std::string{c.token} + "@call=3");
    ASSERT_EQ(s.clauses.size(), 1u) << c.token;
    EXPECT_EQ(s.clauses[0].site, c.site) << c.token;
    EXPECT_EQ(s.clauses[0].kind, c.kind) << c.token;
    EXPECT_TRUE(is_hang(s.clauses[0].kind)) << c.token;
    // The kind's spelling round-trips through the renderer.
    const Schedule again = parse_spec(to_string(s));
    EXPECT_EQ(again.clauses[0].kind, c.kind) << c.token;
  }
}

TEST(FaultSpec, PressureFamilyTokensMapToSitesAndKinds) {
  const struct {
    const char* token;
    Site site;
    Kind kind;
  } cases[] = {
      {"evict_storm", Site::Eviction, Kind::EvictStorm},
      {"migration_stall", Site::AutoMigrate, Kind::MigrationStall},
      {"thp_split_storm", Site::ThpSplit, Kind::ThpSplitStorm},
      {"counter_loss", Site::AccessCounter, Kind::CounterLoss},
  };
  for (const auto& c : cases) {
    const Schedule s = parse_spec(std::string{c.token} + "@call=2");
    ASSERT_EQ(s.clauses.size(), 1u) << c.token;
    EXPECT_EQ(s.clauses[0].site, c.site) << c.token;
    EXPECT_EQ(s.clauses[0].kind, c.kind) << c.token;
    EXPECT_FALSE(is_hang(s.clauses[0].kind)) << c.token;
    // The renderer round-trips every new token.
    const Schedule again = parse_spec(to_string(s));
    EXPECT_EQ(again.clauses[0].site, c.site) << c.token;
    EXPECT_EQ(again.clauses[0].kind, c.kind) << c.token;
  }
}

TEST(FaultSpec, PressureTokensAcceptStormFactors) {
  const Schedule s = parse_spec("evict_storm@call=1:x8;migration_stall@p=0.5:x3");
  ASSERT_EQ(s.clauses.size(), 2u);
  EXPECT_DOUBLE_EQ(s.clauses[0].factor, 8.0);
  EXPECT_DOUBLE_EQ(s.clauses[1].factor, 3.0);
  // ":xF" survives the to_string round trip.
  const Schedule again = parse_spec(to_string(s));
  EXPECT_DOUBLE_EQ(again.clauses[0].factor, 8.0);
  EXPECT_DOUBLE_EQ(again.clauses[1].factor, 3.0);
}

TEST(FaultSpec, UnknownSiteErrorListsThePressureTokens) {
  try {
    (void)parse_spec("bogus@call=1");
    FAIL() << "expected FaultSpecError";
  } catch (const FaultSpecError& e) {
    const std::string what{e.what()};
    EXPECT_NE(what.find("evict_storm"), std::string::npos);
    EXPECT_NE(what.find("migration_stall"), std::string::npos);
    EXPECT_NE(what.find("thp_split_storm"), std::string::npos);
    EXPECT_NE(what.find("counter_loss"), std::string::npos);
  }
}

TEST(FaultSpec, EveryTokenParsesToItsKindAndSite) {
  const struct {
    const char* token;
    Kind kind;
    Site site;
  } cases[] = {
      {"oom", Kind::Oom, Site::PoolAlloc},
      {"eintr", Kind::Eintr, Site::SvmPrefault},
      {"ebusy", Kind::Ebusy, Site::SvmPrefault},
      {"sdma", Kind::CopyError, Site::AsyncCopy},
      {"xnack", Kind::ReplayStorm, Site::XnackReplay},
      {"kernel_hang", Kind::KernelHang, Site::KernelLaunch},
      {"sdma_stall", Kind::SdmaStall, Site::AsyncCopy},
      {"prefault_hang", Kind::PrefaultHang, Site::SvmPrefault},
      {"xnack_livelock", Kind::XnackLivelock, Site::XnackReplay},
      {"evict_storm", Kind::EvictStorm, Site::Eviction},
      {"migration_stall", Kind::MigrationStall, Site::AutoMigrate},
      {"thp_split_storm", Kind::ThpSplitStorm, Site::ThpSplit},
      {"counter_loss", Kind::CounterLoss, Site::AccessCounter},
      {"tenant_burst", Kind::TenantBurst, Site::TenantBurst},
      {"admission_flap", Kind::AdmissionFlap, Site::AdmissionFlap},
  };
  for (const auto& c : cases) {
    const std::string spec = std::string{c.token} + "@call=1";
    const Schedule s = parse_spec(spec);
    ASSERT_EQ(s.clauses.size(), 1u) << c.token;
    EXPECT_EQ(s.clauses[0].kind, c.kind) << c.token;
    EXPECT_EQ(s.clauses[0].site, c.site) << c.token;
    EXPECT_EQ(to_string(s), spec);
  }
  try {
    (void)parse_spec("bogus@call=1");
    FAIL() << "expected FaultSpecError";
  } catch (const FaultSpecError& e) {
    EXPECT_STREQ(e.what(),
                 "fault spec: unknown site 'bogus' in clause 'bogus@call=1' "
                 "(expected oom|eintr|ebusy|sdma|xnack|kernel_hang|sdma_stall|"
                 "prefault_hang|xnack_livelock|evict_storm|migration_stall|"
                 "thp_split_storm|counter_loss|tenant_burst|admission_flap)");
  }
}

TEST(FaultSpec, NonHangKindsAreNotHangs) {
  for (Kind k : {Kind::None, Kind::Oom, Kind::Eintr, Kind::Ebusy,
                 Kind::CopyError, Kind::ReplayStorm}) {
    EXPECT_FALSE(is_hang(k));
  }
}

TEST(FaultSpec, KernelLaunchSiteHasAName) {
  EXPECT_STREQ(to_string(Site::KernelLaunch), "kernel-launch");
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad : {
           "bogus@call=1",    // unknown site
           "oom",             // missing trigger
           "oom@",            // empty trigger
           "oom@call=0",      // call counts are 1-based
           "oom@call=5..2",   // empty window
           "oom@t=9us..3us",  // empty time window
           "oom@p=1.5",       // probability out of range
           "oom@p=-0.1",      // probability out of range
           "oom@call=x",      // not a number
           "xnack@call=1:y2", // unknown option
           "xnack@call=1:x0", // factor must be positive
           "oom@call=1;;",    // empty clause
           ";",               // empty clause
       }) {
    EXPECT_THROW((void)parse_spec(bad), FaultSpecError) << bad;
  }
}

TEST(FaultSpec, ServiceFamilyTokensMapToSitesAndKinds) {
  const struct {
    const char* token;
    Site site;
    Kind kind;
  } cases[] = {
      {"tenant_burst", Site::TenantBurst, Kind::TenantBurst},
      {"admission_flap", Site::AdmissionFlap, Kind::AdmissionFlap},
  };
  for (const auto& c : cases) {
    const Schedule s = parse_spec(std::string{c.token} + "@p=0.5:x8");
    ASSERT_EQ(s.clauses.size(), 1u) << c.token;
    EXPECT_EQ(s.clauses[0].site, c.site) << c.token;
    EXPECT_EQ(s.clauses[0].kind, c.kind) << c.token;
    EXPECT_FALSE(is_hang(s.clauses[0].kind)) << c.token;
    const Schedule again = parse_spec(to_string(s));
    EXPECT_EQ(again.clauses[0].site, c.site) << c.token;
    EXPECT_EQ(again.clauses[0].kind, c.kind) << c.token;
  }
}

}  // namespace
}  // namespace zc::fault

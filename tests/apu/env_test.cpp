#include "zc/apu/env.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace zc::apu {
namespace {

TEST(RunEnvironment, Defaults) {
  const RunEnvironment env;
  EXPECT_TRUE(env.hsa_xnack);
  EXPECT_EQ(env.ompx_apu_maps, ApuMapsMode::Off);
  EXPECT_FALSE(env.ompx_eager_maps);
  EXPECT_EQ(env.thp, ThpMode::On);
  EXPECT_EQ(env.page_bytes(), 2ULL << 20);
}

TEST(RunEnvironment, ThpOffMeansSmallPages) {
  RunEnvironment env;
  env.thp = ThpMode::Off;
  EXPECT_EQ(env.page_bytes(), 4096u);
  EXPECT_NE(env.to_string().find("THP=0"), std::string::npos);
}

TEST(RunEnvironment, FromEnvParsesTruthyForms) {
  const auto env = RunEnvironment::from_env({{"HSA_XNACK", "0"},
                                             {"OMPX_APU_MAPS", "TRUE"},
                                             {"OMPX_EAGER_ZERO_COPY_MAPS", "on"},
                                             {"THP", "no"}});
  EXPECT_FALSE(env.hsa_xnack);
  EXPECT_EQ(env.ompx_apu_maps, ApuMapsMode::On);
  EXPECT_TRUE(env.ompx_eager_maps);
  EXPECT_EQ(env.thp, ThpMode::Off);
  EXPECT_EQ(env.page_bytes(), 4096u);
}

TEST(RunEnvironment, FromEnvIgnoresUnknownKeysAndKeepsDefaults) {
  const auto env = RunEnvironment::from_env({{"PATH", "/bin"}});
  EXPECT_TRUE(env.hsa_xnack);
  EXPECT_EQ(env.thp, ThpMode::On);
}

TEST(RunEnvironment, FromEnvLayersOnABase) {
  RunEnvironment base;
  base.hsa_xnack = false;
  base.ompx_apu_sockets = 4;
  const auto env = RunEnvironment::from_env(
      {{"THP", "dynamic"}, {"OMPX_APU_PRESSURE", "watermarks"}}, base);
  EXPECT_FALSE(env.hsa_xnack);  // absent keys keep the base's values
  EXPECT_EQ(env.ompx_apu_sockets, 4);
  EXPECT_EQ(env.thp, ThpMode::Dynamic);
  EXPECT_EQ(env.ompx_apu_pressure, PressureMode::Watermarks);
}

TEST(RunEnvironment, ToStringRoundTripsFlags) {
  RunEnvironment env;
  env.hsa_xnack = false;
  env.ompx_eager_maps = true;
  const std::string s = env.to_string();
  EXPECT_NE(s.find("HSA_XNACK=0"), std::string::npos);
  EXPECT_NE(s.find("OMPX_APU_MAPS=0"), std::string::npos);
  EXPECT_NE(s.find("OMPX_EAGER_ZERO_COPY_MAPS=1"), std::string::npos);
  EXPECT_NE(s.find("THP=1"), std::string::npos);
}

TEST(RunEnvironment, ToStringRendersAdaptiveMode) {
  RunEnvironment env;
  env.ompx_apu_maps = ApuMapsMode::Adaptive;
  EXPECT_NE(env.to_string().find("OMPX_APU_MAPS=adaptive"),
            std::string::npos);
}

// --- OMPX_APU_MAPS value matrix --------------------------------------------
// The auto-detection variable now has three states; cover every accepted
// spelling (including the case-insensitive ones) alongside the boolean
// forms the other variables share.

struct ApuMapsCase {
  const char* value;
  ApuMapsMode expected;
};

// Print the spelling itself rather than the literal's address, so the
// generated test names are the same on every build and run.
void PrintTo(const ApuMapsCase& c, std::ostream* os) {
  *os << "(\"" << c.value << "\", " << to_string(c.expected) << ")";
}

class ApuMapsValues : public ::testing::TestWithParam<ApuMapsCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllAcceptedSpellings, ApuMapsValues,
    ::testing::Values(ApuMapsCase{"0", ApuMapsMode::Off},
                      ApuMapsCase{"false", ApuMapsMode::Off},
                      ApuMapsCase{"OFF", ApuMapsMode::Off},
                      ApuMapsCase{"no", ApuMapsMode::Off},
                      ApuMapsCase{"1", ApuMapsMode::On},
                      ApuMapsCase{"true", ApuMapsMode::On},
                      ApuMapsCase{"On", ApuMapsMode::On},
                      ApuMapsCase{"YES", ApuMapsMode::On},
                      ApuMapsCase{"adaptive", ApuMapsMode::Adaptive},
                      ApuMapsCase{"Adaptive", ApuMapsMode::Adaptive},
                      ApuMapsCase{"ADAPTIVE", ApuMapsMode::Adaptive}));

TEST_P(ApuMapsValues, ParsesToExpectedMode) {
  const auto [value, expected] = GetParam();
  const auto env = RunEnvironment::from_env({{"OMPX_APU_MAPS", value}});
  EXPECT_EQ(env.ompx_apu_maps, expected) << "OMPX_APU_MAPS=" << value;
}

// --- negative paths ---------------------------------------------------------
// A recognized variable set to an unintelligible value must throw, not be
// silently coerced to "off": configuration experiments depend on running
// the configuration they name.

class InvalidEnvValues : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(RecognizedKeys, InvalidEnvValues,
                         ::testing::Values("HSA_XNACK", "OMPX_APU_MAPS",
                                           "OMPX_EAGER_ZERO_COPY_MAPS",
                                           "THP"));

TEST_P(InvalidEnvValues, GarbageValueThrows) {
  const std::string key = GetParam();
  EXPECT_THROW((void)RunEnvironment::from_env({{key, "bogus"}}), EnvError);
  EXPECT_THROW((void)RunEnvironment::from_env({{key, "2"}}), EnvError);
  EXPECT_THROW((void)RunEnvironment::from_env({{key, ""}}), EnvError);
}

TEST(RunEnvironment, AdaptiveIsOnlyValidForApuMaps) {
  // `adaptive` names a mapping policy; it is not a boolean spelling.
  EXPECT_THROW((void)RunEnvironment::from_env({{"HSA_XNACK", "adaptive"}}),
               EnvError);
  EXPECT_THROW(
      (void)RunEnvironment::from_env({{"OMPX_EAGER_ZERO_COPY_MAPS",
                                       "adaptive"}}),
      EnvError);
  EXPECT_THROW((void)RunEnvironment::from_env({{"THP", "adaptive"}}),
               EnvError);
}

// --- OMPX_APU_FAULTS --------------------------------------------------------

TEST(RunEnvironment, FaultScheduleDefaultsToEmpty) {
  const RunEnvironment env;
  EXPECT_TRUE(env.ompx_apu_faults.empty());
}

TEST(RunEnvironment, FromEnvStoresValidFaultSchedule) {
  const auto env = RunEnvironment::from_env(
      {{"OMPX_APU_FAULTS", "oom@call=1;eintr@call=2..4"}});
  EXPECT_EQ(env.ompx_apu_faults, "oom@call=1;eintr@call=2..4");
}

TEST(RunEnvironment, FromEnvValidatesFaultScheduleGrammar) {
  EXPECT_THROW(
      (void)RunEnvironment::from_env({{"OMPX_APU_FAULTS", "oom@call=0"}}),
      EnvError);
  EXPECT_THROW(
      (void)RunEnvironment::from_env({{"OMPX_APU_FAULTS", "nonsense"}}),
      EnvError);
}

TEST(RunEnvironment, FaultScheduleErrorNamesVariableAndReason) {
  try {
    (void)RunEnvironment::from_env({{"OMPX_APU_FAULTS", "blorp@call=1"}});
    FAIL() << "expected EnvError";
  } catch (const EnvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("OMPX_APU_FAULTS"), std::string::npos);
    EXPECT_NE(what.find("blorp"), std::string::npos);
  }
}

TEST(RunEnvironment, ToStringRendersFaultSchedule) {
  RunEnvironment env;
  env.ompx_apu_faults = "sdma@call=2";
  EXPECT_NE(env.to_string().find("OMPX_APU_FAULTS=sdma@call=2"),
            std::string::npos);
}

// --- OMPX_APU_WATCHDOG ------------------------------------------------------

TEST(ParseWatchdog, DefaultsToNanosecondsAndRecover) {
  const WatchdogConfig w = parse_watchdog("5000");
  EXPECT_EQ(w.budget, sim::Duration::nanoseconds(5000));
  EXPECT_TRUE(w.recover);
  EXPECT_TRUE(w.enabled());
}

TEST(ParseWatchdog, UnitSuffixes) {
  EXPECT_EQ(parse_watchdog("7ns").budget, sim::Duration::nanoseconds(7));
  EXPECT_EQ(parse_watchdog("200us").budget, sim::Duration::from_us(200.0));
  EXPECT_EQ(parse_watchdog("3ms").budget, sim::Duration::milliseconds(3));
}

TEST(ParseWatchdog, ModeSelectsAbortOrRecover) {
  EXPECT_FALSE(parse_watchdog("1ms:abort").recover);
  EXPECT_TRUE(parse_watchdog("1ms:recover").recover);
}

TEST(ParseWatchdog, ZeroBudgetDisables) {
  const WatchdogConfig w = parse_watchdog("0");
  EXPECT_FALSE(w.enabled());
}

TEST(ParseWatchdog, RejectsGarbage) {
  EXPECT_THROW((void)parse_watchdog(""), EnvError);
  EXPECT_THROW((void)parse_watchdog("fast"), EnvError);
  EXPECT_THROW((void)parse_watchdog("10s"), EnvError);    // unknown unit
  EXPECT_THROW((void)parse_watchdog("-5us"), EnvError);   // negative
  EXPECT_THROW((void)parse_watchdog("1ms:maybe"), EnvError);
}

TEST(ParseWatchdog, ErrorNamesTheVariableAndValue) {
  try {
    (void)parse_watchdog("1ms:maybe");
    FAIL() << "expected EnvError";
  } catch (const EnvError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("OMPX_APU_WATCHDOG=1ms:maybe"), std::string::npos);
  }
}

TEST(RunEnvironment, WatchdogDefaultsToDisabled) {
  const RunEnvironment env;
  EXPECT_FALSE(env.watchdog.enabled());
}

TEST(RunEnvironment, FromEnvParsesWatchdog) {
  const auto env =
      RunEnvironment::from_env({{"OMPX_APU_WATCHDOG", "250us:abort"}});
  EXPECT_EQ(env.watchdog.budget, sim::Duration::from_us(250.0));
  EXPECT_FALSE(env.watchdog.recover);
  EXPECT_THROW(
      (void)RunEnvironment::from_env({{"OMPX_APU_WATCHDOG", "soon"}}),
      EnvError);
}

TEST(RunEnvironment, ToStringRendersWatchdogOnlyWhenEnabled) {
  RunEnvironment env;
  EXPECT_EQ(env.to_string().find("OMPX_APU_WATCHDOG"), std::string::npos);
  env.watchdog = parse_watchdog("200us:recover");
  EXPECT_NE(env.to_string().find("OMPX_APU_WATCHDOG=200000:recover"),
            std::string::npos);
}

// --- OMPX_APU_RACE_CHECK ----------------------------------------------------

TEST(RunEnvironment, RaceCheckDefaultsToOff) {
  const RunEnvironment env;
  EXPECT_EQ(env.race_check, RaceCheckMode::Off);
}

TEST(RunEnvironment, FromEnvParsesRaceCheckModes) {
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_RACE_CHECK", "off"}})
                .race_check,
            RaceCheckMode::Off);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_RACE_CHECK", "report"}})
                .race_check,
            RaceCheckMode::Report);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_RACE_CHECK", "abort"}})
                .race_check,
            RaceCheckMode::Abort);
  // Spellings are case-insensitive like the other variables.
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_RACE_CHECK", "REPORT"}})
                .race_check,
            RaceCheckMode::Report);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_RACE_CHECK", "Abort"}})
                .race_check,
            RaceCheckMode::Abort);
}

TEST(RunEnvironment, RaceCheckRejectsGarbageNamingTheVariable) {
  // Not a boolean: "1"/"on" must throw, not silently enable a mode.
  for (const char* bad : {"", "1", "on", "true", "warn", "bogus"}) {
    try {
      (void)RunEnvironment::from_env({{"OMPX_APU_RACE_CHECK", bad}});
      FAIL() << "expected EnvError for OMPX_APU_RACE_CHECK=" << bad;
    } catch (const EnvError& e) {
      EXPECT_NE(std::string{e.what()}.find("OMPX_APU_RACE_CHECK"),
                std::string::npos);
    }
  }
}

TEST(RunEnvironment, ToStringRendersRaceCheckOnlyWhenEnabled) {
  RunEnvironment env;
  EXPECT_EQ(env.to_string().find("OMPX_APU_RACE_CHECK"), std::string::npos);
  env.race_check = RaceCheckMode::Report;
  EXPECT_NE(env.to_string().find("OMPX_APU_RACE_CHECK=report"),
            std::string::npos);
  env.race_check = RaceCheckMode::Abort;
  EXPECT_NE(env.to_string().find("OMPX_APU_RACE_CHECK=abort"),
            std::string::npos);
}

// --- OMPX_APU_SOCKETS / OMPX_APU_FABRIC -------------------------------------

TEST(RunEnvironment, SocketsDefaultToTopologyCount) {
  const RunEnvironment env;
  EXPECT_EQ(env.ompx_apu_sockets, 0);  // 0 = keep the topology's count
  EXPECT_EQ(env.ompx_apu_fabric, fabric::FabricMode::Off);
}

TEST(RunEnvironment, FromEnvParsesSocketCount) {
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_SOCKETS", "4"}})
                .ompx_apu_sockets,
            4);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_SOCKETS", "1"}})
                .ompx_apu_sockets,
            1);
}

TEST(RunEnvironment, SocketCountRejectsGarbageNamingTheVariable) {
  for (const char* bad : {"", "0", "-2", "four", "2.5", "4x"}) {
    try {
      (void)RunEnvironment::from_env({{"OMPX_APU_SOCKETS", bad}});
      FAIL() << "expected EnvError for OMPX_APU_SOCKETS=" << bad;
    } catch (const EnvError& e) {
      EXPECT_NE(std::string{e.what()}.find("OMPX_APU_SOCKETS"),
                std::string::npos);
    }
  }
}

TEST(RunEnvironment, FromEnvParsesFabricModes) {
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_FABRIC", "off"}})
                .ompx_apu_fabric,
            fabric::FabricMode::Off);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_FABRIC", "xgmi"}})
                .ompx_apu_fabric,
            fabric::FabricMode::Xgmi);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_FABRIC", "uniform"}})
                .ompx_apu_fabric,
            fabric::FabricMode::Uniform);
  // Spellings are case-insensitive like the other variables.
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_FABRIC", "XGMI"}})
                .ompx_apu_fabric,
            fabric::FabricMode::Xgmi);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_FABRIC", "Uniform"}})
                .ompx_apu_fabric,
            fabric::FabricMode::Uniform);
}

TEST(RunEnvironment, FabricModeRejectsGarbageNamingTheVariable) {
  // Not a boolean: "1"/"on" must throw, not silently pick a topology.
  for (const char* bad : {"", "1", "on", "true", "mesh", "bogus"}) {
    try {
      (void)RunEnvironment::from_env({{"OMPX_APU_FABRIC", bad}});
      FAIL() << "expected EnvError for OMPX_APU_FABRIC=" << bad;
    } catch (const EnvError& e) {
      EXPECT_NE(std::string{e.what()}.find("OMPX_APU_FABRIC"),
                std::string::npos);
    }
  }
}

TEST(RunEnvironment, ToStringRendersSocketsAndFabricOnlyWhenSet) {
  RunEnvironment env;
  EXPECT_EQ(env.to_string().find("OMPX_APU_SOCKETS"), std::string::npos);
  EXPECT_EQ(env.to_string().find("OMPX_APU_FABRIC"), std::string::npos);
  env.ompx_apu_sockets = 4;
  env.ompx_apu_fabric = fabric::FabricMode::Xgmi;
  EXPECT_NE(env.to_string().find("OMPX_APU_SOCKETS=4"), std::string::npos);
  EXPECT_NE(env.to_string().find("OMPX_APU_FABRIC=xgmi"), std::string::npos);
}

TEST(RunEnvironment, PressureModeParsesOffAndWatermarks) {
  EXPECT_EQ(RunEnvironment{}.ompx_apu_pressure, PressureMode::Off);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_PRESSURE", "off"}})
                .ompx_apu_pressure,
            PressureMode::Off);
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_PRESSURE", "watermarks"}})
                .ompx_apu_pressure,
            PressureMode::Watermarks);
  // Case-insensitive like every other knob.
  EXPECT_EQ(RunEnvironment::from_env({{"OMPX_APU_PRESSURE", "Watermarks"}})
                .ompx_apu_pressure,
            PressureMode::Watermarks);
}

TEST(RunEnvironment, PressureModeRejectsGarbageNamingTheVariable) {
  // Not a boolean: "1"/"on" must throw, not silently enable reclaim.
  for (const char* bad : {"", "1", "on", "true", "high", "lru"}) {
    try {
      (void)RunEnvironment::from_env({{"OMPX_APU_PRESSURE", bad}});
      FAIL() << "expected EnvError for OMPX_APU_PRESSURE=" << bad;
    } catch (const EnvError& e) {
      EXPECT_NE(std::string{e.what()}.find("OMPX_APU_PRESSURE"),
                std::string::npos);
    }
  }
}

TEST(RunEnvironment, AutomigrateParsesBooleanAndThresholdForms) {
  EXPECT_FALSE(RunEnvironment{}.ompx_apu_automigrate.enabled);
  const RunEnvironment on =
      RunEnvironment::from_env({{"OMPX_APU_AUTOMIGRATE", "1"}});
  EXPECT_TRUE(on.ompx_apu_automigrate.enabled);
  EXPECT_EQ(on.ompx_apu_automigrate.threshold, 4);  // default threshold
  const RunEnvironment tuned =
      RunEnvironment::from_env({{"OMPX_APU_AUTOMIGRATE", "8"}});
  EXPECT_TRUE(tuned.ompx_apu_automigrate.enabled);
  EXPECT_EQ(tuned.ompx_apu_automigrate.threshold, 8);
  for (const char* off : {"0", "off", "false"}) {
    EXPECT_FALSE(RunEnvironment::from_env({{"OMPX_APU_AUTOMIGRATE", off}})
                     .ompx_apu_automigrate.enabled)
        << off;
  }
}

TEST(RunEnvironment, AutomigrateRejectsNegativesAndGarbage) {
  for (const char* bad : {"", "-3", "maybe", "4.5", "threshold"}) {
    try {
      (void)RunEnvironment::from_env({{"OMPX_APU_AUTOMIGRATE", bad}});
      FAIL() << "expected EnvError for OMPX_APU_AUTOMIGRATE=" << bad;
    } catch (const EnvError& e) {
      EXPECT_NE(std::string{e.what()}.find("OMPX_APU_AUTOMIGRATE"),
                std::string::npos);
    }
  }
}

TEST(RunEnvironment, ThpDynamicModeParsesAndKeepsHugePages) {
  const RunEnvironment env = RunEnvironment::from_env({{"THP", "dynamic"}});
  EXPECT_EQ(env.thp, ThpMode::Dynamic);
  // Dynamic still starts on 2 MB mappings; the split machinery only
  // changes what happens under eviction and partial migration.
  EXPECT_EQ(env.page_bytes(), 2ULL << 20);
  EXPECT_EQ(RunEnvironment::from_env({{"THP", "1"}}).thp, ThpMode::On);
  const RunEnvironment off = RunEnvironment::from_env({{"THP", "off"}});
  EXPECT_EQ(off.thp, ThpMode::Off);
  EXPECT_EQ(off.page_bytes(), 4096u);
}

TEST(RunEnvironment, ToStringRendersPressureKnobsOnlyWhenSet) {
  RunEnvironment env;
  EXPECT_EQ(env.to_string().find("OMPX_APU_PRESSURE"), std::string::npos);
  EXPECT_EQ(env.to_string().find("OMPX_APU_AUTOMIGRATE"), std::string::npos);
  env.ompx_apu_pressure = PressureMode::Watermarks;
  env.ompx_apu_automigrate = {true, 6};
  env.thp = ThpMode::Dynamic;
  EXPECT_NE(env.to_string().find("OMPX_APU_PRESSURE=watermarks"),
            std::string::npos);
  EXPECT_NE(env.to_string().find("OMPX_APU_AUTOMIGRATE=6"), std::string::npos);
  EXPECT_NE(env.to_string().find("THP=dynamic"), std::string::npos);
}

TEST(RunEnvironment, ErrorMessageNamesTheOffendingVariable) {
  try {
    (void)RunEnvironment::from_env({{"OMPX_APU_MAPS", "maybe"}});
    FAIL() << "expected EnvError";
  } catch (const EnvError& e) {
    EXPECT_NE(std::string{e.what()}.find("OMPX_APU_MAPS"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("maybe"), std::string::npos);
  }
}

}  // namespace
}  // namespace zc::apu

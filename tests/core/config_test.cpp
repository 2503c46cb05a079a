#include "zc/core/config.hpp"

#include <gtest/gtest.h>

namespace zc::omp {
namespace {

using apu::ApuMapsMode;
using apu::MachineKind;
using apu::RunEnvironment;

RunEnvironment env(bool xnack, bool apu_maps = false, bool eager = false) {
  RunEnvironment e;
  e.hsa_xnack = xnack;
  e.ompx_apu_maps = apu_maps ? ApuMapsMode::On : ApuMapsMode::Off;
  e.ompx_eager_maps = eager;
  return e;
}

RunEnvironment adaptive_env(bool xnack, bool eager = false) {
  RunEnvironment e;
  e.hsa_xnack = xnack;
  e.ompx_apu_maps = ApuMapsMode::Adaptive;
  e.ompx_eager_maps = eager;
  return e;
}

TEST(ResolveConfig, ApuWithXnackAutoSelectsImplicitZeroCopy) {
  EXPECT_EQ(resolve_config(MachineKind::ApuMi300a, env(true), false),
            RuntimeConfig::ImplicitZeroCopy);
}

TEST(ResolveConfig, ApuWithoutXnackFallsBackToCopy) {
  EXPECT_EQ(resolve_config(MachineKind::ApuMi300a, env(false), false),
            RuntimeConfig::LegacyCopy);
}

TEST(ResolveConfig, DiscreteDefaultsToCopyEvenWithXnack) {
  EXPECT_EQ(resolve_config(MachineKind::DiscreteGpu, env(true), false),
            RuntimeConfig::LegacyCopy);
}

TEST(ResolveConfig, DiscreteOptInViaOmpxApuMapsRequiresXnack) {
  // Footnote 1: OMPX_APU_MAPS=1 in an XNACK-enabled environment.
  EXPECT_EQ(resolve_config(MachineKind::DiscreteGpu, env(true, true), false),
            RuntimeConfig::ImplicitZeroCopy);
  EXPECT_EQ(resolve_config(MachineKind::DiscreteGpu, env(false, true), false),
            RuntimeConfig::LegacyCopy);
}

TEST(ResolveConfig, EagerMapsSelectedOnApu) {
  EXPECT_EQ(
      resolve_config(MachineKind::ApuMi300a, env(true, false, true), false),
      RuntimeConfig::EagerMaps);
  // Eager Maps does not require XNACK (§IV-D).
  EXPECT_EQ(
      resolve_config(MachineKind::ApuMi300a, env(false, false, true), false),
      RuntimeConfig::EagerMaps);
}

TEST(ResolveConfig, EagerMapsIgnoredOnDiscrete) {
  EXPECT_EQ(
      resolve_config(MachineKind::DiscreteGpu, env(true, false, true), false),
      RuntimeConfig::LegacyCopy);
}

TEST(ResolveConfig, AdaptiveSelectedOnApuWithOrWithoutXnack) {
  EXPECT_EQ(resolve_config(MachineKind::ApuMi300a, adaptive_env(true), false),
            RuntimeConfig::AdaptiveMaps);
  // Like Eager Maps, the adaptive policy works without XNACK: it simply
  // never classifies a region zero-copy in that environment.
  EXPECT_EQ(resolve_config(MachineKind::ApuMi300a, adaptive_env(false), false),
            RuntimeConfig::AdaptiveMaps);
}

TEST(ResolveConfig, AdaptiveBeatsEagerWhenBothRequested) {
  EXPECT_EQ(
      resolve_config(MachineKind::ApuMi300a, adaptive_env(true, true), false),
      RuntimeConfig::AdaptiveMaps);
}

TEST(ResolveConfig, AdaptiveOnDiscreteCountsAsFootnote1OptIn) {
  // No adaptive engine on discrete nodes; with XNACK the non-off value
  // still opts into zero-copy, without it the node stays on Copy.
  EXPECT_EQ(resolve_config(MachineKind::DiscreteGpu, adaptive_env(true), false),
            RuntimeConfig::ImplicitZeroCopy);
  EXPECT_EQ(
      resolve_config(MachineKind::DiscreteGpu, adaptive_env(false), false),
      RuntimeConfig::LegacyCopy);
}

TEST(ResolveConfig, UsmBinaryAlwaysRunsUsm) {
  EXPECT_EQ(resolve_config(MachineKind::ApuMi300a, env(true), true),
            RuntimeConfig::UnifiedSharedMemory);
  // Even when eager maps is requested: the binary requirement wins.
  EXPECT_EQ(
      resolve_config(MachineKind::ApuMi300a, env(true, false, true), true),
      RuntimeConfig::UnifiedSharedMemory);
  EXPECT_EQ(resolve_config(MachineKind::DiscreteGpu, env(true), true),
            RuntimeConfig::UnifiedSharedMemory);
}

TEST(ResolveConfig, UsmBinaryWithoutXnackIsAnError) {
  // USM binaries cannot fall back to Copy: less portable by construction.
  EXPECT_THROW((void)resolve_config(MachineKind::ApuMi300a, env(false), true),
               ConfigError);
  EXPECT_THROW(
      (void)resolve_config(MachineKind::DiscreteGpu, env(false), true),
      ConfigError);
}

TEST(ConfigPredicates, ZeroCopyAndGlobalsHandling) {
  EXPECT_FALSE(is_zero_copy(RuntimeConfig::LegacyCopy));
  EXPECT_TRUE(is_zero_copy(RuntimeConfig::UnifiedSharedMemory));
  EXPECT_TRUE(is_zero_copy(RuntimeConfig::ImplicitZeroCopy));
  EXPECT_TRUE(is_zero_copy(RuntimeConfig::EagerMaps));
  EXPECT_TRUE(is_zero_copy(RuntimeConfig::AdaptiveMaps));

  EXPECT_TRUE(globals_use_device_copy(RuntimeConfig::LegacyCopy));
  EXPECT_FALSE(globals_use_device_copy(RuntimeConfig::UnifiedSharedMemory));
  EXPECT_TRUE(globals_use_device_copy(RuntimeConfig::ImplicitZeroCopy));
  EXPECT_TRUE(globals_use_device_copy(RuntimeConfig::EagerMaps));
  EXPECT_TRUE(globals_use_device_copy(RuntimeConfig::AdaptiveMaps));
}

TEST(ConfigNames, MatchPaperTerminology) {
  EXPECT_STREQ(to_string(RuntimeConfig::LegacyCopy), "Legacy Copy");
  EXPECT_STREQ(to_string(RuntimeConfig::UnifiedSharedMemory),
               "Unified Shared Memory");
  EXPECT_STREQ(to_string(RuntimeConfig::ImplicitZeroCopy),
               "Implicit Zero-Copy");
  EXPECT_STREQ(to_string(RuntimeConfig::EagerMaps), "Eager Maps");
  EXPECT_STREQ(to_string(RuntimeConfig::AdaptiveMaps), "Adaptive Maps");
}

TEST(ConfigNames, CommandLineNamesSelectEveryConfiguration) {
  EXPECT_EQ(parse_config_name("copy"), RuntimeConfig::LegacyCopy);
  EXPECT_EQ(parse_config_name("usm"), RuntimeConfig::UnifiedSharedMemory);
  EXPECT_EQ(parse_config_name("zerocopy"), RuntimeConfig::ImplicitZeroCopy);
  EXPECT_EQ(parse_config_name("zc"), RuntimeConfig::ImplicitZeroCopy);
  EXPECT_EQ(parse_config_name("eager"), RuntimeConfig::EagerMaps);
  EXPECT_EQ(parse_config_name("adaptive"), RuntimeConfig::AdaptiveMaps);
  EXPECT_EQ(parse_config_name("Adaptive"), std::nullopt);
  EXPECT_EQ(parse_config_name(""), std::nullopt);
}

}  // namespace
}  // namespace zc::omp

#include "zc/apu/machine.hpp"

#include <gtest/gtest.h>

namespace zc::apu {
namespace {

using namespace zc::sim::literals;

TEST(Machine, Mi300aDefaults) {
  Machine m = Machine::mi300a();
  EXPECT_TRUE(m.is_apu());
  EXPECT_EQ(m.kind(), MachineKind::ApuMi300a);
  EXPECT_EQ(m.page_bytes(), 2ULL << 20);
  EXPECT_EQ(m.gpu().servers(), m.topology().gpu_kernel_slots);
  EXPECT_EQ(m.sdma().servers(), m.topology().sdma_engines);
  EXPECT_EQ(m.driver().servers(), 1);
}

TEST(Machine, DiscreteGpuCopiesCrossTheLink) {
  Machine apu = Machine::mi300a();
  Machine dgpu = Machine::discrete_gpu();
  EXPECT_FALSE(dgpu.is_apu());
  const std::uint64_t bytes = 1ULL << 30;
  // The same transfer must be slower over the PCIe-style link than within
  // one HBM storage.
  EXPECT_GT(dgpu.copy_duration(bytes), apu.copy_duration(bytes));
}

TEST(Machine, CopyDurationHasFloor) {
  Machine m = Machine::mi300a();
  EXPECT_EQ(m.copy_duration(1), m.costs().copy_min);
  EXPECT_GT(m.copy_duration(8ULL << 30), m.costs().copy_min);
}

TEST(Machine, CopyDurationScalesLinearly) {
  Machine m = Machine::mi300a();
  const auto one = m.copy_duration(1ULL << 30);
  const auto four = m.copy_duration(4ULL << 30);
  EXPECT_NEAR(four / one, 4.0, 0.01);
}

TEST(Machine, FaultServiceDependsOnResidency) {
  Machine m = Machine::mi300a();
  const auto resident = m.fault_service_duration(true);
  const auto untouched = m.fault_service_duration(false);
  EXPECT_EQ(resident, m.costs().xnack_fault_resident);
  EXPECT_EQ(untouched,
            m.costs().xnack_fault_resident + m.costs().page_materialize);
  EXPECT_GT(untouched, resident * 5.0);  // materialization dominates
}

TEST(Machine, JitterIdentityByDefault) {
  Machine m = Machine::mi300a();
  EXPECT_EQ(m.jittered(10_us), 10_us);
}

TEST(Machine, JitterPerturbsWhenConfigured) {
  Machine m = Machine::mi300a({}, {.sigma = 0.3}, 42);
  bool perturbed = false;
  for (int i = 0; i < 16; ++i) {
    if (m.jittered(10_us) != 10_us) {
      perturbed = true;
    }
  }
  EXPECT_TRUE(perturbed);
}

TEST(Machine, EnvThpControlsPageSize) {
  RunEnvironment env;
  env.thp = ThpMode::Off;
  Machine m = Machine::mi300a(env);
  EXPECT_EQ(m.page_bytes(), 4096u);
}

}  // namespace
}  // namespace zc::apu

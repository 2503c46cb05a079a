// A hit on another thread's fresh Copy entry waits for the host-to-device
// transfer that created it. Under Legacy Copy the creating thread inserts
// the entry, leaves the mapping lock, then submits the copy; a second
// thread can hit the entry in between. libomptarget makes such a hit wait
// on the entry's transfer event, and so does `PresentEntry::fill`: the
// second thread's kernel must not start before the bytes have landed, the
// race detector must see the edge, and a failed transfer must fail the
// second thread too instead of handing it an empty device copy.
//
// Every run has the same shape: a setup thread fills `x`; the creator maps
// it `to` with `target enter data`; the hitter initializes, polls the
// present table (sleep_for emits no happens-before edge) and, once the
// entry is there, runs a kernel that sums `x` on the device.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_runtime.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/trace/race_trace.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;

constexpr std::size_t kN = std::size_t{1} << 20;  ///< 8 MB of doubles
/// Sum of 0 .. kN-1, exact in a double.
constexpr double kSum = static_cast<double>(kN) * (kN - 1) / 2.0;

struct Outcome {
  std::optional<ErrorCode> creator_error;
  std::optional<ErrorCode> hitter_error;
  double sum = 0.0;  ///< what the hitter's kernel read from the device
  sim::TimePoint found;  ///< when the hitter saw the entry
  std::optional<sim::TimePoint> kernel_start;
  std::vector<trace::CopyRecord> x_copies;  ///< copies of `x`, in order
  std::vector<std::string> races;
  std::string counts;  ///< "call=count" for every HSA call
};

/// One two-thread Legacy Copy run with `faults` injected, race detector in
/// report mode.
Outcome run(const std::string& faults) {
  apu::Machine::Config mc =
      OffloadStack::machine_config_for(RuntimeConfig::LegacyCopy);
  mc.env.ompx_apu_faults = faults;
  mc.env.race_check = apu::RaceCheckMode::Report;
  OffloadStack stack{std::move(mc), {}};
  stack.hsa().set_keep_records(true);
  sim::Scheduler& sched = stack.sched();
  OffloadRuntime& rt = stack.omp();
  Outcome out;

  std::optional<HostArray<double>> x;
  sched.spawn("setup", [&] {
    x.emplace(rt, kN, "x");
    x->first_touch();
    for (std::size_t i = 0; i < kN; ++i) {
      (*x)[i] = static_cast<double>(i);
    }
  });
  sched.run();

  sim::Latch hitter_ready;  // the creator maps once the hitter is polling
  sched.spawn("creator", [&] {
    rt.target_data_begin({});  // per-thread initialization
    hitter_ready.wait(sched);
    const MapEntry enter = x->to();
    try {
      rt.target_enter_data({&enter, 1});
    } catch (const OffloadError& e) {
      out.creator_error = e.code();
    }
  });
  sched.spawn("hitter", [&] {
    rt.target_data_begin({});
    hitter_ready.set(sched);
    while (rt.present_table().lookup(x->addr()) == nullptr) {
      sched.sleep_for(1_us);
    }
    out.found = sched.now();
    const mem::VirtAddr addr = x->addr();
    try {
      rt.target(TargetRegion{
          .name = "sum",
          .maps = {x->to()},
          .compute = 5_us,
          .body = [&out, addr](hsa::KernelContext& ctx,
                               const ArgTranslator& tr) {
            const double* d = ctx.ptr<double>(tr.device(addr), kN);
            for (std::size_t i = 0; i < kN; ++i) {
              out.sum += d[i];
            }
          }});
    } catch (const OffloadError& e) {
      out.hitter_error = e.code();
    }
  });
  sched.run();

  for (const trace::KernelRecord& k : stack.hsa().kernel_records()) {
    if (k.name == "sum") {
      out.kernel_start = k.start;
    }
  }
  for (const trace::CopyRecord& c : stack.hsa().copy_records()) {
    if (c.bytes == x->bytes()) {
      out.x_copies.push_back(c);
    }
  }
  for (const trace::RaceReport& r : stack.race_detector()->trace().records()) {
    out.races.push_back(r.message);
  }
  std::ostringstream counts;
  for (int c = 0; c < static_cast<int>(trace::HsaCall::kCount); ++c) {
    const auto call = static_cast<trace::HsaCall>(c);
    counts << to_string(call) << "=" << stack.hsa().stats().count(call) << " ";
  }
  out.counts = counts.str();
  return out;
}

TEST(PresentFill, HitFromAnotherThreadWaitsForTheCreatingTransfer) {
  const Outcome out = run("");
  ASSERT_FALSE(out.creator_error);
  ASSERT_FALSE(out.hitter_error);
  ASSERT_EQ(out.x_copies.size(), 1u);
  ASSERT_TRUE(out.kernel_start);
  // The hitter found the entry while the transfer was still in flight.
  EXPECT_LT(out.found, out.x_copies[0].end);
  EXPECT_GE(*out.kernel_start, out.x_copies[0].end);
  EXPECT_DOUBLE_EQ(out.sum, kSum);
  EXPECT_TRUE(out.races.empty()) << out.races.front();
  // The wait is no HSA call: Table I counts stay what they were without it.
  EXPECT_EQ(out.counts,
            "hsa_signal_create=0 hsa_signal_wait_scacquire=3 "
            "hsa_amd_signal_async_handler=0 hsa_amd_memory_pool_allocate=30 "
            "hsa_amd_memory_pool_free=0 hsa_amd_memory_async_copy=4 "
            "hsa_queue_dispatch=1 hsa_amd_svm_attributes_set=0 ");
}

TEST(PresentFill, HitWaitsForTheResubmissionAfterAnSdmaError) {
  // SDMA calls 1-3 upload the image; call 4 is the creator's transfer.
  const Outcome out = run("sdma@call=4");
  ASSERT_FALSE(out.creator_error);
  ASSERT_FALSE(out.hitter_error);
  ASSERT_EQ(out.x_copies.size(), 2u);
  ASSERT_TRUE(out.kernel_start);
  EXPECT_LT(out.found, out.x_copies[0].end);
  EXPECT_GE(*out.kernel_start, out.x_copies[1].end);
  EXPECT_DOUBLE_EQ(out.sum, run("").sum);
  EXPECT_TRUE(out.races.empty()) << out.races.front();
}

TEST(PresentFill, ThreadsMappingEachOthersFreshEntriesDoNotDeadlock) {
  // One thread maps {x, y}, the other {y, x}: each creates one entry and
  // hits the other's while its fill is in flight. A thread publishes its
  // own fills before it waits on another's, so neither waits on the other.
  OffloadStack stack{
      OffloadStack::machine_config_for(RuntimeConfig::LegacyCopy), {}};
  sim::Scheduler& sched = stack.sched();
  OffloadRuntime& rt = stack.omp();
  std::optional<HostArray<double>> x;
  std::optional<HostArray<double>> y;
  sched.spawn("setup", [&] {
    for (auto* a : {&x, &y}) {
      a->emplace(rt, kN, a == &x ? "x" : "y");
      (*a)->first_touch();
      for (std::size_t i = 0; i < kN; ++i) {
        (**a)[i] = static_cast<double>(i);
      }
    }
  });
  sched.run();
  double sums[2] = {0.0, 0.0};
  for (int t = 0; t < 2; ++t) {
    sched.spawn(t == 0 ? "t0" : "t1", [&, t] {
      const mem::VirtAddr a = (t == 0 ? x : y)->addr();
      const mem::VirtAddr b = (t == 0 ? y : x)->addr();
      rt.target(TargetRegion{
          .name = "sum2",
          .maps = {MapEntry::to(a, kN * sizeof(double)),
                   MapEntry::to(b, kN * sizeof(double))},
          .compute = 5_us,
          .body = [&sums, t, a, b](hsa::KernelContext& ctx,
                                   const ArgTranslator& tr) {
            for (const mem::VirtAddr v : {a, b}) {
              const double* d = ctx.ptr<double>(tr.device(v), kN);
              for (std::size_t i = 0; i < kN; ++i) {
                sums[t] += d[i];
              }
            }
          }});
    });
  }
  ASSERT_NO_THROW(sched.run());
  EXPECT_DOUBLE_EQ(sums[0], 2 * kSum);
  EXPECT_DOUBLE_EQ(sums[1], 2 * kSum);
}

TEST(PresentFill, HitRaisesCopyFailedWhenTheCreatorsRetriesAreSpent) {
  // The transfer and its one resubmission both fail: the creating region
  // fails, and the hitter raises instead of deadlocking on the fill.
  const Outcome out = run("sdma@call=4..5");
  EXPECT_EQ(out.creator_error, ErrorCode::CopyFailed);
  EXPECT_EQ(out.hitter_error, ErrorCode::CopyFailed);
  EXPECT_FALSE(out.kernel_start);
}

}  // namespace
}  // namespace zc::omp

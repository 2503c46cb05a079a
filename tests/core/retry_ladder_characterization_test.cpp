// Characterization of the runtime's retry ladders. For every path that sees
// one kind of failure — errored copies, stalled copies, hung kernels,
// EINTR'd prefaults, hung prefaults — this pins the complete fault-record
// list (event, device, time, host range) and the run's makespan. The ladder
// code may be restructured freely; any change to these values is a change
// to simulated behaviour and has to be argued as one.
//
// `FaultRecord::attempt` is deliberately not pinned here: its meaning is
// specified (and asserted) by the recovery tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_runtime.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;

/// One expected fault record; the event by its trace name.
struct Rec {
  std::string_view event;
  int device = 0;
  std::int64_t time_ns = 0;
  std::uint64_t host_base = 0;
  std::uint64_t bytes = 0;
};

struct Path {
  RuntimeConfig config = RuntimeConfig::LegacyCopy;
  std::string faults;
  std::string watchdog;       ///< empty: no watchdog
  std::size_t n = 1024;       ///< doubles in the incremented array
  std::uint64_t hbm_bytes = 128ULL << 30;
  std::optional<ErrorCode> error;  ///< the OffloadError the region raises
  std::int64_t makespan_ns = 0;
  std::vector<Rec> records;
};

// Image load plus one thread's init leave ~22 MB of pool headroom under
// this cap, so a 32 MB mapped array cannot get device storage.
constexpr std::uint64_t kTightHbm = 300ULL << 20;
constexpr std::size_t k32MiB = (32ULL << 20) / sizeof(double);

/// x[i] += 1 over an n-double array mapped tofrom, once.
void run_increment(OffloadStack& stack, std::size_t n) {
  stack.sched().run_single([&] {
    OffloadRuntime& rt = stack.omp();
    HostArray<double> x{rt, n, "x"};
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(i);
    }
    const mem::VirtAddr xv = x.addr();
    rt.target(TargetRegion{
        .name = "incr",
        .maps = {x.tofrom()},
        .compute = 5_us,
        .body = [xv, n](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          double* xd = ctx.ptr<double>(tr.device(xv), n);
          for (std::size_t i = 0; i < n; ++i) {
            xd[i] += 1.0;
          }
        },
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(x[i], static_cast<double>(i) + 1.0);
    }
  });
}

/// One record per line, so a mismatch prints as a line diff.
std::string describe(const std::vector<Rec>& records) {
  std::ostringstream os;
  for (const Rec& r : records) {
    os << "{\"" << r.event << "\", " << r.device << ", " << r.time_ns
       << ", 0x" << std::hex << r.host_base << std::dec << ", " << r.bytes
       << "},\n";
  }
  return os.str();
}

void expect_path(const Path& p) {
  apu::Machine::Config config = OffloadStack::machine_config_for(p.config);
  config.env.ompx_apu_faults = p.faults;
  if (!p.watchdog.empty()) {
    config.env.watchdog = apu::parse_watchdog(p.watchdog);
  }
  config.topology.hbm_bytes = p.hbm_bytes;
  OffloadStack stack{std::move(config),
                     OffloadStack::program_for(p.config, {})};
  std::optional<ErrorCode> raised;
  try {
    run_increment(stack, p.n);
  } catch (const OffloadError& e) {
    raised = e.code();
  }
  EXPECT_EQ(raised, p.error);
  EXPECT_EQ(stack.sched().horizon().ns(), p.makespan_ns);
  std::vector<Rec> actual;
  for (const trace::FaultRecord& r : stack.hsa().fault_trace().records()) {
    actual.push_back(Rec{trace::to_string(r), r.device, r.time.ns(),
                         r.host_base, r.bytes});
  }
  EXPECT_EQ(describe(actual), describe(p.records));
}

}  // namespace

TEST(RetryLadderCharacterization, CopyErrorRetriedThenOk) {
  expect_path(Path{
      .config = RuntimeConfig::LegacyCopy,
      .faults = "sdma@call=4",
      .makespan_ns = 13286351,
      .records = {
          {"sdma", 0, 13256881, 0x14600000, 8192},
          {"copy-retry", 0, 13259281, 0x200000, 8192},
          {"copy-retry-succeeded", 0, 13264681, 0x200000, 8192},
      },
  });
}

TEST(RetryLadderCharacterization, CopyErrorExhausted) {
  expect_path(Path{
      .config = RuntimeConfig::LegacyCopy,
      .faults = "sdma@call=4..5",
      .error = ErrorCode::CopyFailed,
      .makespan_ns = 13264681,
      .records = {
          {"sdma", 0, 13256881, 0x14600000, 8192},
          {"copy-retry", 0, 13259281, 0x200000, 8192},
          {"sdma", 0, 13262281, 0x14600000, 8192},
          {"region-failed", 0, 13264681, 0x200000, 8192},
      },
  });
}

TEST(RetryLadderCharacterization, CopyStallReplayedThenOk) {
  expect_path(Path{
      .config = RuntimeConfig::LegacyCopy,
      .faults = "sdma_stall@call=4",
      .watchdog = "150us:recover",
      .makespan_ns = 13474351,
      .records = {
          {"sdma_stall", 0, 13256881, 0x14600000, 8192},
          {"watchdog-trip", 0, 13446881, 0x0, 0},
          {"watchdog-replay", 0, 13447281, 0x200000, 8192},
          {"watchdog-recovered", 0, 13452681, 0x200000, 8192},
      },
  });
}

TEST(RetryLadderCharacterization, CopyStallExhausted) {
  expect_path(Path{
      .config = RuntimeConfig::LegacyCopy,
      .faults = "sdma_stall@call=4..6",
      .watchdog = "150us:recover",
      .error = ErrorCode::OperationHung,
      .makespan_ns = 13834081,
      .records = {
          {"sdma_stall", 0, 13256881, 0x14600000, 8192},
          {"watchdog-trip", 0, 13446881, 0x0, 0},
          {"watchdog-replay", 0, 13447281, 0x200000, 8192},
          {"sdma_stall", 0, 13450281, 0x14600000, 8192},
          {"watchdog-trip", 0, 13640281, 0x0, 0},
          {"watchdog-replay", 0, 13640681, 0x200000, 8192},
          {"sdma_stall", 0, 13643681, 0x14600000, 8192},
          {"watchdog-trip", 0, 13833681, 0x0, 0},
          {"breaker-opened", 0, 13833681, 0x0, 0},
          {"region-failed", 0, 13834081, 0x200000, 8192},
      },
  });
}

TEST(RetryLadderCharacterization, KernelHangReplayedThenOk) {
  expect_path(Path{
      .config = RuntimeConfig::ImplicitZeroCopy,
      .faults = "kernel_hang@call=1",
      .watchdog = "200us:recover",
      .makespan_ns = 14404151,
      .records = {
          {"kernel_hang", 0, 13243381, 0x0, 0},
          {"watchdog-trip", 0, 13483381, 0x0, 0},
          {"watchdog-replay", 0, 13483781, 0x0, 0},
          {"watchdog-recovered", 0, 14403901, 0x0, 0},
      },
  });
}

TEST(RetryLadderCharacterization, KernelHangExhausted) {
  expect_path(Path{
      .config = RuntimeConfig::ImplicitZeroCopy,
      .faults = "kernel_hang@call=1..3",
      .watchdog = "200us:recover",
      .error = ErrorCode::OperationHung,
      .makespan_ns = 13967581,
      .records = {
          {"kernel_hang", 0, 13243381, 0x0, 0},
          {"watchdog-trip", 0, 13483381, 0x0, 0},
          {"watchdog-replay", 0, 13483781, 0x0, 0},
          {"kernel_hang", 0, 13485281, 0x0, 0},
          {"watchdog-trip", 0, 13725281, 0x0, 0},
          {"watchdog-replay", 0, 13725681, 0x0, 0},
          {"kernel_hang", 0, 13727181, 0x0, 0},
          {"watchdog-trip", 0, 13967181, 0x0, 0},
          {"breaker-opened", 0, 13967181, 0x0, 0},
          {"region-failed", 0, 13967581, 0x0, 0},
      },
  });
}

TEST(RetryLadderCharacterization, KernelHangAbortMode) {
  expect_path(Path{
      .config = RuntimeConfig::ImplicitZeroCopy,
      .faults = "kernel_hang@call=1",
      .watchdog = "200us:abort",
      .error = ErrorCode::OperationHung,
      .makespan_ns = 13483781,
      .records = {
          {"kernel_hang", 0, 13243381, 0x0, 0},
          {"watchdog-trip", 0, 13483381, 0x0, 0},
          {"region-failed", 0, 13483781, 0x0, 0},
      },
  });
}

TEST(RetryLadderCharacterization, PrefaultEintrOkAfterRetries) {
  expect_path(Path{
      .config = RuntimeConfig::EagerMaps,
      .faults = "eintr@call=1..3",
      .makespan_ns = 13656051,
      .records = {
          {"eintr", 0, 13243081, 0x200000, 8192},
          {"prefault-retry", 0, 13243081, 0x200000, 8192},
          {"eintr", 0, 13294281, 0x200000, 8192},
          {"prefault-retry", 0, 13294281, 0x200000, 8192},
          {"eintr", 0, 13395481, 0x200000, 8192},
          {"prefault-retry", 0, 13395481, 0x200000, 8192},
          {"prefault-retry-succeeded", 0, 13645681, 0x200000, 8192},
      },
  });
}

TEST(RetryLadderCharacterization, PrefaultEintrFallsBackToXnack) {
  expect_path(Path{
      .config = RuntimeConfig::EagerMaps,
      .faults = "eintr@call=1..5",
      .makespan_ns = 14918251,
      .records = {
          {"eintr", 0, 13243081, 0x200000, 8192},
          {"prefault-retry", 0, 13243081, 0x200000, 8192},
          {"eintr", 0, 13294281, 0x200000, 8192},
          {"prefault-retry", 0, 13294281, 0x200000, 8192},
          {"eintr", 0, 13395481, 0x200000, 8192},
          {"prefault-retry", 0, 13395481, 0x200000, 8192},
          {"eintr", 0, 13596681, 0x200000, 8192},
          {"prefault-retry", 0, 13596681, 0x200000, 8192},
          {"eintr", 0, 13997881, 0x200000, 8192},
          {"prefault-fallback-xnack", 0, 13997881, 0x200000, 8192},
      },
  });
}

TEST(RetryLadderCharacterization, PrefaultEintrFailsWithXnackOff) {
  expect_path(Path{
      .config = RuntimeConfig::LegacyCopy,
      .faults = "eintr@call=1..5",
      .n = k32MiB,
      .hbm_bytes = kTightHbm,
      .error = ErrorCode::PrefaultFailed,
      .makespan_ns = 14009881,
      .records = {
          {"hbm-exhausted", 0, 13253881, 0x0, 33554432},
          {"oom-fallback-zero-copy", 0, 13253881, 0x200000, 33554432},
          {"eintr", 0, 13255081, 0x200000, 33554432},
          {"prefault-retry", 0, 13255081, 0x200000, 33554432},
          {"eintr", 0, 13306281, 0x200000, 33554432},
          {"prefault-retry", 0, 13306281, 0x200000, 33554432},
          {"eintr", 0, 13407481, 0x200000, 33554432},
          {"prefault-retry", 0, 13407481, 0x200000, 33554432},
          {"eintr", 0, 13608681, 0x200000, 33554432},
          {"prefault-retry", 0, 13608681, 0x200000, 33554432},
          {"eintr", 0, 14009881, 0x200000, 33554432},
          {"region-failed", 0, 14009881, 0x200000, 33554432},
      },
  });
}

TEST(RetryLadderCharacterization, PrefaultHangReplayedThenOk) {
  expect_path(Path{
      .config = RuntimeConfig::EagerMaps,
      .faults = "prefault_hang@call=1",
      .watchdog = "150us:recover",
      .makespan_ns = 13493651,
      .records = {
          {"prefault_hang", 0, 13243081, 0x200000, 8192},
          {"watchdog-trip", 0, 13433081, 0x0, 0},
          {"watchdog-replay", 0, 13433081, 0x200000, 8192},
          {"watchdog-recovered", 0, 13483281, 0x200000, 8192},
      },
  });
}

TEST(RetryLadderCharacterization, PrefaultHangExhausted) {
  expect_path(Path{
      .config = RuntimeConfig::EagerMaps,
      .faults = "prefault_hang@call=1..3",
      .watchdog = "150us:recover",
      .error = ErrorCode::OperationHung,
      .makespan_ns = 13815481,
      .records = {
          {"prefault_hang", 0, 13243081, 0x200000, 8192},
          {"watchdog-trip", 0, 13433081, 0x0, 0},
          {"watchdog-replay", 0, 13433081, 0x200000, 8192},
          {"prefault_hang", 0, 13434281, 0x200000, 8192},
          {"watchdog-trip", 0, 13624281, 0x0, 0},
          {"watchdog-replay", 0, 13624281, 0x200000, 8192},
          {"prefault_hang", 0, 13625481, 0x200000, 8192},
          {"watchdog-trip", 0, 13815481, 0x0, 0},
          {"breaker-opened", 0, 13815481, 0x0, 0},
          {"region-failed", 0, 13815481, 0x200000, 8192},
      },
  });
}

}  // namespace zc::omp

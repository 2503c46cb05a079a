// Characterization of the map transaction across all five configurations.
// One single-thread program exercises every map construct: nested tofrom
// and `always to` data regions around an increment kernel, `target update
// from`, two `enter data` maps released and then deleted, a region on a
// host-touched array, and an `always tofrom` map of a declare-target
// global. Degraded rows run the same program through the pool-OOM
// fallback and through breaker-pinned maps.
//
// Each run pins the makespan, the checksum, the per-call HSA counts, the
// present-table size after every construct, the full fault trace, the
// Adaptive Maps decision trace, and the breaker and pressure state. The map code may be restructured freely;
// any change to these values is a change to simulated behaviour and has to
// be argued as one.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_runtime.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;

constexpr std::size_t kN = 4096;       ///< doubles in the mapped array
constexpr std::size_t kGlobalN = 64;   ///< doubles in the global

struct Row {
  RuntimeConfig config = RuntimeConfig::LegacyCopy;
  std::string faults;
  std::string watchdog;  ///< empty: no watchdog
  /// Regions run on a warm-up array before the program; with hung
  /// dispatches they trip the watchdog and open the breaker.
  int warmup_rounds = 0;
  /// Price eager prefault out, so Adaptive Maps classifies the untouched
  /// array DmaCopy.
  bool slow_prefault = false;
};

/// d[i] += 1 over the doubles `map` covers.
TargetRegion increment(const MapEntry& map, std::string name) {
  const mem::VirtAddr addr = map.host_ptr;
  const std::size_t count = map.bytes / sizeof(double);
  return TargetRegion{
      .name = std::move(name),
      .maps = {map},
      .compute = 5_us,
      .body = [addr, count](hsa::KernelContext& ctx, const ArgTranslator& tr) {
        double* d = ctx.ptr<double>(tr.device(addr), count);
        for (std::size_t i = 0; i < count; ++i) {
          d[i] += 1.0;
        }
      },
  };
}

/// Everything one run pins, one fact per line so a mismatch prints as a
/// line diff.
std::string run(const Row& row) {
  apu::Machine::Config config = OffloadStack::machine_config_for(row.config);
  config.env.ompx_apu_faults = row.faults;
  if (!row.watchdog.empty()) {
    config.env.watchdog = apu::parse_watchdog(row.watchdog);
  }
  if (row.slow_prefault) {
    config.costs.prefault_insert_per_page = sim::Duration::from_us(5000.0);
    config.costs.prefault_populate_per_page = sim::Duration::from_us(5000.0);
  }
  ProgramBinary binary;
  binary.globals.push_back(GlobalVar{"g", kGlobalN * sizeof(double)});
  OffloadStack stack{std::move(config),
                     OffloadStack::program_for(row.config, binary)};

  std::ostringstream os;
  double checksum = 0.0;
  stack.sched().run_single([&] {
    OffloadRuntime& rt = stack.omp();
    auto note = [&](std::string_view construct) {
      os << "table after " << construct << ": " << rt.present_table(0).size()
         << "\n";
    };
    HostArray<double> w{rt, 256, "w"};
    for (int r = 0; r < row.warmup_rounds; ++r) {
      rt.target(increment(w.tofrom(), "warmup"));
      note("warmup");
    }

    HostArray<double> x{rt, kN, "x"};
    for (std::size_t i = 0; i < kN; ++i) {
      x[i] = static_cast<double>(i);
    }
    const MapEntry tofrom = x.tofrom();
    const MapEntry always_to = x.always_to();
    rt.target_data_begin({&tofrom, 1});
    note("begin tofrom");
    rt.target_data_begin({&always_to, 1});
    note("begin always to");
    rt.target(increment(tofrom, "incr"));
    note("target");
    rt.target_update_from(x.from());
    note("update from");
    rt.target_data_end({&always_to, 1});
    note("end always to");
    rt.target_data_end({&tofrom, 1});
    note("end tofrom");

    const MapEntry enter = x.to();
    const MapEntry release = MapEntry::release(x.addr(), kN * sizeof(double));
    const MapEntry del = MapEntry::del(x.addr(), kN * sizeof(double));
    rt.target_enter_data({&enter, 1});
    note("enter");
    rt.target_enter_data({&enter, 1});
    note("enter");
    rt.target_exit_data({&release, 1});
    note("exit release");
    rt.target_exit_data({&del, 1});
    note("exit delete");

    HostArray<double> y{rt, kN, "y"};
    y.first_touch();
    rt.target(increment(y.tofrom(), "incr_touched"));
    note("target touched");

    const mem::VirtAddr g = rt.global_host_addr("g");
    double* gh = stack.memory().space().translate_as<double>(g);
    for (std::size_t i = 0; i < kGlobalN; ++i) {
      gh[i] = static_cast<double>(i);
    }
    rt.target(increment(MapEntry::always_tofrom(g, kGlobalN * sizeof(double)),
                        "incr_global"));
    note("target global");

    for (std::size_t i = 0; i < kN; ++i) {
      checksum += x[i] + y[i];
    }
    for (std::size_t i = 0; i < kGlobalN; ++i) {
      checksum += gh[i];
    }
  });

  os << "makespan_ns " << stack.sched().horizon().ns() << "\n";
  os.precision(17);
  os << "checksum " << checksum << "\n";
  const trace::CallStats& calls = stack.hsa().stats();
  for (int c = 0; c < static_cast<int>(trace::HsaCall::kCount); ++c) {
    const auto call = static_cast<trace::HsaCall>(c);
    os << "calls " << trace::to_string(call) << " " << calls.count(call)
       << "\n";
  }
  for (const trace::FaultRecord& r : stack.hsa().fault_trace().records()) {
    os << "fault " << trace::to_string(r) << " dev=" << r.device
       << " t=" << r.time.ns() << " base=0x" << std::hex << r.host_base
       << std::dec << " bytes=" << r.bytes << " attempt=" << r.attempt
       << "\n";
  }
  const trace::DecisionTrace& decisions = stack.omp().decision_trace();
  for (const trace::DecisionRecord& d : decisions.records()) {
    os << "decision " << adapt::to_string(d.decision)
       << " thread=" << d.host_thread << " dev=" << d.device
       << " t=" << d.time.ns() << " base=0x" << std::hex << d.host_base
       << std::dec << " bytes=" << d.bytes << "\n  pages=" << d.pages
       << " cpu_resident=" << d.cpu_resident_pages
       << " gpu_absent=" << d.gpu_absent_pages
       << " pressure=" << d.memory_pressure << " breaker=" << d.breaker_open
       << " revised=" << d.revised << "\n  copy_us=" << d.predicted_copy_us
       << " zero_copy_us=" << d.predicted_zero_copy_us
       << " eager_us=" << d.predicted_eager_us << "\n";
  }
  os << "cache_hits " << decisions.cache_hits() << "\n";
  const CircuitBreaker& breaker = stack.omp().breaker(0);
  os << "breaker trips=" << breaker.total_trips()
     << " opened=" << breaker.times_opened()
     << " pressure=" << stack.omp().memory_pressure(0) << "\n";
  return os.str();
}

/// `expected` is a raw literal that opens with a newline.
void expect_row(const Row& row, std::string_view expected) {
  EXPECT_EQ(run(row), expected.substr(1));
}

}  // namespace

// Three hung dispatches inside the breaker window open it during warm-up.
constexpr std::string_view kThreeHangs =
    "kernel_hang@call=1;kernel_hang@call=3;kernel_hang@call=5";

TEST(MapTransactionCharacterization, LegacyCopy) {
  expect_row({.config = RuntimeConfig::LegacyCopy}, R"(
table after begin tofrom: 2
table after begin always to: 2
table after target: 2
table after update from: 2
table after end always to: 2
table after end tofrom: 1
table after enter: 2
table after enter: 2
table after exit release: 2
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 13398041
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 13
calls hsa_amd_signal_async_handler 4
calls hsa_amd_memory_pool_allocate 23
calls hsa_amd_memory_pool_free 3
calls hsa_amd_memory_async_copy 12
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 0
cache_hits 0
breaker trips=0 opened=0 pressure=0
)");
}

TEST(MapTransactionCharacterization, UnifiedSharedMemory) {
  expect_row({.config = RuntimeConfig::UnifiedSharedMemory}, R"(
table after begin tofrom: 0
table after begin always to: 0
table after target: 0
table after update from: 0
table after end always to: 0
table after end tofrom: 0
table after enter: 0
table after enter: 0
table after exit release: 0
table after exit delete: 0
table after target touched: 0
table after target global: 0
makespan_ns 14213741
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 4
calls hsa_amd_signal_async_handler 0
calls hsa_amd_memory_pool_allocate 19
calls hsa_amd_memory_pool_free 0
calls hsa_amd_memory_async_copy 3
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 0
cache_hits 0
breaker trips=0 opened=0 pressure=0
)");
}

TEST(MapTransactionCharacterization, ImplicitZeroCopy) {
  expect_row({.config = RuntimeConfig::ImplicitZeroCopy}, R"(
table after begin tofrom: 1
table after begin always to: 1
table after target: 1
table after update from: 1
table after end always to: 1
table after end tofrom: 1
table after enter: 1
table after enter: 1
table after exit release: 1
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 14226541
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 6
calls hsa_amd_signal_async_handler 1
calls hsa_amd_memory_pool_allocate 20
calls hsa_amd_memory_pool_free 0
calls hsa_amd_memory_async_copy 5
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 0
cache_hits 0
breaker trips=0 opened=0 pressure=0
)");
}

TEST(MapTransactionCharacterization, EagerMaps) {
  expect_row({.config = RuntimeConfig::EagerMaps}, R"(
table after begin tofrom: 1
table after begin always to: 1
table after target: 1
table after update from: 1
table after end always to: 1
table after end tofrom: 1
table after enter: 1
table after enter: 1
table after exit release: 1
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 13371941
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 6
calls hsa_amd_signal_async_handler 1
calls hsa_amd_memory_pool_allocate 20
calls hsa_amd_memory_pool_free 0
calls hsa_amd_memory_async_copy 5
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 6
cache_hits 0
breaker trips=0 opened=0 pressure=0
)");
}

TEST(MapTransactionCharacterization, AdaptiveMaps) {
  expect_row({.config = RuntimeConfig::AdaptiveMaps}, R"(
table after begin tofrom: 1
table after begin always to: 1
table after target: 1
table after update from: 1
table after end always to: 1
table after end tofrom: 1
table after enter: 1
table after enter: 1
table after exit release: 1
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 13371921
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 6
calls hsa_amd_signal_async_handler 1
calls hsa_amd_memory_pool_allocate 20
calls hsa_amd_memory_pool_free 0
calls hsa_amd_memory_async_copy 5
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 5
decision eager-prefault thread=0 dev=0 t=13255431 base=0x600000 bytes=32768
  pages=1 cpu_resident=0 gpu_absent=1 pressure=0 breaker=0 revised=0
  copy_us=120.73066666666668 zero_copy_us=910 eager_us=50.200000000000003
decision zero-copy thread=0 dev=0 t=13330131 base=0x15200000 bytes=32768
  pages=1 cpu_resident=1 gpu_absent=1 pressure=0 breaker=0 revised=0
  copy_us=120.73066666666668 zero_copy_us=10 eager_us=10.199999999999999
cache_hits 4
breaker trips=0 opened=0 pressure=0
)");
}

TEST(MapTransactionCharacterization, AdaptiveMapsDmaCopy) {
  expect_row({.config = RuntimeConfig::AdaptiveMaps, .slow_prefault = true},
             R"(
table after begin tofrom: 2
table after begin always to: 2
table after target: 2
table after update from: 2
table after end always to: 2
table after end tofrom: 1
table after enter: 2
table after enter: 2
table after exit release: 2
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 13379661
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 11
calls hsa_amd_signal_async_handler 3
calls hsa_amd_memory_pool_allocate 22
calls hsa_amd_memory_pool_free 2
calls hsa_amd_memory_async_copy 10
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 0
decision dma-copy thread=0 dev=0 t=13255431 base=0x600000 bytes=32768
  pages=1 cpu_resident=0 gpu_absent=1 pressure=0 breaker=0 revised=0
  copy_us=120.73066666666668 zero_copy_us=910 eager_us=10001.200000000001
decision zero-copy thread=0 dev=0 t=13337871 base=0x15a00000 bytes=32768
  pages=1 cpu_resident=1 gpu_absent=1 pressure=0 breaker=0 revised=0
  copy_us=120.73066666666668 zero_copy_us=10 eager_us=5001.1999999999998
cache_hits 1
breaker trips=0 opened=0 pressure=0
)");
}

// Call 21 is the first map's pool allocation: nine image allocations, the
// global's device copy and ten per-thread ones come first.
TEST(MapTransactionCharacterization, LegacyCopyPoolOomFallback) {
  expect_row({.config = RuntimeConfig::LegacyCopy, .faults = "oom@call=21"},
             R"(
table after begin tofrom: 2
table after begin always to: 2
table after target: 2
table after update from: 2
table after end always to: 2
table after end tofrom: 1
table after enter: 2
table after enter: 2
table after exit release: 2
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 13420641
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 9
calls hsa_amd_signal_async_handler 2
calls hsa_amd_memory_pool_allocate 23
calls hsa_amd_memory_pool_free 2
calls hsa_amd_memory_async_copy 8
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 1
fault oom dev=0 t=13267381 base=0x0 bytes=32768 attempt=0
fault oom-fallback-zero-copy dev=0 t=13267381 base=0x600000 bytes=32768 attempt=0
cache_hits 0
breaker trips=1 opened=0 pressure=1
)");
}

TEST(MapTransactionCharacterization, AdaptiveMapsDmaCopyPoolOomFallback) {
  expect_row({.config = RuntimeConfig::AdaptiveMaps,
              .faults = "oom@call=21",
              .slow_prefault = true},
             R"(
table after begin tofrom: 2
table after begin always to: 2
table after target: 2
table after update from: 2
table after end always to: 2
table after end tofrom: 1
table after enter: 2
table after enter: 2
table after exit release: 2
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 14262061
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 7
calls hsa_amd_signal_async_handler 1
calls hsa_amd_memory_pool_allocate 22
calls hsa_amd_memory_pool_free 1
calls hsa_amd_memory_async_copy 6
calls hsa_queue_dispatch 3
calls hsa_amd_svm_attributes_set 0
fault oom dev=0 t=13267431 base=0x0 bytes=32768 attempt=0
fault oom-fallback-zero-copy dev=0 t=13267431 base=0x600000 bytes=32768 attempt=0
decision dma-copy thread=0 dev=0 t=13255431 base=0x600000 bytes=32768
  pages=1 cpu_resident=0 gpu_absent=1 pressure=0 breaker=0 revised=0
  copy_us=120.73066666666668 zero_copy_us=910 eager_us=10001.200000000001
decision zero-copy thread=0 dev=0 t=14220271 base=0x15600000 bytes=32768
  pages=1 cpu_resident=1 gpu_absent=1 pressure=1 breaker=0 revised=0
  copy_us=inf zero_copy_us=10 eager_us=5001.1999999999998
cache_hits 1
breaker trips=1 opened=0 pressure=1
)");
}

TEST(MapTransactionCharacterization, LegacyCopyBreakerPinnedMaps) {
  expect_row({.config = RuntimeConfig::LegacyCopy,
              .faults = std::string{kThreeHangs},
              .watchdog = "100us:recover",
              .warmup_rounds = 3},
             R"(
table after warmup: 1
table after warmup: 1
table after warmup: 1
table after begin tofrom: 2
table after begin always to: 2
table after target: 2
table after update from: 2
table after end always to: 2
table after end tofrom: 1
table after enter: 2
table after enter: 2
table after exit release: 2
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 13911551
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 18
calls hsa_amd_signal_async_handler 4
calls hsa_amd_memory_pool_allocate 23
calls hsa_amd_memory_pool_free 3
calls hsa_amd_memory_async_copy 11
calls hsa_queue_dispatch 9
calls hsa_amd_svm_attributes_set 3
fault kernel_hang dev=0 t=13272781 base=0x0 bytes=0 attempt=0
fault watchdog-trip dev=0 t=13412781 base=0x0 bytes=0 attempt=0
fault watchdog-replay dev=0 t=13413181 base=0x0 bytes=0 attempt=1
fault watchdog-recovered dev=0 t=13423201 base=0x0 bytes=0 attempt=2
fault kernel_hang dev=0 t=13454001 base=0x0 bytes=0 attempt=0
fault watchdog-trip dev=0 t=13594001 base=0x0 bytes=0 attempt=0
fault watchdog-replay dev=0 t=13594401 base=0x0 bytes=0 attempt=1
fault watchdog-recovered dev=0 t=13604421 base=0x0 bytes=0 attempt=2
fault kernel_hang dev=0 t=13635221 base=0x0 bytes=0 attempt=0
fault watchdog-trip dev=0 t=13775221 base=0x0 bytes=0 attempt=0
fault breaker-opened dev=0 t=13775221 base=0x0 bytes=0 attempt=0
fault watchdog-replay dev=0 t=13775621 base=0x0 bytes=0 attempt=1
fault watchdog-recovered dev=0 t=13785641 base=0x0 bytes=0 attempt=2
fault breaker-pinned-map dev=0 t=13799041 base=0x15a00000 bytes=32768 attempt=0
fault breaker-pinned-map dev=0 t=13861011 base=0x15a00000 bytes=32768 attempt=0
fault breaker-pinned-map dev=0 t=13869761 base=0x15e00000 bytes=32768 attempt=0
cache_hits 0
breaker trips=3 opened=1 pressure=0
)");
}

TEST(MapTransactionCharacterization, ImplicitZeroCopyBreakerPinnedMaps) {
  expect_row({.config = RuntimeConfig::ImplicitZeroCopy,
              .faults = std::string{kThreeHangs},
              .watchdog = "100us:recover",
              .warmup_rounds = 3},
             R"(
table after warmup: 1
table after warmup: 1
table after warmup: 1
table after begin tofrom: 1
table after begin always to: 1
table after target: 1
table after update from: 1
table after end always to: 1
table after end tofrom: 1
table after enter: 1
table after enter: 1
table after exit release: 1
table after exit delete: 1
table after target touched: 1
table after target global: 1
makespan_ns 14739261
checksum 8396832
calls hsa_signal_create 0
calls hsa_signal_wait_scacquire 12
calls hsa_amd_signal_async_handler 1
calls hsa_amd_memory_pool_allocate 20
calls hsa_amd_memory_pool_free 0
calls hsa_amd_memory_async_copy 5
calls hsa_queue_dispatch 9
calls hsa_amd_svm_attributes_set 6
fault kernel_hang dev=0 t=13255381 base=0x0 bytes=0 attempt=0
fault watchdog-trip dev=0 t=13395381 base=0x0 bytes=0 attempt=0
fault watchdog-replay dev=0 t=13395781 base=0x0 bytes=0 attempt=1
fault watchdog-recovered dev=0 t=14315901 base=0x0 bytes=0 attempt=2
fault kernel_hang dev=0 t=14317901 base=0x0 bytes=0 attempt=0
fault watchdog-trip dev=0 t=14457901 base=0x0 bytes=0 attempt=0
fault watchdog-replay dev=0 t=14458301 base=0x0 bytes=0 attempt=1
fault watchdog-recovered dev=0 t=14468301 base=0x0 bytes=0 attempt=2
fault kernel_hang dev=0 t=14470301 base=0x0 bytes=0 attempt=0
fault watchdog-trip dev=0 t=14610301 base=0x0 bytes=0 attempt=0
fault breaker-opened dev=0 t=14610301 base=0x0 bytes=0 attempt=0
fault watchdog-replay dev=0 t=14610701 base=0x0 bytes=0 attempt=1
fault watchdog-recovered dev=0 t=14620701 base=0x0 bytes=0 attempt=2
fault breaker-pinned-map dev=0 t=14622701 base=0x14e00000 bytes=32768 attempt=0
fault breaker-pinned-map dev=0 t=14673151 base=0x14e00000 bytes=32768 attempt=0
fault breaker-pinned-map dev=0 t=14674651 base=0x14e00000 bytes=32768 attempt=0
fault breaker-pinned-map dev=0 t=14687271 base=0x14e00000 bytes=32768 attempt=0
fault breaker-pinned-map dev=0 t=14688771 base=0x14e00000 bytes=32768 attempt=0
fault breaker-pinned-map dev=0 t=14697271 base=0x15200000 bytes=32768 attempt=0
cache_hits 0
breaker trips=3 opened=1 pressure=0
)");
}

}  // namespace zc::omp

// google-benchmark microbenchmarks of the simulator's hot data structures:
// real wall-clock performance of the pieces every simulated operation
// touches. These guard the harness's own scalability (full-fidelity Table I
// runs execute millions of simulated HSA calls).

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/mem/memory_system.hpp"
#include "zc/sim/rng.hpp"

namespace {

using namespace zc;
constexpr std::uint64_t kPage = 2ULL << 20;

void BM_Rng_NextU64(benchmark::State& state) {
  sim::Rng rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_Rng_NextU64);

void BM_Jitter_Apply(benchmark::State& state) {
  sim::JitterModel jitter{{.sigma = 0.02}, 7};
  const sim::Duration d = sim::Duration::from_us(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jitter.apply(d));
  }
}
BENCHMARK(BM_Jitter_Apply);

void BM_Timeline_Reserve(benchmark::State& state) {
  sim::ResourceTimeline tl{"gpu", 4};
  sim::TimePoint ready;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tl.reserve(ready, sim::Duration::microseconds(3)));
    ready += sim::Duration::microseconds(1);
  }
}
BENCHMARK(BM_Timeline_Reserve);

void BM_PageTable_InsertRange(benchmark::State& state) {
  const std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t base = 0;
  mem::PageTable pt{kPage};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pt.insert_range(mem::AddrRange{mem::VirtAddr{base}, pages * kPage}));
    base += pages * kPage;
    if (pt.size() > 1'000'000) {
      state.PauseTiming();
      pt.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pages));
}
BENCHMARK(BM_PageTable_InsertRange)->Arg(16)->Arg(1024);

void BM_PageTable_CountAbsent(benchmark::State& state) {
  mem::PageTable pt{kPage};
  const mem::AddrRange range{mem::VirtAddr{0}, 4096 * kPage};
  (void)pt.insert_range(mem::AddrRange{mem::VirtAddr{0}, 2048 * kPage});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.count_absent(range));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PageTable_CountAbsent);

void BM_Tlb_AccessRange_Warm(benchmark::State& state) {
  mem::Tlb tlb{4096, kPage};
  const mem::AddrRange range{mem::VirtAddr{0}, 1024 * kPage};
  (void)tlb.access_range(range);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.access_range(range));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Tlb_AccessRange_Warm);

void BM_Tlb_AccessRange_Thrash(benchmark::State& state) {
  mem::Tlb tlb{512, kPage};
  const mem::AddrRange range{mem::VirtAddr{0}, 4096 * kPage};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.access_range(range));  // fast-path thrash
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Tlb_AccessRange_Thrash);

void BM_PresentTable_Lookup(benchmark::State& state) {
  omp::PresentTable table;
  for (std::uint64_t i = 0; i < 512; ++i) {
    table.insert(mem::AddrRange{mem::VirtAddr{(2 * i + 1) * kPage}, kPage},
                 mem::VirtAddr{(1 << 30) + i * kPage});
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.lookup(mem::VirtAddr{(2 * (i % 512) + 1) * kPage + 64}));
    ++i;
  }
}
BENCHMARK(BM_PresentTable_Lookup);

void BM_Fiber_SwitchPair(benchmark::State& state) {
  // Round-trip cost of suspending to the resumer and back.
  sim::Fiber fiber{[] {
    while (true) {
      sim::Fiber::yield();
    }
  }};
  for (auto _ : state) {
    fiber.resume();
  }
}
BENCHMARK(BM_Fiber_SwitchPair);

void BM_Scheduler_AdvanceInterleaved(benchmark::State& state) {
  // Two threads leapfrogging: every advance forces a context switch.
  const std::int64_t per_run = 4096;
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int t = 0; t < 2; ++t) {
      // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
      // with a false-positive -Wrestrict.
      std::string name = "t";
      name += std::to_string(t);
      sched.spawn(std::move(name), [&sched] {
        for (std::int64_t i = 0; i < per_run; ++i) {
          sched.advance(sim::Duration::microseconds(2));
        }
      });
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * per_run * 2);
}
BENCHMARK(BM_Scheduler_AdvanceInterleaved);

void BM_OffloadRuntime_ZeroCopyTarget(benchmark::State& state) {
  // End-to-end simulated cost of one zero-copy `omp target` (map
  // bookkeeping, dispatch, fault scan, TLB, wait) in real microseconds.
  const std::int64_t per_run = 2048;
  for (auto _ : state) {
    omp::OffloadStack stack{
        omp::OffloadStack::machine_config_for(
            omp::RuntimeConfig::ImplicitZeroCopy),
        omp::OffloadStack::program_for(omp::RuntimeConfig::ImplicitZeroCopy,
                                       {})};
    stack.sched().run_single([&stack] {
      omp::OffloadRuntime& rt = stack.omp();
      omp::HostArray<double> x{rt, 4096, "x"};
      omp::TargetRegion region{.name = "bench",
                               .maps = {x.tofrom()},
                               .compute = sim::Duration::from_us(5),
                               .body = {}};
      for (std::int64_t i = 0; i < per_run; ++i) {
        rt.target(region);
      }
      x.release();
    });
  }
  state.SetItemsProcessed(state.iterations() * per_run);
}
BENCHMARK(BM_OffloadRuntime_ZeroCopyTarget);

}  // namespace

BENCHMARK_MAIN();

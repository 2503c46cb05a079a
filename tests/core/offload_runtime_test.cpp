#include "zc/core/offload_runtime.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "zc/core/cost.hpp"
#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::omp {
namespace {

using namespace zc::sim::literals;
using trace::HsaCall;

std::unique_ptr<OffloadStack> make_stack(RuntimeConfig cfg,
                                         ProgramBinary prog = {}) {
  return std::make_unique<OffloadStack>(OffloadStack::machine_config_for(cfg),
                                        OffloadStack::program_for(cfg, std::move(prog)));
}

constexpr RuntimeConfig kAllConfigs[] = {
    RuntimeConfig::LegacyCopy,
    RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy,
    RuntimeConfig::EagerMaps,
    RuntimeConfig::AdaptiveMaps,
};

/// The Fig. 2 program of the paper: a[i] += b[i] * alpha, with alpha a
/// declare-target global. Returns the final contents of a.
std::vector<double> run_fig2(RuntimeConfig cfg, std::size_t n) {
  ProgramBinary prog;
  prog.globals.push_back(GlobalVar{"alpha", sizeof(double)});
  auto stack = make_stack(cfg, prog);
  std::vector<double> result(n);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> a{rt, n, "a"};
    HostArray<double> b{rt, n, "b"};
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<double>(i);
      b[i] = 2.0 * static_cast<double>(i) + 1.0;
    }
    rt.host_first_touch(a.range());
    rt.host_first_touch(b.range());
    const mem::VirtAddr alpha = rt.global_host_addr("alpha");
    *stack->memory().space().translate_as<double>(alpha) = 0.5;

    const mem::VirtAddr av = a.addr();
    const mem::VirtAddr bv = b.addr();
    TargetRegion region{
        .name = "saxpy",
        .maps = {a.tofrom(), b.to(),
                 MapEntry::always_to(alpha, sizeof(double))},
        .compute = stream_kernel_cost(stack->machine(), 3 * n * sizeof(double)),
        .body =
            [av, bv, alpha, n](hsa::KernelContext& ctx, const ArgTranslator& tr) {
              double* ad = ctx.ptr<double>(tr.device(av));
              const double* bd = ctx.ptr<double>(tr.device(bv));
              const double al = *ctx.ptr<double>(tr.device(alpha));
              for (std::size_t i = 0; i < n; ++i) {
                ad[i] += bd[i] * al;
              }
            },
    };
    rt.target(region);
    for (std::size_t i = 0; i < n; ++i) {
      result[i] = a[i];
    }
  });
  return result;
}

TEST(HostArray, IndexPastTheEndThrows) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->sched().run_single([&] {
    HostArray<double> a{stack->omp(), 8, "a"};
    a[7] = 1.0;
    EXPECT_DOUBLE_EQ(a[7], 1.0);
    EXPECT_THROW((void)a[8], std::out_of_range);
    // 2^61 * sizeof(double) wraps to 0: must not alias a[0].
    EXPECT_THROW((void)a[std::size_t{1} << 61], std::out_of_range);
    a.release();
  });
}

TEST(OffloadRuntime, Fig2ResultsIdenticalAcrossAllConfigurations) {
  const std::size_t n = 1024;
  const std::vector<double> reference = run_fig2(RuntimeConfig::LegacyCopy, n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(reference[i],
                     static_cast<double>(i) + (2.0 * i + 1.0) * 0.5);
  }
  for (RuntimeConfig cfg : kAllConfigs) {
    EXPECT_EQ(run_fig2(cfg, n), reference) << to_string(cfg);
  }
}

TEST(OffloadRuntime, ConfigResolvedFromEnvironmentAtConstruction) {
  for (RuntimeConfig cfg : kAllConfigs) {
    auto stack = make_stack(cfg);
    EXPECT_EQ(stack->omp().config(), cfg);
  }
}

class PerConfig : public ::testing::TestWithParam<RuntimeConfig> {};

INSTANTIATE_TEST_SUITE_P(AllConfigs, PerConfig,
                         ::testing::ValuesIn(kAllConfigs),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case RuntimeConfig::LegacyCopy:
                               return "LegacyCopy";
                             case RuntimeConfig::UnifiedSharedMemory:
                               return "UnifiedSharedMemory";
                             case RuntimeConfig::ImplicitZeroCopy:
                               return "ImplicitZeroCopy";
                             case RuntimeConfig::EagerMaps:
                               return "EagerMaps";
                             case RuntimeConfig::AdaptiveMaps:
                               return "AdaptiveMaps";
                           }
                           return "Unknown";
                         });

TEST_P(PerConfig, NestedDataRegionsCopyOutOnlyAtLastRelease) {
  auto stack = make_stack(GetParam());
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 16, "x"};
    for (int i = 0; i < 16; ++i) {
      x[i] = 1.0;
    }
    const mem::VirtAddr xv = x.addr();
    const MapEntry outer = x.tofrom();
    rt.target_data_begin({&outer, 1});
    TargetRegion region{
        .name = "incr",
        .maps = {x.tofrom()},
        .compute = 1_us,
        .body = [xv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          double* xd = ctx.ptr<double>(tr.device(xv));
          for (int i = 0; i < 16; ++i) {
            xd[i] += 1.0;
          }
        },
    };
    rt.target(region);
    if (!rt.zero_copy()) {
      // Inner tofrom must NOT have copied back (refcount still held).
      EXPECT_DOUBLE_EQ(x[0], 1.0);
    }
    rt.target_data_end({&outer, 1});
    EXPECT_DOUBLE_EQ(x[0], 2.0);  // visible after last release everywhere
  });
}

TEST_P(PerConfig, AlwaysModifierForcesRefresh) {
  auto stack = make_stack(GetParam());
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 8, "x"};
    x[0] = 1.0;
    const mem::VirtAddr xv = x.addr();
    const MapEntry outer = x.to();
    rt.target_data_begin({&outer, 1});
    x[0] = 42.0;  // host update after the initial transfer
    double seen = 0.0;
    TargetRegion region{
        .name = "read",
        .maps = {MapEntry::always_to(x.addr(), x.bytes())},
        .compute = 1_us,
        .body = [xv, &seen](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          seen = *ctx.ptr<double>(tr.device(xv));
        },
    };
    rt.target(region);
    EXPECT_DOUBLE_EQ(seen, 42.0);  // always,to refreshed the device view
    rt.target_data_end({&outer, 1});
  });
}

TEST_P(PerConfig, WithoutAlwaysCopyConfigSeesStaleDeviceCopy) {
  auto stack = make_stack(GetParam());
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 8, "x"};
    x[0] = 1.0;
    const mem::VirtAddr xv = x.addr();
    const MapEntry outer = x.to();
    rt.target_data_begin({&outer, 1});
    x[0] = 42.0;
    double seen = 0.0;
    TargetRegion region{
        .name = "read",
        .maps = {x.to()},
        .compute = 1_us,
        .body = [xv, &seen](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          seen = *ctx.ptr<double>(tr.device(xv));
        },
    };
    rt.target(region);
    if (rt.zero_copy()) {
      EXPECT_DOUBLE_EQ(seen, 42.0);  // one storage: host update visible
    } else {
      EXPECT_DOUBLE_EQ(seen, 1.0);  // separate device copy is stale
    }
    rt.target_data_end({&outer, 1});
  });
}

TEST(OffloadRuntimeCopy, UnmappedKernelArgumentThrows) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  EXPECT_THROW(
      stack->sched().run_single([&] {
        OffloadRuntime& rt = stack->omp();
        HostArray<double> x{rt, 8, "x"};
        HostArray<double> y{rt, 8, "y"};
        const mem::VirtAddr yv = y.addr();
        TargetRegion region{
            .name = "oops",
            .maps = {x.tofrom()},  // y is never mapped
            .compute = 1_us,
            .body = [yv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
              (void)ctx.ptr<double>(tr.device(yv));
            },
        };
        rt.target(region);
      }),
      std::invalid_argument);
}

TEST(OffloadRuntimeCopy, DataEndOfUnmappedRangeThrows) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 HostArray<double> x{rt, 8, "x"};
                 const MapEntry entry = x.from();
                 rt.target_data_end({&entry, 1});
               }),
               MappingError);
}

TEST(OffloadRuntimeCopy, MapsAllocateCopyAndFree) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 1 << 16, "x"};
    rt.target_data_begin({});  // trigger lazy image-load/thread init
    const auto allocs_before =
        stack->hsa().stats().count(HsaCall::MemoryPoolAllocate);
    TargetRegion region{.name = "k",
                        .maps = {x.tofrom()},
                        .compute = 5_us,
                        .body = {}};
    rt.target(region);
    const auto& stats = stack->hsa().stats();
    EXPECT_EQ(stats.count(HsaCall::MemoryPoolAllocate), allocs_before + 1);
    EXPECT_EQ(stats.count(HsaCall::MemoryPoolFree), 1u);
    // tofrom: one h2d and one d2h copy.
    EXPECT_EQ(stats.count(HsaCall::MemoryAsyncCopy),
              static_cast<std::uint64_t>(OffloadRuntime::kImageLoadCopies) + 2);
    // The d2h copy registered an async handler.
    EXPECT_EQ(stats.count(HsaCall::SignalAsyncHandler), 1u);
    EXPECT_GT(stack->hsa().ledger().mm_copy(), sim::Duration::zero());
  });
}

TEST(OffloadRuntimeZeroCopy, MapsPerformNoStorageOperations) {
  for (RuntimeConfig cfg : {RuntimeConfig::UnifiedSharedMemory,
                            RuntimeConfig::ImplicitZeroCopy}) {
    auto stack = make_stack(cfg);
    stack->sched().run_single([&] {
      OffloadRuntime& rt = stack->omp();
      HostArray<double> x{rt, 1 << 16, "x"};
      rt.target_data_begin({});  // trigger lazy image-load/thread init
      const auto allocs_init =
          stack->hsa().stats().count(HsaCall::MemoryPoolAllocate);
      const auto copies_init =
          stack->hsa().stats().count(HsaCall::MemoryAsyncCopy);
      TargetRegion region{.name = "k",
                          .maps = {x.tofrom()},
                          .compute = 5_us,
                          .body = {}};
      rt.target(region);
      EXPECT_EQ(stack->hsa().stats().count(HsaCall::MemoryPoolAllocate),
                allocs_init)
          << to_string(cfg);
      EXPECT_EQ(stack->hsa().stats().count(HsaCall::MemoryAsyncCopy),
                copies_init)
          << to_string(cfg);
      EXPECT_EQ(stack->hsa().ledger().mm(), sim::Duration::zero());
    });
  }
}

TEST(OffloadRuntimeZeroCopy, FirstKernelFaultsSecondDoesNot) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->hsa().set_keep_records(true);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const std::uint64_t page = stack->machine().page_bytes();
    HostArray<std::byte> x{rt, static_cast<std::size_t>(8 * page), "x"};
    TargetRegion region{.name = "k",
                        .maps = {x.tofrom()},
                        .compute = 5_us,
                        .body = {}};
    rt.target(region);
    rt.target(region);
  });
  const auto& recs = stack->hsa().kernel_records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].page_faults, 8u);
  EXPECT_EQ(recs[1].page_faults, 0u);
  EXPECT_GT(stack->hsa().ledger().mi(), sim::Duration::zero());
  EXPECT_EQ(stack->hsa().ledger().mm(), sim::Duration::zero());
}

TEST(OffloadRuntimeEager, PrefaultsOnEveryMapAndKernelsNeverFault) {
  auto stack = make_stack(RuntimeConfig::EagerMaps);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const std::uint64_t page = stack->machine().page_bytes();
    HostArray<std::byte> x{rt, static_cast<std::size_t>(8 * page), "x"};
    TargetRegion region{.name = "k",
                        .maps = {x.tofrom()},
                        .compute = 5_us,
                        .body = {}};
    rt.target(region);
    rt.target(region);
    rt.target(region);
  });
  const auto& stats = stack->hsa().stats();
  EXPECT_EQ(stats.count(HsaCall::SvmAttributesSet), 3u);  // one per map begin
  EXPECT_EQ(stack->hsa().device_counters()[0].page_faults, 0u);
  EXPECT_GT(stack->hsa().ledger().mm_prefault(), sim::Duration::zero());
  EXPECT_EQ(stack->hsa().ledger().mi(), sim::Duration::zero());
}

TEST(OffloadRuntimeEager, WorksWithXnackDisabled) {
  apu::Machine::Config mc =
      OffloadStack::machine_config_for(RuntimeConfig::EagerMaps);
  mc.env.hsa_xnack = false;
  OffloadStack stack{mc, {}};
  ASSERT_EQ(stack.omp().config(), RuntimeConfig::EagerMaps);
  stack.sched().run_single([&] {
    OffloadRuntime& rt = stack.omp();
    HostArray<double> x{rt, 4096, "x"};
    TargetRegion region{.name = "k",
                        .maps = {x.tofrom()},
                        .compute = 5_us,
                        .body = {}};
    rt.target(region);  // prefault makes XNACK unnecessary
  });
  EXPECT_EQ(stack.hsa().device_counters()[0].page_faults, 0u);
}

TEST(OffloadRuntimeGlobals, UsmIndirectionSeesHostUpdatesWithoutMapping) {
  ProgramBinary prog;
  prog.globals.push_back(GlobalVar{"g", sizeof(double)});
  auto stack = make_stack(RuntimeConfig::UnifiedSharedMemory, prog);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const mem::VirtAddr g = rt.global_host_addr("g");
    double* gh = stack->memory().space().translate_as<double>(g);
    *gh = 7.0;
    double seen = 0.0;
    TargetRegion region{
        .name = "readg",
        .maps = {MapEntry::to(g, sizeof(double))},
        .compute = 1_us,
        .body = [g, &seen](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          seen = *ctx.ptr<double>(tr.device(g));
        },
    };
    rt.target(region);
    EXPECT_DOUBLE_EQ(seen, 7.0);
    *gh = 9.0;
    rt.target(region);  // no always needed: double indirection to host
    EXPECT_DOUBLE_EQ(seen, 9.0);
  });
}

TEST(OffloadRuntimeGlobals, ImplicitZeroCopyKeepsDeviceCopyOfGlobals) {
  ProgramBinary prog;
  prog.globals.push_back(GlobalVar{"g", sizeof(double)});
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy, prog);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    const mem::VirtAddr g = rt.global_host_addr("g");
    double* gh = stack->memory().space().translate_as<double>(g);
    *gh = 7.0;
    double seen = 0.0;
    TargetRegion plain{
        .name = "readg",
        .maps = {MapEntry::to(g, sizeof(double))},
        .compute = 1_us,
        .body = [g, &seen](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          seen = *ctx.ptr<double>(tr.device(g));
        },
    };
    TargetRegion always{plain};
    always.maps = {MapEntry::always_to(g, sizeof(double))};

    rt.target(always);  // sync the device copy
    EXPECT_DOUBLE_EQ(seen, 7.0);
    *gh = 9.0;
    rt.target(plain);  // no always: device copy is stale (Copy semantics)
    EXPECT_DOUBLE_EQ(seen, 7.0);
    rt.target(always);  // always,to: system-to-system transfer issued
    EXPECT_DOUBLE_EQ(seen, 9.0);
  });
  // Mapping the global issued real DMA copies even under zero-copy.
  EXPECT_GT(stack->hsa().ledger().mm_copy(), sim::Duration::zero());
}

TEST(OffloadRuntimeGlobals, UnknownGlobalNameThrows) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  EXPECT_THROW(stack->sched().run_single(
                   [&] { (void)stack->omp().global_host_addr("nope"); }),
               OffloadError);
}

TEST(OffloadRuntimeInit, ImageLoadAndThreadInitAllocCounts) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  auto& sched = stack->sched();
  constexpr int kThreads = 4;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn("omp-" + std::to_string(t), [&] {
      OffloadRuntime& rt = stack->omp();
      HostArray<double> x{rt, 64, "x"};
      TargetRegion region{.name = "k",
                          .maps = {x.tofrom()},
                          .compute = 1_us,
                          .body = {}};
      rt.target(region);
      x.release();
    });
  }
  sched.run();
  const auto& stats = stack->hsa().stats();
  // Zero-copy: the only pool allocations are image load + per-thread init.
  EXPECT_EQ(stats.count(HsaCall::MemoryPoolAllocate),
            static_cast<std::uint64_t>(OffloadRuntime::kImageLoadAllocs +
                                       kThreads * OffloadRuntime::kThreadInitAllocs));
  EXPECT_EQ(stats.count(HsaCall::MemoryAsyncCopy),
            static_cast<std::uint64_t>(OffloadRuntime::kImageLoadCopies));
  // Init work is excluded from the steady-state overhead ledger.
  EXPECT_EQ(stack->hsa().ledger().mm(), sim::Duration::zero());
}

TEST(OffloadRuntimeUpdate, TargetUpdateMovesDataUnderCopy) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 8, "x"};
    x[0] = 1.0;
    const mem::VirtAddr xv = x.addr();
    const MapEntry outer = x.to();
    rt.target_data_begin({&outer, 1});
    x[0] = 5.0;
    rt.target_update_to(MapEntry::to(x.addr(), x.bytes()));
    double seen = 0.0;
    TargetRegion region{
        .name = "read",
        .maps = {x.to()},
        .compute = 1_us,
        .body = [xv, &seen](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          seen = *ctx.ptr<double>(tr.device(xv));
        },
    };
    rt.target(region);
    EXPECT_DOUBLE_EQ(seen, 5.0);

    // Device-side write then update from.
    TargetRegion write{
        .name = "write",
        .maps = {x.to()},
        .compute = 1_us,
        .body = [xv](hsa::KernelContext& ctx, const ArgTranslator& tr) {
          *ctx.ptr<double>(tr.device(xv)) = 11.0;
        },
    };
    rt.target(write);
    EXPECT_DOUBLE_EQ(x[0], 5.0);  // not yet visible
    rt.target_update_from(MapEntry::from(x.addr(), x.bytes()));
    EXPECT_DOUBLE_EQ(x[0], 11.0);
    rt.target_data_end({&outer, 1});
  });
}

TEST(OffloadRuntimeUpdate, UpdateOfUnmappedRangeThrowsUnderCopy) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 HostArray<double> x{rt, 8, "x"};
                 rt.target_update_to(MapEntry::to(x.addr(), x.bytes()));
               }),
               MappingError);
}

TEST(OffloadRuntime, ZeroSizeMapRejected) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 HostArray<double> x{rt, 8, "x"};
                 const MapEntry bad{x.addr(), 0, MapType::To, false};
                 rt.target_data_begin({&bad, 1});
               }),
               OffloadError);
}

TEST(OffloadRuntime, HostArrayMoveAndRelease) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<int> a{rt, 16, "a"};
    a[3] = 42;
    HostArray<int> b{std::move(a)};
    EXPECT_EQ(b[3], 42);
    EXPECT_TRUE(a.addr().is_null());  // NOLINT(bugprone-use-after-move)
    const std::size_t live = stack->memory().space().live_allocations();
    b.release();
    EXPECT_EQ(stack->memory().space().live_allocations(), live - 1);
  });
}

TEST(OffloadRuntime, CopyConfigRoundTripsThroughSeparateDeviceStorage) {
  // End-to-end Legacy Copy dataflow check: host -> device copy -> kernel
  // mutation -> device -> host, with the device address differing from the
  // host address.
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 4, "x"};
    x[0] = 1.5;
    const mem::VirtAddr xv = x.addr();
    mem::VirtAddr dev_seen;
    TargetRegion region{
        .name = "probe",
        .maps = {x.tofrom()},
        .compute = 1_us,
        .body =
            [xv, &dev_seen](hsa::KernelContext& ctx, const ArgTranslator& tr) {
              dev_seen = tr.device(xv);
              ctx.ptr<double>(dev_seen)[0] *= 2.0;
            },
    };
    rt.target(region);
    EXPECT_NE(dev_seen, xv);
    EXPECT_DOUBLE_EQ(x[0], 3.0);
  });
}

TEST(OffloadRuntime, ZeroCopyKernelArgsAreHostPointers) {
  for (RuntimeConfig cfg : {RuntimeConfig::UnifiedSharedMemory,
                            RuntimeConfig::ImplicitZeroCopy,
                            RuntimeConfig::EagerMaps}) {
    auto stack = make_stack(cfg);
    stack->sched().run_single([&] {
      OffloadRuntime& rt = stack->omp();
      HostArray<double> x{rt, 4, "x"};
      const mem::VirtAddr xv = x.addr();
      mem::VirtAddr dev_seen;
      TargetRegion region{
          .name = "probe",
          .maps = {x.tofrom()},
          .compute = 1_us,
          .body =
              [xv, &dev_seen](hsa::KernelContext& ctx, const ArgTranslator& tr) {
                dev_seen = tr.device(xv);
                (void)ctx;
              },
      };
      rt.target(region);
      EXPECT_EQ(dev_seen, xv) << to_string(cfg);
    });
  }
}

TEST(OffloadRuntime, DuplicateMapEntriesOnOneConstructRejected) {
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  EXPECT_THROW(stack->sched().run_single([&] {
                 OffloadRuntime& rt = stack->omp();
                 HostArray<double> x{rt, 8, "x"};
                 const std::vector<MapEntry> dup{x.tofrom(), x.tofrom()};
                 rt.target_data_begin(dup);
               }),
               MappingError);
}

TEST(OffloadRuntime, PartiallyOverlappingMapEntriesRejected) {
  auto stack = make_stack(RuntimeConfig::ImplicitZeroCopy);
  EXPECT_THROW(
      stack->sched().run_single([&] {
        OffloadRuntime& rt = stack->omp();
        HostArray<double> x{rt, 64, "x"};
        const std::vector<MapEntry> overlap{
            MapEntry::to(x.addr(), 32 * sizeof(double)),
            MapEntry::to(x.addr() + 16 * sizeof(double), 32 * sizeof(double))};
        rt.target_data_begin(overlap);
      }),
      MappingError);
}

TEST(OffloadRuntimeInit, ConcurrentFirstCallsSeeFullyLoadedImage) {
  // Regression: two threads racing into their first runtime call must both
  // observe a complete image (globals registered, device copies pinned) —
  // the image load yields mid-way and a plain flag would expose a
  // half-loaded state to the second thread.
  ProgramBinary prog;
  prog.globals.push_back(GlobalVar{"g", sizeof(double)});
  auto stack = make_stack(RuntimeConfig::LegacyCopy, prog);
  auto& sched = stack->sched();
  int ok = 0;
  for (int t = 0; t < 4; ++t) {
    sched.spawn("t" + std::to_string(t), [&stack, &ok] {
      OffloadRuntime& rt = stack->omp();
      const mem::VirtAddr g = rt.global_host_addr("g");
      TargetRegion region{
          .name = "useg",
          .maps = {MapEntry::always_to(g, sizeof(double))},
          .compute = 1_us,
          .body = {}};
      rt.target(region);
      ++ok;
    });
  }
  sched.run();
  EXPECT_EQ(ok, 4);
  // Exactly one pinned entry for the global on the device table.
  EXPECT_EQ(stack->omp().present_table().size(), 1u);
}

TEST(OffloadRuntimeConcurrency, ConcurrentDataEndsOnSharedMapping) {
  // Regression for the unsynchronized PresentTable access in end_copy_one:
  // one thread releases a mapping while another decides copy-back on the
  // same range. The lookup, refcount read, and copy-back decision must be
  // one transaction under the mapping lock; without it the lock-discipline
  // checker (GuardedBy on the tables) fails this test deterministically —
  // on any interleaving, not just an unlucky one.
  auto stack = make_stack(RuntimeConfig::LegacyCopy);
  auto& sched = stack->sched();
  OffloadRuntime& rt = stack->omp();
  constexpr std::size_t n = 64;
  std::optional<HostArray<double>> x;

  // Phase 1: map the range twice (refcount 2); the device copy captures the
  // original values, then the host view is clobbered so that only a
  // copy-back can restore it.
  sched.spawn("setup", [&] {
    x.emplace(rt, n, "x");
    for (std::size_t i = 0; i < n; ++i) {
      (*x)[i] = static_cast<double>(i);
    }
    const MapEntry enter = MapEntry::to(x->addr(), x->bytes());
    rt.target_data_begin({&enter, 1});
    rt.target_data_begin({&enter, 1});
    for (std::size_t i = 0; i < n; ++i) {
      (*x)[i] = -1.0;
    }
  });
  sched.run();
  const auto frees_before =
      stack->hsa().stats().count(HsaCall::MemoryPoolFree);

  // Phase 2: two threads race their target_data_end on the same range.
  // `always,from` forces each end through the copy-back decision path while
  // the other may be mid-release.
  for (int t = 0; t < 2; ++t) {
    sched.spawn("end-" + std::to_string(t), [&] {
      MapEntry leave = MapEntry::from(x->addr(), x->bytes());
      leave.always = true;
      rt.target_data_end({&leave, 1});
    });
  }
  sched.run();

  // Both references released: exactly one device-storage free, empty table,
  // and the copy-back restored the original values.
  EXPECT_EQ(stack->hsa().stats().count(HsaCall::MemoryPoolFree),
            frees_before + 1);
  EXPECT_EQ(rt.present_table().size(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ((*x)[i], static_cast<double>(i));
  }

  sched.spawn("cleanup", [&] { x->release(); });
  sched.run();
}

TEST(OffloadRuntimeConcurrency, ConcurrentDataEndsUnderStressSeeds) {
  // The same race surface as above, swept across stress seeds: the checker
  // plus the seeded scheduler must agree that every perturbed interleaving
  // of concurrent data-ends is correctly locked and converges to the same
  // final state.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto stack = make_stack(RuntimeConfig::LegacyCopy);
    auto& sched = stack->sched();
    sched.enable_stress(seed);
    OffloadRuntime& rt = stack->omp();
    constexpr std::size_t n = 32;
    std::optional<HostArray<double>> x;
    sim::Latch mapped;  // ends must not start before setup has mapped
    sched.spawn("setup", [&] {
      x.emplace(rt, n, "x");
      for (std::size_t i = 0; i < n; ++i) {
        (*x)[i] = static_cast<double>(i);
      }
      const MapEntry enter = MapEntry::to(x->addr(), x->bytes());
      rt.target_data_begin({&enter, 1});
      rt.target_data_begin({&enter, 1});
      for (std::size_t i = 0; i < n; ++i) {
        (*x)[i] = -1.0;
      }
      mapped.set(sched);
    });
    for (int t = 0; t < 2; ++t) {
      sched.spawn("end-" + std::to_string(t), [&] {
        mapped.wait(sched);
        MapEntry leave = MapEntry::from(x->addr(), x->bytes());
        leave.always = true;
        rt.target_data_end({&leave, 1});
      });
    }
    sched.run();
    EXPECT_EQ(rt.present_table().size(), 0u) << "seed=" << seed;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ((*x)[i], static_cast<double>(i)) << "seed=" << seed;
    }
    sched.spawn("cleanup", [&] { x->release(); });
    sched.run();
  }
}

}  // namespace
}  // namespace zc::omp

// Characterization of MemorySystem's page-range state. One scripted
// sequence drives every mutation of the CPU and GPU page tables, the DDR
// spill set and the split-span set: pool and placed OS allocations, host
// touch, partial fault-in, prefault, partial and whole migration, reclaim,
// THP splits, a collapsing prefault and frees. After each step the test
// pins the call's outcome and every range query, at 4 KB pages and at 2 MB
// pages under THP=dynamic. A rebuild of the range state must reproduce
// the expected strings exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "zc/mem/memory_system.hpp"

namespace zc::mem {
namespace {

apu::Machine::Config pressured(apu::ThpMode thp) {
  apu::Machine::Config c;
  c.topology.sockets = 2;
  c.env.ompx_apu_pressure = apu::PressureMode::Watermarks;
  c.env.ompx_apu_automigrate.enabled = true;  // turns counter sampling on
  c.env.thp = thp;
  return c;
}

// Recorded at 4 KB pages (THP=off) and at 2 MB pages (THP=dynamic). Each
// entry is "<step>: <outcome>", then per range of `ranges_` the GPU-absent
// pages on sockets 0/1 and the CPU-resident, DDR-spilled and split pages,
// then HBM used on sockets 0/1 and DDR used, in pages.
const std::vector<std::string> kSmall4K = {
    "alloc: - | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=8/8 cpu=0 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | hbm=0/4 ddr_used=0",
    "touch_ft: 5 | gpu=8/8 cpu=5 ddr=0 split=0"
    " | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=3 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | hbm=0/9 ddr_used=0",
    "touch_il: 8 | gpu=8/8 cpu=5 ddr=0 split=0"
    " | gpu=8/8 cpu=8 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=3 ddr=0 split=0 | gpu=4/4 cpu=4 ddr=0 split=0"
    " | hbm=4/13 ddr_used=0",
    "fault_ft: faulted=4 non_resident=1 promoted=0 split_faulted=0"
    " | gpu=4/8 cpu=6 ddr=0 split=0 | gpu=8/8 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=4 ddr=0 split=0 | hbm=4/14 ddr_used=0",
    "prefault_ft: inserted=4 materialized=2 present=4 promoted=0 collapsed=0"
    " | gpu=0/8 cpu=8 ddr=0 split=0 | gpu=8/8 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=4 ddr=0 split=0 | hbm=4/16 ddr_used=0",
    "prefault_il: inserted=8 materialized=0 present=0 promoted=0 collapsed=0"
    " | gpu=0/8 cpu=8 ddr=0 split=0 | gpu=0/8 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | gpu=0/4 cpu=4 ddr=0 split=0 | hbm=4/16 ddr_used=0",
    "migrate_part: 2 | gpu=2/8 cpu=8 ddr=0 split=0"
    " | gpu=0/8 cpu=8 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=1/4 cpu=4 ddr=0 split=0 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | hbm=6/14 ddr_used=0",
    "migrate_whole: 8 | gpu=2/8 cpu=8 ddr=0 split=0"
    " | gpu=8/8 cpu=8 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=1/4 cpu=4 ddr=0 split=0 | gpu=4/4 cpu=4 ddr=0 split=0"
    " | hbm=2/18 ddr_used=0",
    "reclaim: evicted=5 split=0 | gpu=3/8 cpu=8 ddr=1 split=0"
    " | gpu=8/8 cpu=8 ddr=4 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=1/4 cpu=4 ddr=0 split=0 | gpu=4/4 cpu=4 ddr=2 split=0"
    " | hbm=2/13 ddr_used=5",
    "split: 0 | gpu=3/8 cpu=8 ddr=1 split=0 | gpu=8/8 cpu=8 ddr=4 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=1/4 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=4 ddr=2 split=0 | hbm=2/13 ddr_used=5",
    "fault_il: faulted=4 non_resident=0 promoted=2 split_faulted=0"
    " | gpu=3/8 cpu=8 ddr=1 split=0 | gpu=8/4 cpu=8 ddr=2 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=1/4 cpu=4 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | hbm=2/15 ddr_used=3",
    "collapse: inserted=4 materialized=0 present=4 promoted=2 collapsed=0"
    " | gpu=3/8 cpu=8 ddr=1 split=0 | gpu=8/0 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=1/4 cpu=4 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | hbm=2/17 ddr_used=1",
    "free_ft: - | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=8/0 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | hbm=0/12 ddr_used=0",
    "free_pool: - | gpu=8/8 cpu=0 ddr=0 split=0"
    " | gpu=8/0 cpu=8 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | hbm=0/8 ddr_used=0",
    "free_il: - | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=8/8 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | hbm=0/0 ddr_used=0",
};

const std::vector<std::string> kHuge2MDynamic = {
    "alloc: - | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=8/8 cpu=0 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | hbm=0/4 ddr_used=0",
    "touch_ft: 5 | gpu=8/8 cpu=5 ddr=0 split=0"
    " | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=3 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | hbm=0/9 ddr_used=0",
    "touch_il: 8 | gpu=8/8 cpu=5 ddr=0 split=0"
    " | gpu=8/8 cpu=8 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=3 ddr=0 split=0 | gpu=4/4 cpu=4 ddr=0 split=0"
    " | hbm=4/13 ddr_used=0",
    "fault_ft: faulted=4 non_resident=1 promoted=0 split_faulted=0"
    " | gpu=4/8 cpu=6 ddr=0 split=0 | gpu=8/8 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=4 ddr=0 split=0 | hbm=4/14 ddr_used=0",
    "prefault_ft: inserted=4 materialized=2 present=4 promoted=0 collapsed=0"
    " | gpu=0/8 cpu=8 ddr=0 split=0 | gpu=8/8 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | gpu=4/4 cpu=4 ddr=0 split=0 | hbm=4/16 ddr_used=0",
    "prefault_il: inserted=8 materialized=0 present=0 promoted=0 collapsed=0"
    " | gpu=0/8 cpu=8 ddr=0 split=0 | gpu=0/8 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | gpu=0/4 cpu=4 ddr=0 split=0 | hbm=4/16 ddr_used=0",
    "migrate_part: 2 | gpu=2/8 cpu=8 ddr=0 split=2"
    " | gpu=0/8 cpu=8 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=1/4 cpu=4 ddr=0 split=1 | gpu=0/4 cpu=4 ddr=0 split=0"
    " | hbm=6/14 ddr_used=0",
    "migrate_whole: 8 | gpu=2/8 cpu=8 ddr=0 split=2"
    " | gpu=8/8 cpu=8 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=1/4 cpu=4 ddr=0 split=1 | gpu=4/4 cpu=4 ddr=0 split=0"
    " | hbm=2/18 ddr_used=0",
    "reclaim: evicted=5 split=5 | gpu=3/8 cpu=8 ddr=1 split=3"
    " | gpu=8/8 cpu=8 ddr=4 split=4 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | gpu=1/4 cpu=4 ddr=0 split=1 | gpu=4/4 cpu=4 ddr=2 split=2"
    " | hbm=2/13 ddr_used=5",
    "split: 4 | gpu=3/8 cpu=8 ddr=1 split=3 | gpu=8/8 cpu=8 ddr=4 split=8"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=1/4 cpu=4 ddr=0 split=1"
    " | gpu=4/4 cpu=4 ddr=2 split=4 | hbm=2/13 ddr_used=5",
    "fault_il: faulted=4 non_resident=0 promoted=2 split_faulted=4"
    " | gpu=3/8 cpu=8 ddr=1 split=3 | gpu=8/4 cpu=8 ddr=2 split=8"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=1/4 cpu=4 ddr=0 split=1"
    " | gpu=4/0 cpu=4 ddr=0 split=4 | hbm=2/15 ddr_used=3",
    "collapse: inserted=4 materialized=0 present=4 promoted=2 collapsed=8"
    " | gpu=3/8 cpu=8 ddr=1 split=3 | gpu=8/0 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=1/4 cpu=4 ddr=0 split=1"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | hbm=2/17 ddr_used=1",
    "free_ft: - | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=8/0 cpu=8 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/0 cpu=4 ddr=0 split=0 | hbm=0/12 ddr_used=0",
    "free_pool: - | gpu=8/8 cpu=0 ddr=0 split=0"
    " | gpu=8/0 cpu=8 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | gpu=4/0 cpu=4 ddr=0 split=0"
    " | hbm=0/8 ddr_used=0",
    "free_il: - | gpu=8/8 cpu=0 ddr=0 split=0 | gpu=8/8 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | gpu=4/4 cpu=0 ddr=0 split=0"
    " | gpu=4/4 cpu=0 ddr=0 split=0 | hbm=0/0 ddr_used=0",
};

std::string str(const FaultOutcome& o) {
  return "faulted=" + std::to_string(o.faulted) +
         " non_resident=" + std::to_string(o.non_resident) +
         " promoted=" + std::to_string(o.promoted) +
         " split_faulted=" + std::to_string(o.split_faulted);
}

std::string str(const PrefaultOutcome& o) {
  return "inserted=" + std::to_string(o.inserted) +
         " materialized=" + std::to_string(o.materialized) +
         " present=" + std::to_string(o.present) +
         " promoted=" + std::to_string(o.promoted) +
         " collapsed=" + std::to_string(o.collapsed);
}

std::string str(const ReclaimOutcome& o) {
  return "evicted=" + std::to_string(o.evicted) +
         " split=" + std::to_string(o.split);
}

class PageStateCharacterization
    : public ::testing::TestWithParam<apu::ThpMode> {
 protected:
  AddrRange pages(const Allocation& a, std::uint64_t first,
                  std::uint64_t count) const {
    return AddrRange{a.base() + first * page_, count * page_};
  }

  /// The outcome of the step plus every range query over `ranges_`, with
  /// byte counters in pages, after checking the HBM books.
  std::string snapshot(const std::string& outcome) const {
    mem_.check_accounting();
    std::string s = outcome;
    for (const AddrRange& r : ranges_) {
      s += " | gpu=" + std::to_string(mem_.gpu_absent_pages(r, 0)) + "/" +
           std::to_string(mem_.gpu_absent_pages(r, 1)) +
           " cpu=" + std::to_string(mem_.cpu_resident_pages(r)) +
           " ddr=" + std::to_string(mem_.ddr_pages(r)) +
           " split=" + std::to_string(mem_.split_spans(r));
    }
    return s + " | hbm=" + std::to_string(mem_.hbm_used(0) / page_) + "/" +
           std::to_string(mem_.hbm_used(1) / page_) +
           " ddr_used=" + std::to_string(mem_.ddr_used() / page_);
  }

  /// The scripted sequence; one snapshot per step.
  std::vector<std::string> run_script() {
    std::vector<std::string> out;
    auto step = [&](const std::string& name, const std::string& outcome) {
      out.push_back(name + ": " + snapshot(outcome));
    };
    Allocation& pool = mem_.pool_alloc(4 * page_, "pool", /*socket=*/1);
    Allocation& ft = mem_.os_alloc_placed(8 * page_, "ft",
                                          Placement::FirstTouch, 0);
    Allocation& il = mem_.os_alloc_placed(8 * page_, "il",
                                          Placement::Interleaved, 0);
    const VirtAddr pool_base = pool.base();
    const VirtAddr ft_base = ft.base();
    const VirtAddr il_base = il.base();
    ranges_ = {ft.range(), il.range(), pool.range(), pages(ft, 2, 4),
               pages(il, 2, 4)};
    step("alloc", "-");
    step("touch_ft",
         std::to_string(mem_.host_touch(pages(ft, 0, 5), /*socket=*/1)));
    step("touch_il", std::to_string(mem_.host_touch(il.range(), 0)));
    step("fault_ft", str(mem_.gpu_fault_in(pages(ft, 2, 4), 0)));
    step("prefault_ft", str(mem_.prefault(ft.range(), 0)));
    step("prefault_il", str(mem_.prefault(il.range(), 0)));
    step("migrate_part",
         std::to_string(mem_.migrate_pages(pages(ft, 1, 2), 0)));
    step("migrate_whole", std::to_string(mem_.migrate_pages(il.range(), 1)));
    step("reclaim", str(mem_.reclaim(1, 0, /*max_pages=*/5)));
    step("split", std::to_string(mem_.thp_split_range(il.range())));
    step("fault_il", str(mem_.gpu_fault_in(pages(il, 2, 4), 1)));
    step("collapse", str(mem_.prefault(il.range(), 1)));
    mem_.os_free(ft_base);
    step("free_ft", "-");
    mem_.pool_free(pool_base);
    step("free_pool", "-");
    mem_.os_free(il_base);
    step("free_il", "-");
    return out;
  }

  apu::Machine machine_{pressured(GetParam())};
  MemorySystem mem_{machine_};
  std::uint64_t page_ = machine_.page_bytes();
  std::vector<AddrRange> ranges_;
};

TEST_P(PageStateCharacterization, ScriptedSequenceMatchesRecordedState) {
  const std::vector<std::string>& expected =
      GetParam() == apu::ThpMode::Dynamic ? kHuge2MDynamic : kSmall4K;
  const std::vector<std::string> got = run_script();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageStateCharacterization,
                         ::testing::Values(apu::ThpMode::Off,
                                           apu::ThpMode::Dynamic),
                         [](const auto& param_info) {
                           return param_info.param == apu::ThpMode::Off
                                      ? std::string{"Small4K"}
                                      : std::string{"Huge2MDynamic"};
                         });

}  // namespace
}  // namespace zc::mem

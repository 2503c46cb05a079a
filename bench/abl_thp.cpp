// Ablation: transparent huge pages (2 MB) vs base 4 KB pages.
//
// The paper runs all experiments with THP enabled "so that both
// configurations work with 2MB page sizes". This ablation shows why: with
// 4 KB pages the unified-memory protocols execute per-page work 512x more
// often. Per-page costs are rescaled for the smaller page (less data moved
// per fault), but the fixed per-page protocol overheads remain — and they
// dominate, wrecking the zero-copy configurations on first-touch-heavy
// workloads like 452.ep.

#include "common.hpp"
#include "zc/workloads/spec.hpp"

int main(int argc, char** argv) {
  using namespace zc;
  using omp::RuntimeConfig;

  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_banner("Ablation — THP (2 MB pages) vs 4 KB pages on 452.ep",
                      "Bertolli et al., SC'24, §V methodology", args);

  workloads::EpParams ep;
  ep.arena_bytes /= args.quick ? 64 : 16;  // keep 4 KB page counts tractable
  ep.batches /= args.quick ? 16 : 4;
  const workloads::Program program = workloads::make_ep(ep);

  // 4 KB costs: the data-dependent part of each per-page cost shrinks with
  // the page (512x less to zero/copy), the protocol part does not.
  apu::CostParams small_pages = apu::mi300a_costs();
  small_pages.page_materialize = sim::Duration::from_us(3.0);
  small_pages.xnack_fault_resident = sim::Duration::from_us(3.0);
  small_pages.bulk_page_populate = sim::Duration::from_us(0.8);
  small_pages.prefault_insert_per_page = sim::Duration::from_us(0.3);
  small_pages.prefault_populate_per_page = sim::Duration::from_us(0.5);
  small_pages.pool_free_per_page = sim::Duration::from_us(0.1);
  small_pages.host_touch_per_page_2mb = sim::Duration::from_us(5.0);

  stats::TextTable table{{"pages", "config", "wall", "MM", "MI", "faults",
                          "ratio vs Copy"}};
  for (const bool thp : {true, false}) {
    sim::Duration copy_wall;
    for (const RuntimeConfig cfg :
         {RuntimeConfig::LegacyCopy, RuntimeConfig::ImplicitZeroCopy,
          RuntimeConfig::EagerMaps}) {
      workloads::RunOptions opts{
          .config = cfg, .seed = args.seed, .thp_spec = thp ? "1" : "0"};
      if (!thp) {
        opts.costs = small_pages;
      }
      const workloads::RunResult r = workloads::run_program(program, opts);
      if (cfg == RuntimeConfig::LegacyCopy) {
        copy_wall = r.wall_time;
      }
      table.add_row({thp ? "2 MB (THP)" : "4 KB", to_string(cfg),
                     r.wall_time.to_string(), r.ledger.mm().to_string(),
                     r.ledger.mi().to_string(),
                     stats::TextTable::count(r.totals().page_faults),
                     stats::TextTable::num(copy_wall / r.wall_time, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: with 4 KB pages the zero-copy MI explodes "
               "(512x the faults,\neach with a fixed protocol overhead) and "
               "the Copy/zero-copy ratio collapses.\n";
  return 0;
}

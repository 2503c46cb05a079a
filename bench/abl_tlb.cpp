// Ablation: GPU TLB reach vs kernel-side translation stalls on the stencil
// proxy. With 2 MB translations and a 4096-entry TLB, a 3 GB working set
// fits; shrink the TLB and every sweep thrashes — the mechanism the paper
// suspects behind the Eager Maps S128 variability.

#include "common.hpp"
#include "zc/workloads/spec.hpp"

int main(int argc, char** argv) {
  using namespace zc;
  using omp::RuntimeConfig;

  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_banner("Ablation — GPU TLB entries vs stencil translation stalls",
                      "Bertolli et al., SC'24, §V-A.1 (TLB thrashing)", args);

  workloads::StencilParams sp;
  sp.grid_bytes = 2ULL << 30;  // 2 x 1024 pages working set
  sp.iterations = args.quick ? 100 : 600;
  sp.per_iter_compute = sim::Duration::from_us(5000);
  const workloads::Program program = workloads::make_stencil(sp);

  stats::TextTable table{{"TLB entries", "TLB misses", "TLB stall",
                          "wall", "stall share"}};
  for (const std::uint32_t entries : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
    apu::CostParams costs = apu::mi300a_costs();
    costs.tlb_entries = entries;
    workloads::RunOptions opts{.config = RuntimeConfig::ImplicitZeroCopy,
                               .seed = args.seed};
    opts.costs = costs;
    const workloads::RunResult r = workloads::run_program(program, opts);
    const hsa::DeviceCounters k = r.totals();
    const double share = k.tlb_stall / r.wall_time;
    table.add_row({std::to_string(entries),
                   stats::TextTable::count(
                       k.kernels > 0 ? k.tlb_stall.ns() / costs.tlb_walk.ns()
                                     : 0),
                   k.tlb_stall.to_string(), r.wall_time.to_string(),
                   stats::TextTable::num(100.0 * share, 1) + "%"});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: once the working set exceeds the TLB reach "
               "(2048 entries for\n2x1024 pages), every sweep misses on every "
               "page and the stall share jumps.\n";
  return 0;
}

// §V-A.3 supporting analysis: how kernel execution time and HSA call time
// scale from S2 to S24. The paper reports kernel time growing ~10x for both
// configurations while HSA call time grows ~5x for Copy and ~10x for
// Implicit Zero-Copy (from a much smaller base) — the reason memory
// overheads stop mattering at production problem sizes.

#include "common.hpp"
#include "zc/workloads/qmcpack.hpp"

int main(int argc, char** argv) {
  using namespace zc;
  using omp::RuntimeConfig;

  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_banner("S2 -> S24 scaling of kernel time vs HSA call time",
                      "Bertolli et al., SC'24, §V-A.3", args);
  const int steps = args.steps_or(300, 60, 3000);
  std::cout << "MC steps per run: " << steps << ", 1 OpenMP thread\n\n";

  struct Cell {
    sim::Duration kernel_time;
    sim::Duration hsa_time;
    sim::Duration wall;
  };
  auto measure = [&](int size, RuntimeConfig cfg) -> Cell {
    workloads::QmcpackParams params;
    params.size = size;
    params.threads = 1;
    params.steps = steps;
    const workloads::RunResult r = workloads::run_program(
        workloads::make_qmcpack(params), {.config = cfg, .seed = args.seed});
    return Cell{r.totals().gpu_time, r.stats.total_time(), r.wall_time};
  };

  stats::TextTable table{{"config", "metric", "S2", "S24", "S24/S2"}};
  for (const RuntimeConfig cfg :
       {RuntimeConfig::LegacyCopy, RuntimeConfig::ImplicitZeroCopy}) {
    const Cell s2 = measure(2, cfg);
    const Cell s24 = measure(24, cfg);
    table.add_row({to_string(cfg), "total kernel time", s2.kernel_time.to_string(),
                   s24.kernel_time.to_string(),
                   stats::TextTable::num(s24.kernel_time / s2.kernel_time, 1)});
    table.add_row({to_string(cfg), "total HSA call time", s2.hsa_time.to_string(),
                   s24.hsa_time.to_string(),
                   stats::TextTable::num(s24.hsa_time / s2.hsa_time, 1)});
    table.add_row({to_string(cfg), "wall time", s2.wall.to_string(),
                   s24.wall.to_string(),
                   stats::TextTable::num(s24.wall / s2.wall, 1)});
  }
  table.print(std::cout);
  args.maybe_write_csv("scaling_s2_s24", table);

  std::cout << "\nExpected shape (paper): kernel time grows ~10x for both; "
               "HSA call time grows\nslower for Copy (copy sizes grow, copy "
               "counts do not) and from a tiny base for\nImplicit Z-C — so "
               "kernel time dominates at large sizes.\n";
  return 0;
}

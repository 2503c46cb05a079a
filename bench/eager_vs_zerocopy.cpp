// §V-A.4 supporting analysis: where Eager Maps wins and loses against
// Implicit Zero-Copy on QMCPack S2 with one host thread. The paper finds:
//  * Eager Maps is ahead during the first ~hundred kernel launches (no
//    first-touch faults), by tens of milliseconds;
//  * a small persistent advantage remains (host-allocated reduction arrays);
//  * but the per-map `svm_attributes_set` syscalls sum to more than the
//    fault time saved, so Eager Maps loses overall.

#include "common.hpp"
#include "zc/workloads/qmcpack.hpp"

int main(int argc, char** argv) {
  using namespace zc;
  using omp::RuntimeConfig;

  const bench::Args args = bench::Args::parse(argc, argv);
  bench::print_banner("Eager Maps vs Implicit Zero-Copy decomposition (S2, 1 thread)",
                      "Bertolli et al., SC'24, §V-A.4", args);
  const int steps = args.steps_or(1500, 150, 3000);
  std::cout << "MC steps per run: " << steps << "\n\n";

  workloads::QmcpackParams params;
  params.size = 2;
  params.threads = 1;
  params.steps = steps;
  const workloads::Program program = workloads::make_qmcpack(params);

  const workloads::RunResult zc = workloads::run_program(
      program, {.config = RuntimeConfig::ImplicitZeroCopy,
                .seed = args.seed,
                .keep_kernel_records = true});
  const workloads::RunResult eager = workloads::run_program(
      program, {.config = RuntimeConfig::EagerMaps,
                .seed = args.seed,
                .keep_kernel_records = true});

  stats::TextTable table{{"metric", "Implicit Z-C", "Eager Maps"}};
  table.add_row({"wall time", zc.wall_time.to_string(), eager.wall_time.to_string()});
  table.add_row({"GPU page faults", stats::TextTable::count(zc.totals().page_faults),
                 stats::TextTable::count(eager.totals().page_faults)});
  table.add_row({"fault stall (MI)", zc.ledger.mi().to_string(),
                 eager.ledger.mi().to_string()});
  table.add_row({"svm_attributes_set calls",
                 stats::TextTable::count(
                     zc.stats.count(trace::HsaCall::SvmAttributesSet)),
                 stats::TextTable::count(
                     eager.stats.count(trace::HsaCall::SvmAttributesSet))});
  table.add_row({"svm_attributes_set total",
                 zc.stats.total_latency(trace::HsaCall::SvmAttributesSet).to_string(),
                 eager.stats.total_latency(trace::HsaCall::SvmAttributesSet)
                     .to_string()});
  table.print(std::cout);

  std::cout << "\nEager Maps' fault savings vs prefault cost:\n";
  const sim::Duration saved = zc.ledger.mi() - eager.ledger.mi();
  const sim::Duration paid = eager.ledger.mm_prefault();
  std::cout << "  fault time saved:   " << saved.to_string() << '\n';
  std::cout << "  prefault time paid: " << paid.to_string() << '\n';
  std::cout << "  net for Eager Maps: "
            << (saved - paid).to_string()
            << (saved < paid ? "  (loses: prefaulting costs more than faults saved)"
                             : "  (wins)")
            << '\n';

  // The paper's "first hundred kernel launches" analysis: faults make the
  // Implicit Z-C warm-up window noticeably slower; afterwards only the
  // host-reduction pattern keeps a small Eager Maps advantage alive.
  auto window_time = [](const workloads::RunResult& r, std::size_t first) {
    sim::Duration total;
    const std::size_t n = std::min(first, r.kernel_records.size());
    for (std::size_t i = 0; i < n; ++i) {
      total += r.kernel_records[i].duration();
    }
    return total;
  };
  std::cout << "\nKernel-time windows (launch order):\n";
  stats::TextTable windows{{"window", "Implicit Z-C", "Eager Maps", "Z-C excess"}};
  for (const std::size_t first : {std::size_t{100}, std::size_t{1000}}) {
    const sim::Duration z = window_time(zc, first);
    const sim::Duration e = window_time(eager, first);
    windows.add_row({"first " + std::to_string(first), z.to_string(),
                     e.to_string(), (z - e).to_string()});
  }
  const sim::Duration zc_gpu = zc.totals().gpu_time;
  const sim::Duration eager_gpu = eager.totals().gpu_time;
  windows.add_row({"whole run", zc_gpu.to_string(), eager_gpu.to_string(),
                   (zc_gpu - eager_gpu).to_string()});
  windows.print(std::cout);
  return 0;
}

// The DES perf trajectory: host-side events/sec and wall-clock of the
// simulator core, committed as BENCH_DES.json so later PRs have a baseline
// to defend (ROADMAP: "Simulator raw speed").
//
// Cases:
//   sched_churn        pure scheduler micro: many threads, mutex churn,
//                      reschedule ties, sleepers — the pick_next/timer path.
//   qmcpack_s128_8t    the paper's big QMCPack cell (S128, 8 host threads).
//   qmcpack_s128_8t_4apu
//                      the same cell partitioned over a 4-socket xGMI
//                      fabric (per-link timelines + NUMA placement path).
//   spec_suite         all five SPECaccel proxies, one pass each.
//   service_mix        the multi-tenant service at ~2x overload, full
//                      policy (admission + DRR + breakers + watermarks).
//   qmcpack_race_off / qmcpack_race_report
//                      race-check overhead pair on a mid-size QMCPack run.
//
// Metrics: `events` is the scheduler's discrete-event count (context
// switches + timer fires; deterministic per scenario), `events_per_sec`
// divides it by measured host wall-clock (median of --reps runs).
//
//   --json=PATH    write results (the committed BENCH_DES.json)
//   --check=PATH   compare against a committed baseline; exit 1 when any
//                  case regresses events/sec by more than --tolerance
//                  (default 0.20) — the CI perf-smoke gate
//   --quick        ~10x smaller scenario scale
//   --reps=N       host-time repetitions per case (default 3)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "zc/service/service.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/stats/summary.hpp"
#include "zc/workloads/oversubscribe.hpp"
#include "zc/workloads/qmcpack.hpp"
#include "zc/workloads/runner.hpp"
#include "zc/workloads/spec.hpp"

namespace {

using namespace zc;
using namespace zc::sim::literals;
using Clock = std::chrono::steady_clock;

struct Options {
  bool quick = false;
  int reps = 3;
  double tolerance = 0.20;
  std::string json_path;
  std::string check_path;
  std::string only;  ///< run just the case whose name contains this
};

struct CaseResult {
  std::string name;
  std::uint64_t events = 0;   ///< deterministic DES event count
  double host_seconds = 0.0;  ///< median host wall-clock over reps
  double events_per_sec = 0.0;
  double sim_wall_ms = 0.0;  ///< simulated makespan (0 for the pure micro)
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      o.quick = true;
    } else if (a.rfind("--reps=", 0) == 0) {
      o.reps = std::atoi(a.c_str() + 7);
    } else if (a.rfind("--tolerance=", 0) == 0) {
      o.tolerance = std::atof(a.c_str() + 12);
    } else if (a.rfind("--json=", 0) == 0) {
      o.json_path = a.substr(7);
    } else if (a.rfind("--check=", 0) == 0) {
      o.check_path = a.substr(8);
    } else if (a.rfind("--only=", 0) == 0) {
      o.only = a.substr(7);
    } else if (a == "--help" || a == "-h") {
      std::cout << "options: --quick | --reps=N | --tolerance=F | "
                   "--json=PATH | --check=PATH | --only=SUBSTR\n";
      std::exit(0);
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      std::exit(2);
    }
  }
  if (o.reps < 1) {
    o.reps = 1;
  }
  return o;
}

/// Run `body` (which returns a DES event count) `reps` times; report the
/// median host time so one noisy run cannot fail the CI gate.
template <typename Body>
CaseResult measure(const std::string& name, int reps, Body&& body) {
  CaseResult r;
  r.name = name;
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::pair<std::uint64_t, double> out = body();
    const Clock::time_point t1 = Clock::now();
    secs.push_back(std::chrono::duration<double>(t1 - t0).count());
    r.events = out.first;
    r.sim_wall_ms = out.second;
  }
  // One sorted copy answers every quantile query (stats::SortedSamples).
  const stats::SortedSamples sorted{std::move(secs)};
  r.host_seconds = sorted.quantile(0.5);
  r.events_per_sec =
      r.host_seconds > 0.0 ? static_cast<double>(r.events) / r.host_seconds
                           : 0.0;
  return r;
}

/// Pure scheduler churn: `threads` equal-priority workers advancing in
/// small unequal steps (constant tie pressure on pick_next), contending on
/// a small set of mutexes (wake-one handoff path), periodically calling
/// reschedule() (the deprioritized tie bucket) and sleeping (timer path).
std::uint64_t sched_churn(int threads, int iters) {
  sim::Scheduler s;
  std::vector<sim::Mutex> locks(8);
  for (int t = 0; t < threads; ++t) {
    // Appended piece by piece: GCC 12 flags `"literal" + std::to_string(n)`
    // with a false-positive -Wrestrict.
    std::string name = "w";
    name += std::to_string(t);
    s.spawn(std::move(name), [&s, &locks, t, iters] {
      for (int k = 0; k < iters; ++k) {
        s.advance(sim::Duration::nanoseconds(100 + (t * 7 + k) % 3));
        if (k % 4 == 0) {
          sim::Mutex& m = locks[static_cast<std::size_t>((t + k) % 8)];
          m.lock(s);
          s.advance(10_ns);
          m.unlock(s);
        }
        if (k % 16 == 5) {
          s.reschedule();
        }
        if (k % 64 == 9) {
          s.sleep_for(sim::Duration::nanoseconds(50 + k % 7));
        }
      }
    });
  }
  s.run();
  return s.events();
}

workloads::RunOptions qmc_options(const std::string& race_spec = {}) {
  workloads::RunOptions opt;
  opt.config = omp::RuntimeConfig::ImplicitZeroCopy;
  opt.seed = 1;
  opt.race_check_spec = race_spec;
  return opt;
}

std::pair<std::uint64_t, double> run_qmcpack(int size, int threads, int steps,
                                             const std::string& race_spec,
                                             int sockets = 0) {
  workloads::QmcpackParams p;
  p.size = size;
  p.threads = threads;
  p.steps = steps;
  workloads::RunOptions opt = qmc_options(race_spec);
  if (sockets > 1) {
    p.sockets = sockets;
    opt.sockets = sockets;
    opt.fabric_spec = "xgmi";
  }
  const workloads::RunResult r =
      workloads::run_program(workloads::make_qmcpack(p), opt);
  return {r.sim_events, r.wall_time.ms()};
}

/// A 2x-oversubscribed sweep under watermark reclaim: the pressure hot
/// path (access-counter sampling, watermark checks, eviction batches, DDR
/// promotion faults) layered on the dispatch loop.
std::pair<std::uint64_t, double> run_oversub_pressure() {
  workloads::OversubscribeParams p;
  p.working_set_ratio = 2.0;
  p.sweeps = 1;
  workloads::RunOptions opt;
  opt.config = omp::RuntimeConfig::ImplicitZeroCopy;
  opt.seed = 1;
  opt.topology = workloads::oversubscribed_topology(p);
  opt.pressure_spec = "watermarks";
  opt.automigrate_spec = "4";
  opt.thp_spec = "dynamic";
  const workloads::RunResult r =
      workloads::run_program(workloads::make_oversubscribe(p), opt);
  return {r.sim_events, r.wall_time.ms()};
}

/// The multi-tenant service at ~2x overload under the full policy: the
/// admission / DRR / breaker / watermark hot path (many fibers contending
/// on the service lock) layered over a 2-socket capped node.
std::pair<std::uint64_t, double> run_service_mix(bool quick) {
  service::ServiceParams p;
  p.config.tenants = 4;
  p.config.policy = apu::ServicePolicy::Full;
  p.workers = 4;
  p.arrival.tenants = 4;
  p.arrival.sockets = 2;
  p.arrival.jobs = quick ? 60 : 180;
  p.arrival.base_interarrival = sim::Duration::microseconds(1000);
  p.arrival.kernel_compute = sim::Duration::microseconds(50);
  p.queue_limit = 6;
  p.base.config = omp::RuntimeConfig::LegacyCopy;
  apu::Topology capped;
  capped.sockets = 2;
  capped.hbm_bytes = 512ULL << 20;
  p.base.topology = capped;
  p.base.seed = 1;
  const service::ServiceResult r = service::run_service(p);
  return {r.run.sim_events, r.run.wall_time.ms()};
}

std::pair<std::uint64_t, double> run_spec_suite(bool quick) {
  const double scale = quick ? 0.1 : 1.0;
  auto scaled = [scale](int v) {
    return std::max(1, static_cast<int>(v * scale));
  };
  std::uint64_t events = 0;
  double sim_ms = 0.0;
  auto add = [&](const workloads::Program& prog) {
    const workloads::RunResult r = workloads::run_program(prog, qmc_options());
    events += r.sim_events;
    sim_ms += r.wall_time.ms();
  };
  workloads::StencilParams st;
  st.iterations = scaled(st.iterations);
  add(workloads::make_stencil(st));
  workloads::LbmParams lbm;
  lbm.iterations = scaled(lbm.iterations);
  add(workloads::make_lbm(lbm));
  workloads::EpParams ep;
  ep.batches = scaled(ep.batches);
  add(workloads::make_ep(ep));
  workloads::SpcParams spc;
  spc.cycles = scaled(spc.cycles);
  add(workloads::make_spc(spc));
  workloads::BtParams bt;
  bt.cycles = scaled(bt.cycles);
  add(workloads::make_bt(bt));
  return {events, sim_ms};
}

void write_json(const std::string& path, const std::vector<CaseResult>& cases,
                double race_overhead_x) {
  std::ofstream out{path};
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"bench_des/v1\",\n";
  out << "  \"generated_by\": \"bench/micro_des\",\n";
  out << "  \"race_report_overhead_x\": " << race_overhead_x << ",\n";
  out << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    out << "    {\"name\": \"" << c.name << "\", \"events\": " << c.events
        << ", \"host_seconds\": " << c.host_seconds
        << ", \"events_per_sec\": " << c.events_per_sec
        << ", \"sim_wall_ms\": " << c.sim_wall_ms << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "[json] wrote " << path << '\n';
}

/// Minimal reader for the JSON this binary writes: pulls the
/// (name, events_per_sec) pairs out of the "cases" array.
std::map<std::string, double> read_baseline(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::cerr << "cannot read baseline " << path << '\n';
    std::exit(1);
  }
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t n = line.find("\"name\": \"");
    if (n == std::string::npos) {
      continue;
    }
    const std::size_t n0 = n + std::strlen("\"name\": \"");
    const std::size_t n1 = line.find('"', n0);
    const std::size_t e = line.find("\"events_per_sec\": ");
    if (n1 == std::string::npos || e == std::string::npos) {
      continue;
    }
    out[line.substr(n0, n1 - n0)] =
        std::atof(line.c_str() + e + std::strlen("\"events_per_sec\": "));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const int churn_threads = opt.quick ? 64 : 256;
  const int churn_iters = opt.quick ? 400 : 2000;
  const int qmc_steps = opt.quick ? 8 : 40;
  const int race_steps = opt.quick ? 4 : 12;

  std::cout << "== micro_des: DES core events/sec ==\n";
  std::vector<CaseResult> cases;
  const auto wanted = [&](const std::string& name) {
    return opt.only.empty() || name.find(opt.only) != std::string::npos;
  };

  if (wanted("sched_churn")) {
    cases.push_back(measure("sched_churn", opt.reps, [&] {
      return std::pair<std::uint64_t, double>{
          sched_churn(churn_threads, churn_iters), 0.0};
    }));
  }
  if (wanted("qmcpack_s128_8t")) {
    cases.push_back(measure("qmcpack_s128_8t", opt.reps, [&] {
      return run_qmcpack(128, 8, qmc_steps, "");
    }));
  }
  if (wanted("qmcpack_s128_8t_4apu")) {
    // The same cell statically partitioned over a 4-socket xGMI fabric:
    // exercises per-link timelines, NUMA placement, and the per-device
    // counters on the hot path.
    cases.push_back(measure("qmcpack_s128_8t_4apu", opt.reps, [&] {
      return run_qmcpack(128, 8, qmc_steps, "", /*sockets=*/4);
    }));
  }
  if (wanted("oversub_pressure")) {
    cases.push_back(measure("oversub_pressure", opt.reps,
                            [&] { return run_oversub_pressure(); }));
  }
  if (wanted("spec_suite")) {
    cases.push_back(measure("spec_suite", opt.reps,
                            [&] { return run_spec_suite(opt.quick); }));
  }
  if (wanted("service_mix")) {
    cases.push_back(measure("service_mix", opt.reps,
                            [&] { return run_service_mix(opt.quick); }));
  }
  double race_overhead_x = 0.0;
  if (wanted("qmcpack_race_off") && wanted("qmcpack_race_report")) {
    cases.push_back(measure("qmcpack_race_off", opt.reps, [&] {
      return run_qmcpack(16, 8, race_steps, "off");
    }));
    cases.push_back(measure("qmcpack_race_report", opt.reps, [&] {
      return run_qmcpack(16, 8, race_steps, "report");
    }));
    race_overhead_x = cases[cases.size() - 1].host_seconds /
                      std::max(1e-12, cases[cases.size() - 2].host_seconds);
  }

  for (const CaseResult& c : cases) {
    std::cout << "  " << c.name << ": " << c.events << " events in "
              << c.host_seconds << " s  ->  "
              << static_cast<std::uint64_t>(c.events_per_sec)
              << " events/sec";
    if (c.sim_wall_ms > 0.0) {
      std::cout << "  (sim " << c.sim_wall_ms << " ms)";
    }
    std::cout << '\n';
  }
  std::cout << "  race report overhead: " << race_overhead_x << "x\n";

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, cases, race_overhead_x);
  }
  if (!opt.check_path.empty()) {
    const std::map<std::string, double> base = read_baseline(opt.check_path);
    bool ok = true;
    for (const CaseResult& c : cases) {
      const auto it = base.find(c.name);
      if (it == base.end()) {
        std::cout << "[check] " << c.name << ": no baseline, skipped\n";
        continue;
      }
      const double floor = it->second * (1.0 - opt.tolerance);
      const bool pass = c.events_per_sec >= floor;
      std::cout << "[check] " << c.name << ": "
                << static_cast<std::uint64_t>(c.events_per_sec)
                << " vs baseline " << static_cast<std::uint64_t>(it->second)
                << " (floor " << static_cast<std::uint64_t>(floor) << ") "
                << (pass ? "ok" : "REGRESSION") << '\n';
      ok = ok && pass;
    }
    if (!ok) {
      std::cerr << "perf-smoke: events/sec regressed more than "
                << opt.tolerance * 100 << "% against " << opt.check_path
                << '\n';
      return 1;
    }
  }
  return 0;
}

// One pass of one perfbench workload, in this process.
//
//   perfbench_runner --workload NAME --seed N [--traced] [--trace-out PATH]
//
// A pass runs the workload's fixed list of simulated runs once. The runner
// builds every run's OffloadStack itself, so it can time each phase apart:
// building the program, constructing the stack, spawning its threads, the
// scheduler's run, and the checksum finalizer. `--traced` also installs a
// counting sim::ConcurrencyHooks and a check::Recorder on every run; both
// only observe. `--trace-out` writes the pass's host-time spans as Chrome
// trace-event JSON, which Perfetto loads.
//
// Prints one JSON object on stdout; run.py aggregates passes into metrics.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "zc/check/analyzer.hpp"
#include "zc/check/ir.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/race/prune.hpp"
#include "zc/service/service.hpp"
#include "zc/workloads/qmcpack.hpp"
#include "zc/workloads/runner.hpp"
#include "zc/workloads/spec.hpp"

namespace {

using namespace zc;
using omp::RuntimeConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ spans --

/// Host-time spans kept in memory. A span opened while another is open is
/// its child; self time is a span's length minus its direct children's.
class Spans {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int depth = 0;
  };

  class Scope {
   public:
    Scope(Spans& spans, std::string name)
        : spans_{spans}, index_{spans.open(std::move(name))} {}
    ~Scope() { spans_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
  };

  /// Summed length of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        sum += s.t1 - s.t0;
      }
    }
    return sum;
  }

  /// Span name -> summed self time.
  [[nodiscard]] std::map<std::string, double> self_times() const {
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      double self = spans_[i].t1 - spans_[i].t0;
      for (std::size_t j = i + 1;
           j < spans_.size() && spans_[j].depth > spans_[i].depth; ++j) {
        if (spans_[j].depth == spans_[i].depth + 1) {
          self -= spans_[j].t1 - spans_[j].t0;
        }
      }
      out[spans_[i].name] += self;
    }
    return out;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out{path};
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string cat = s.name.substr(0, s.name.find_first_of(".:"));
      out << "  {\"name\": \"" << s.name << "\", \"cat\": \"" << cat
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.t0 * 1e6 << ", \"dur\": " << (s.t1 - s.t0) * 1e6 << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  [[nodiscard]] double now() const { return seconds_since(origin_); }
  std::size_t open(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0, depth_++});
    return spans_.size() - 1;
  }
  void close(std::size_t i) {
    --depth_;
    spans_[i].t1 = now();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int depth_ = 0;
};

// ---------------------------------------------------------- counting hook --

constexpr std::size_t kSyncKinds =
    static_cast<std::size_t>(sim::SyncKind::Atomic) + 1;

/// Counts the scheduler's concurrency events and forwards each one to the
/// observer installed before it (the race detector, when it is on).
/// Installs itself on construction and restores that observer on
/// destruction, so it must not outlive the stack it observes.
class CountingHooks final : public sim::ConcurrencyHooks {
 public:
  explicit CountingHooks(sim::Scheduler& sched)
      : sched_{sched}, next_{sched.hooks()} {
    sched_.set_hooks(this);
  }
  ~CountingHooks() override { sched_.set_hooks(next_); }
  CountingHooks(const CountingHooks&) = delete;
  CountingHooks& operator=(const CountingHooks&) = delete;

  void on_spawn(int parent_id, int child_id) override {
    if (next_ != nullptr) {
      next_->on_spawn(parent_id, child_id);
    }
  }
  void on_finish(int thread_id) override {
    if (next_ != nullptr) {
      next_->on_finish(thread_id);
    }
  }
  void on_release(const void* obj, sim::SyncKind kind) override {
    ++sync[static_cast<std::size_t>(kind)];
    if (next_ != nullptr) {
      next_->on_release(obj, kind);
    }
  }
  void on_acquire(const void* obj, sim::SyncKind kind) override {
    ++sync[static_cast<std::size_t>(kind)];
    if (next_ != nullptr) {
      next_->on_acquire(obj, kind);
    }
  }
  void on_lock_acquired(const sim::Mutex& m) override {
    if (next_ != nullptr) {
      next_->on_lock_acquired(m);
    }
  }
  void on_access(const void* addr, std::size_t bytes, std::string_view what,
                 bool is_write) override {
    if (next_ != nullptr) {
      next_->on_access(addr, bytes, what, is_write);
    }
  }
  int on_task_begin(std::string_view what, int device) override {
    ++device_tasks;
    return next_ != nullptr ? next_->on_task_begin(what, device) : 0;
  }
  void on_task_pages(int task, std::uint64_t first_page, std::uint64_t pages,
                     bool is_write, std::string_view what) override {
    device_pages += pages;
    if (next_ != nullptr) {
      next_->on_task_pages(task, first_page, pages, is_write, what);
    }
  }
  void on_host_pages(std::uint64_t first_page, std::uint64_t pages,
                     bool is_write, std::string_view what) override {
    host_pages += pages;
    if (next_ != nullptr) {
      next_->on_host_pages(first_page, pages, is_write, what);
    }
  }
  void on_task_acquire(int task, const void* obj) override {
    if (next_ != nullptr) {
      next_->on_task_acquire(task, obj);
    }
  }
  void on_task_end(int task, const void* completion_obj) override {
    if (next_ != nullptr) {
      next_->on_task_end(task, completion_obj);
    }
  }

  std::array<std::uint64_t, kSyncKinds> sync{};
  std::uint64_t device_tasks = 0;
  std::uint64_t host_pages = 0;
  std::uint64_t device_pages = 0;

 private:
  sim::Scheduler& sched_;
  sim::ConcurrencyHooks* next_;
};

// ---------------------------------------------------------------- records --

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

constexpr std::array<const char*, static_cast<std::size_t>(
                                      trace::HsaCall::kCount)>
    kCallNames{"signal_create",        "signal_wait_scacquire",
               "signal_async_handler", "memory_pool_allocate",
               "memory_pool_free",     "memory_async_copy",
               "queue_dispatch",       "svm_attributes_set"};

/// One simulated run of a pass. Runs sharing a `group` compute the same
/// program and must report identical checksums.
struct RunRecord {
  std::string label;
  std::string group;
  double checksum = 0.0;
  std::int64_t sim_ns = 0;
  std::uint64_t digest = 0;
  double host_s = 0.0;
  std::string error;  ///< empty unless the run threw or failed a check
};

struct Ctx {
  std::uint64_t seed = 1;
  bool traced = false;
  Spans spans;
  std::map<std::string, double> layers;

  void add(const std::string& name, double v) { layers[name] += v; }
};

/// Fold one finished run's simulated counters into the pass's per-layer
/// totals and return the digest of its simulated outputs: makespan,
/// CallStats, and every device's counters.
std::uint64_t account(Ctx& ctx, sim::Duration makespan, std::uint64_t events,
                      const trace::CallStats& stats,
                      const std::vector<hsa::DeviceCounters>& devices,
                      const trace::OverheadLedger& ledger) {
  Digest d;
  d.add(static_cast<std::uint64_t>(makespan.ns()));
  ctx.add("sim.events", static_cast<double>(events));
  for (std::size_t c = 0; c < kCallNames.size(); ++c) {
    const auto call = static_cast<trace::HsaCall>(c);
    d.add(stats.count(call));
    d.add(static_cast<std::uint64_t>(stats.total_latency(call).ns()));
    ctx.add(std::string{"hsa.calls."} + kCallNames[c],
            static_cast<double>(stats.count(call)));
    ctx.add(std::string{"hsa.sim_us."} + kCallNames[c],
            stats.total_latency(call).us());
  }
  for (const hsa::DeviceCounters& dc : devices) {
    for (const std::uint64_t v :
         {dc.kernels, dc.remote_kernels, dc.page_faults, dc.tlb_misses,
          dc.copies, dc.copy_bytes, dc.cross_socket_copies,
          dc.migrated_pages, dc.evicted_pages, dc.promoted_pages}) {
      d.add(v);
    }
    ctx.add("hsa.kernels", static_cast<double>(dc.kernels));
    ctx.add("hsa.copies", static_cast<double>(dc.copies));
    ctx.add("hsa.copy_bytes", static_cast<double>(dc.copy_bytes));
    ctx.add("mem.page_faults", static_cast<double>(dc.page_faults));
    ctx.add("mem.evicted_pages", static_cast<double>(dc.evicted_pages));
    ctx.add("mem.promoted_pages", static_cast<double>(dc.promoted_pages));
    ctx.add("mem.migrated_pages", static_cast<double>(dc.migrated_pages));
  }
  ctx.add("hsa.mm_us", ledger.mm().us());
  ctx.add("hsa.mi_us", ledger.mi().us());
  ctx.add("hsa.prefault_calls", static_cast<double>(ledger.prefault_calls()));
  return d.value();
}

// ------------------------------------------------------------ stack runs --

/// One entry of a workload's fixed run list.
struct Job {
  std::string label;
  std::string group;
  RuntimeConfig config = RuntimeConfig::ImplicitZeroCopy;
  std::function<workloads::Program()> make;
  /// Run under OMPX_APU_RACE_CHECK=report:pruned: a record-only phase, the
  /// static analysis, then the measured run with the pruned detector.
  bool race_pruned = false;
};

/// Seeded cost noise, as the paper's repeated measurements show; the seed
/// fixes it, so every simulated result repeats exactly per seed. Tiny: on
/// service_mix any larger noise re-decides which jobs are shed, and that
/// moves host time and RSS between seeds by more than the metrics' bounds.
constexpr sim::JitterParams kJitter{.sigma = 0.0001};

struct SimOut {
  double checksum = 0.0;
  std::int64_t sim_ns = 0;
  std::uint64_t digest = 0;
};

/// Build a stack for `job`, run `program` on it to completion, and fold its
/// counters into the pass totals.
SimOut simulate(Ctx& ctx, const Job& job, const workloads::Program& program,
                bool race_on, check::Recorder* recorder,
                const race::PruneFilter* filter) {
  apu::Machine::Config cfg =
      omp::OffloadStack::machine_config_for(job.config, kJitter, ctx.seed);
  if (race_on) {
    cfg.env.race_check = apu::RunEnvironment::from_env(
                             {{"OMPX_APU_RACE_CHECK", "report:pruned"}})
                             .race_check;
  }
  std::unique_ptr<omp::OffloadStack> stack;
  {
    const Spans::Scope s{ctx.spans, "core.stack_build"};
    stack = std::make_unique<omp::OffloadStack>(
        std::move(cfg),
        omp::OffloadStack::program_for(job.config, program.binary));
  }
  std::optional<CountingHooks> hooks;
  if (ctx.traced) {
    hooks.emplace(stack->sched());
  }
  if (recorder != nullptr) {
    stack->omp().set_recorder(recorder);
  }
  if (filter != nullptr && stack->race_detector() != nullptr) {
    stack->race_detector()->set_prune_filter(filter);
  }
  {
    const Spans::Scope s{ctx.spans, "workloads.setup_threads"};
    program.setup_threads(*stack);
  }
  {
    const Spans::Scope s{ctx.spans, "sim.run"};
    stack->sched().run();
  }

  SimOut out;
  const sim::Duration makespan = stack->sched().horizon().since_start();
  out.sim_ns = makespan.ns();
  hsa::Runtime& hsa = stack->hsa();
  out.digest = account(ctx, makespan, stack->sched().events(), hsa.stats(),
                       hsa.device_counters(), hsa.ledger());
  mem::MemorySystem& memory = stack->memory();
  for (int s = 0; s < memory.sockets(); ++s) {
    ctx.add("mem.tlb_hits", static_cast<double>(memory.tlb(s).total_hits()));
    ctx.add("mem.tlb_misses",
            static_cast<double>(memory.tlb(s).total_misses()));
    ctx.add("mem.hbm_used_bytes", static_cast<double>(memory.hbm_used(s)));
  }
  ctx.add("mem.ddr_used_bytes", static_cast<double>(memory.ddr_used()));
  const trace::DecisionTrace& decisions = stack->omp().decision_trace();
  ctx.add("adapt.decisions", static_cast<double>(decisions.records().size()));
  ctx.add("adapt.cache_hits", static_cast<double>(decisions.cache_hits()));
  if (const race::Detector* d = stack->race_detector()) {
    ctx.add("race.checked_stamps", static_cast<double>(d->checked_stamps()));
    ctx.add("race.pruned_stamps", static_cast<double>(d->pruned_stamps()));
  }
  if (hooks) {
    for (std::size_t k = 0; k < kSyncKinds; ++k) {
      ctx.add(std::string{"sim.sync."} +
                  sim::to_string(static_cast<sim::SyncKind>(k)),
              static_cast<double>(hooks->sync[k]));
    }
    ctx.add("sim.device_tasks", static_cast<double>(hooks->device_tasks));
    ctx.add("mem.host_pages", static_cast<double>(hooks->host_pages));
    ctx.add("mem.device_pages", static_cast<double>(hooks->device_pages));
    hooks.reset();
  }
  {
    const Spans::Scope s{ctx.spans, "workloads.finalize"};
    out.checksum = program.finalize ? program.finalize(*stack) : 0.0;
  }
  if (recorder != nullptr && ctx.traced) {
    for (const check::ThreadStream& t : recorder->build().threads) {
      for (const check::IrOp& op : t.ops) {
        ctx.add(std::string{"core.ops."} + check::to_string(op.kind), 1.0);
      }
    }
  }
  {
    const Spans::Scope s{ctx.spans, "core.stack_teardown"};
    stack.reset();
  }
  return out;
}

RunRecord execute(Ctx& ctx, const Job& job) {
  RunRecord rec{.label = job.label, .group = job.group};
  const Spans::Scope span{ctx.spans, "run:" + job.label};
  const Clock::time_point t0 = Clock::now();
  try {
    workloads::Program program;
    {
      const Spans::Scope s{ctx.spans, "workloads.make"};
      program = job.make();
    }
    const std::uint64_t page_bytes =
        omp::OffloadStack::machine_config_for(job.config, kJitter, ctx.seed)
            .env.page_bytes();
    std::optional<race::PruneFilter> filter;
    if (job.race_pruned) {
      check::Recorder phase1{page_bytes};
      (void)simulate(ctx, job, program, /*race_on=*/false, &phase1, nullptr);
      const Spans::Scope s{ctx.spans, "check.analyze"};
      const check::Analysis analysis =
          check::analyze(phase1.build(), job.config);
      filter = race::PruneFilter::from_partition(
          analysis.partition.proven_safe, analysis.partition.must_check,
          page_bytes);
    }
    std::optional<check::Recorder> recorder;
    if (ctx.traced) {
      recorder.emplace(page_bytes);
    }
    const SimOut out =
        simulate(ctx, job, program, job.race_pruned,
                 recorder ? &*recorder : nullptr, filter ? &*filter : nullptr);
    rec.checksum = out.checksum;
    rec.sim_ns = out.sim_ns;
    rec.digest = out.digest;
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.host_s = seconds_since(t0);
  return rec;
}

const char* short_name(RuntimeConfig c) {
  switch (c) {
    case RuntimeConfig::LegacyCopy:
      return "copy";
    case RuntimeConfig::UnifiedSharedMemory:
      return "usm";
    case RuntimeConfig::ImplicitZeroCopy:
      return "zc";
    case RuntimeConfig::EagerMaps:
      return "eager";
    case RuntimeConfig::AdaptiveMaps:
      return "adaptive";
  }
  return "?";
}

/// QMCPack NiO S128 with 8 host threads, the paper's largest cell, run for
/// `steps` Monte-Carlo steps.
Job nio_job(RuntimeConfig config, int steps, bool race_pruned = false) {
  std::string label = short_name(config);
  if (race_pruned) {
    label += ":race";
  }
  return Job{.label = label,
             .group = "nio",
             .config = config,
             .make =
                 [steps] {
                   workloads::QmcpackParams p;
                   p.size = 128;
                   p.threads = 8;
                   p.steps = steps;
                   return workloads::make_qmcpack(p);
                 },
             .race_pruned = race_pruned};
}

/// The five SPECaccel proxies, in the paper's Table II order.
const std::vector<std::pair<std::string, std::function<workloads::Program()>>>&
spec_suite() {
  static const std::vector<
      std::pair<std::string, std::function<workloads::Program()>>>
      suite{{"stencil", [] { return workloads::make_stencil({}); }},
            {"lbm", [] { return workloads::make_lbm({}); }},
            {"ep", [] { return workloads::make_ep({}); }},
            {"spC", [] { return workloads::make_spc({}); }},
            {"bt", [] { return workloads::make_bt({}); }}};
  return suite;
}

constexpr std::array<RuntimeConfig, 5> kAllConfigs{
    RuntimeConfig::LegacyCopy, RuntimeConfig::UnifiedSharedMemory,
    RuntimeConfig::ImplicitZeroCopy, RuntimeConfig::EagerMaps,
    RuntimeConfig::AdaptiveMaps};

std::vector<Job> jobs_for(const std::string& workload) {
  std::vector<Job> jobs;
  if (workload == "qmcpack_zc") {
    for (const RuntimeConfig c :
         {RuntimeConfig::UnifiedSharedMemory, RuntimeConfig::ImplicitZeroCopy,
          RuntimeConfig::EagerMaps, RuntimeConfig::AdaptiveMaps}) {
      jobs.push_back(nio_job(c, 100));
    }
    jobs.push_back(nio_job(RuntimeConfig::ImplicitZeroCopy, 100, true));
  } else if (workload == "qmcpack_copy") {
    // Half the steps: a Copy pass moves ~18 GB, so a run still fits
    // several passes.
    jobs.push_back(nio_job(RuntimeConfig::LegacyCopy, 50));
    jobs.push_back(nio_job(RuntimeConfig::ImplicitZeroCopy, 50));
  } else if (workload == "spec_mem") {
    for (const auto& [name, make] : spec_suite()) {
      for (const RuntimeConfig c : kAllConfigs) {
        jobs.push_back(Job{.label = name + ":" + short_name(c),
                           .group = name,
                           .config = c,
                           .make = make});
      }
    }
  }
  return jobs;
}

/// Largest relative error of the simulated Copy / zero-copy makespan ratios
/// against the paper's Table II (Implicit Z-C, USM, Eager per benchmark).
double table2_error(const std::vector<RunRecord>& runs) {
  static const std::map<std::string, std::array<double, 3>> kPaper{
      {"stencil", {0.99, 0.99, 0.98}}, {"lbm", {1.05, 1.043, 1.025}},
      {"ep", {0.89, 0.89, 0.99}},      {"spC", {7.80, 7.61, 8.10}},
      {"bt", {4.88, 4.77, 5.10}}};
  std::map<std::string, double> sim;
  for (const RunRecord& r : runs) {
    sim[r.label] = static_cast<double>(r.sim_ns);
  }
  double worst = 0.0;
  for (const auto& [bench, paper] : kPaper) {
    const std::array<const char*, 3> cols{"zc", "usm", "eager"};
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const double cell = sim[bench + ":" + cols[i]];
      const double ratio = cell > 0.0 ? sim[bench + ":copy"] / cell : 0.0;
      worst = std::max(worst, std::abs(ratio - paper[i]) / paper[i]);
    }
  }
  return worst;
}

// --------------------------------------------------------------- service --

/// The offered job stream is fixed, like every other workload's input size;
/// --seed drives the cost noise and the reclaim victim tie-breaks.
constexpr std::uint64_t kArrivalSeed = 1;

/// The multi-tenant service at about 2x overload under the full policy on
/// a capped 2-socket node, with watermark reclaim spilling to DDR.
service::ServiceParams service_params(std::uint64_t seed) {
  service::ServiceParams p;
  p.config.tenants = 4;
  p.config.policy = apu::ServicePolicy::Full;
  p.workers = 4;
  p.arrival.tenants = 4;
  p.arrival.sockets = 2;
  p.arrival.jobs = 180;
  p.arrival.base_interarrival = sim::Duration::microseconds(1000);
  p.arrival.kernel_compute = sim::Duration::microseconds(50);
  p.arrival.seed = kArrivalSeed;
  p.queue_limit = 6;
  p.base.config = RuntimeConfig::LegacyCopy;
  apu::Topology capped;
  capped.sockets = 2;
  capped.hbm_bytes = 512ULL << 20;
  p.base.topology = capped;
  p.base.pressure_spec = "watermarks";
  p.base.jitter = kJitter;
  p.base.seed = seed;
  return p;
}

std::vector<RunRecord> run_service_mix(Ctx& ctx) {
  RunRecord rec{.label = "service", .group = "service"};
  const Spans::Scope span{ctx.spans, "run:service"};
  const Clock::time_point t0 = Clock::now();
  try {
    service::ServiceParams p;
    {
      const Spans::Scope s{ctx.spans, "workloads.make"};
      p = service_params(ctx.seed);
    }
    {
      // run_service builds and runs its stack internally, so set-up is
      // timed on an identical stack (same machine config) built here.
      apu::Machine::Config cfg = omp::OffloadStack::machine_config_for(
          p.base.config, p.base.jitter, p.base.seed);
      cfg.topology = *p.base.topology;
      std::unique_ptr<omp::OffloadStack> stack;
      {
        const Spans::Scope s{ctx.spans, "core.stack_build"};
        stack = std::make_unique<omp::OffloadStack>(std::move(cfg),
                                                    omp::ProgramBinary{});
      }
      const Spans::Scope s{ctx.spans, "core.stack_teardown"};
      stack.reset();
    }
    const service::ServiceResult r = [&] {
      const Spans::Scope s{ctx.spans, "service.run"};
      return service::run_service(p);
    }();
    std::vector<hsa::DeviceCounters> devices;
    for (const workloads::DeviceStats& ds : r.run.devices) {
      devices.push_back(ds.counters);
      ctx.add("mem.hbm_used_bytes", static_cast<double>(ds.hbm_used));
    }
    if (!r.run.devices.empty()) {
      ctx.add("mem.ddr_used_bytes",
              static_cast<double>(r.run.devices.front().ddr_used));
    }
    rec.digest = account(ctx, r.run.wall_time, r.run.sim_events, r.run.stats,
                         devices, r.run.ledger);
    rec.sim_ns = r.run.wall_time.ns();
    rec.checksum = r.run.checksum;

    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    double goodput = 0.0;
    for (const workloads::TenantServiceStats& t : r.run.service_tenants) {
      offered += t.offered;
      completed += t.completed;
      shed += t.shed;
      failed += t.failed;
      goodput += t.goodput_jps;
      ctx.add("svc.offered", static_cast<double>(t.offered));
      ctx.add("svc.admitted", static_cast<double>(t.admitted));
      ctx.add("svc.completed", static_cast<double>(t.completed));
      ctx.add("svc.shed", static_cast<double>(t.shed));
      ctx.add("svc.deadmissions", static_cast<double>(t.deadmissions));
      ctx.add("svc.starvation_boosts",
              static_cast<double>(t.starvation_boosts));
      ctx.add("svc.breaker_opens", static_cast<double>(t.breaker_opens));
    }
    std::vector<double> sojourn_us;
    for (const trace::ServiceJobRecord& j : r.jobs) {
      if (j.outcome == trace::ServiceJobOutcome::Completed) {
        sojourn_us.push_back(j.sojourn().us());
      }
    }
    std::sort(sojourn_us.begin(), sojourn_us.end());
    if (!sojourn_us.empty()) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(sojourn_us.size())));
      ctx.add("svc.p99_us", sojourn_us[std::max<std::size_t>(rank, 1) - 1]);
    }
    ctx.add("svc.goodput_jps", goodput);
    ctx.add("svc.shed_frac", offered > 0 ? static_cast<double>(shed) /
                                               static_cast<double>(offered)
                                         : 0.0);
    if (r.checksum_divergences != 0) {
      rec.error = "service: " + std::to_string(r.checksum_divergences) +
                  " completed jobs diverged from their closed-form checksum";
    } else if (offered == 0 || offered != completed + shed + failed ||
               r.jobs.size() != offered) {
      rec.error = "service: job counts are not conserved";
    } else if (failed != 0) {
      rec.error = "service: " + std::to_string(failed) + " jobs failed";
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.host_s = seconds_since(t0);
  return {rec};
}

// ----------------------------------------------------------------- output --

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_map(std::ostream& os, const std::map<std::string, double>& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  os << "}";
}

int usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload NAME --seed N "
               "[--traced] [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  Ctx ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      ctx.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--traced") {
      ctx.traced = true;
    } else if (a == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      return usage("unknown argument '" + a + "'");
    }
  }
  const std::vector<Job> jobs = jobs_for(workload);
  if (jobs.empty() && workload != "service_mix") {
    return usage("unknown workload '" + workload + "'");
  }

  const Clock::time_point t0 = Clock::now();
  std::vector<RunRecord> runs;
  {
    const Spans::Scope pass{ctx.spans, "pass:" + workload};
    if (workload == "service_mix") {
      runs = run_service_mix(ctx);
    } else {
      for (const Job& job : jobs) {
        runs.push_back(execute(ctx, job));
      }
    }
  }
  const double host_s = seconds_since(t0);

  if (workload == "spec_mem") {
    ctx.add("paper.table2_err", table2_error(runs));
  }
  if (workload == "qmcpack_zc") {
    double plain = 0.0;
    double raced = 0.0;
    for (const RunRecord& r : runs) {
      plain = r.label == "zc" ? r.host_s : plain;
      raced = r.label == "zc:race" ? r.host_s : raced;
    }
    ctx.add("race.overhead_x", plain > 0.0 ? raced / plain : 0.0);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  ctx.add("proc.user_s", tv(ru.ru_utime));
  ctx.add("proc.sys_s", tv(ru.ru_stime));
  ctx.add("proc.minflt", static_cast<double>(ru.ru_minflt));
  ctx.add("proc.nivcsw", static_cast<double>(ru.ru_nivcsw));

  std::map<std::string, double> span_totals;
  for (const char* name :
       {"workloads.make", "core.stack_build", "workloads.setup_threads",
        "sim.run", "workloads.finalize", "core.stack_teardown",
        "check.analyze", "service.run"}) {
    span_totals[name] = ctx.spans.total(name);
  }
  if (!trace_out.empty()) {
    ctx.spans.write_chrome(trace_out);
  }

  Digest pass_digest;
  double sim_ms = 0.0;
  for (const RunRecord& r : runs) {
    pass_digest.add(r.digest);
    sim_ms += static_cast<double>(r.sim_ns) / 1e6;
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": "
     << ctx.seed << ", \"traced\": " << (ctx.traced ? "true" : "false")
     << ", \"host_s\": " << host_s << ", \"setup_s\": "
     << span_totals["workloads.make"] + span_totals["core.stack_build"] +
            span_totals["workloads.setup_threads"]
     << ", \"peak_rss_mb\": " << static_cast<double>(ru.ru_maxrss) / 1024.0
     << ", \"sim_ms\": " << sim_ms << ", \"sim_digest\": \""
     << hex(pass_digest.value()) << "\", \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    os << (i > 0 ? ", " : "") << "{\"label\": " << json_string(r.label)
       << ", \"group\": " << json_string(r.group)
       << ", \"checksum\": " << r.checksum
       << ", \"sim_ms\": " << static_cast<double>(r.sim_ns) / 1e6
       << ", \"sim_digest\": \"" << hex(r.digest) << "\", \"host_s\": "
       << r.host_s << ", \"error\": " << json_string(r.error) << "}";
  }
  os << "], \"spans\": ";
  write_map(os, span_totals);
  os << ", \"self_s\": ";
  write_map(os, ctx.spans.self_times());
  os << ", \"layers\": ";
  write_map(os, ctx.layers);
  os << "}\n";
  std::cout << os.str() << std::flush;
  return 0;
}

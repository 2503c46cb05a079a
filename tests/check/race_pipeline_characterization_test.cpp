// Characterization of the race-checking pipeline end to end: what the
// recorder captures, what the analyzer concludes, which pages the prune
// filter skips, and what a `report:pruned` run reports.
//
// Each case renders, as text:
//  * every recorded op of every thread: its kind, device, flags and the
//    `OffloadIR::describe()` rendering of each range it names;
//  * `analyze()`'s findings (`CheckTrace::to_string()`);
//  * the race partition: safe and must-check labels and page counts;
//  * `PruneFilter::page_count()` of the filter built from that partition;
//  * the checked and pruned page stamps and every rendered race report of
//    a `report:pruned` `run_program`.
//
// The buggy corpus is pinned verbatim. The QMCPack cell records 873 ops
// over 237 buffers, so its text is pinned by size and FNV-1a digest, with
// the counts spelled out; a mismatch prints the whole text. Every value
// was taken from the analyzer that resolved each range by a binary search
// per use and kept string-keyed per-buffer maps, the recorder that built
// and dropped an op for every suppressed record, and the detector that
// named every task and site as it began.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "zc/check/analyzer.hpp"
#include "zc/check/ir.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/race/prune.hpp"
#include "zc/workloads/buggy.hpp"
#include "zc/workloads/qmcpack.hpp"
#include "zc/workloads/runner.hpp"

namespace zc::workloads {
namespace {

using omp::RuntimeConfig;

/// Record `program`'s offload IR on a fresh stack under `config`.
check::OffloadIR record(const Program& program, RuntimeConfig config) {
  auto stack = std::make_unique<omp::OffloadStack>(
      omp::OffloadStack::machine_config_for(config),
      omp::OffloadStack::program_for(config, program.binary));
  check::Recorder rec{stack->machine().page_bytes()};
  stack->omp().set_recorder(&rec);
  program.setup_threads(*stack);
  stack->sched().run();
  stack.reset();
  return rec.build();
}

std::string render_ir(const check::OffloadIR& ir) {
  std::ostringstream out;
  for (const check::ThreadStream& t : ir.threads) {
    out << "thread " << t.thread << "\n";
    for (const check::IrOp& op : t.ops) {
      out << "  #" << op.ordinal << " " << check::to_string(op.kind) << " dev"
          << op.device;
      if (op.nowait) {
        out << " nowait";
      }
      if (!op.name.empty()) {
        out << " '" << op.name << "'";
      }
      for (const check::IrMap& m : op.maps) {
        out << " map:" << omp::to_string(m.type) << (m.always ? "+always" : "")
            << "=" << ir.describe(m.range);
      }
      for (const check::IrUse& u : op.uses) {
        out << " use:" << static_cast<int>(u.access) << "="
            << ir.describe(u.range);
      }
      if (op.range.bytes != 0) {
        out << " range=" << ir.describe(op.range);
      }
      if (op.src.bytes != 0) {
        out << " src=" << ir.describe(op.src);
      }
      out << "\n";
    }
  }
  return out.str();
}

/// Everything after the IR: the analysis, the filter and a pruned run.
std::string render_pipeline(const Program& program, RuntimeConfig config,
                            const check::OffloadIR& ir) {
  std::ostringstream out;
  const check::Analysis analysis = check::analyze(ir, config);
  out << analysis.trace.to_string();
  out << analysis.partition.to_string();
  const race::PruneFilter filter = race::PruneFilter::from_partition(
      analysis.partition.proven_safe, analysis.partition.must_check,
      ir.page_bytes);
  out << "filter pages: " << filter.page_count() << "\n";

  RunOptions options;
  options.config = config;
  options.race_check_spec = "report:pruned";
  const RunResult run = run_program(program, options);
  out << "stamps: checked " << run.race_checked_stamps << " pruned "
      << run.race_pruned_stamps << "\n";
  for (const trace::RaceReport& r : run.races.records()) {
    out << "race @" << r.time.since_start().ns() << "ns " << r.message
        << "\n";
  }
  return out.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Pinned {
  std::size_t bytes = 0;
  std::uint64_t digest = 0;
};

void expect_pinned(const std::string& text, Pinned want,
                   const std::string& what) {
  EXPECT_EQ(text.size(), want.bytes) << what << ":\n" << text;
  EXPECT_EQ(fnv1a(text), want.digest) << what << ":\n" << text;
}

/// The pipeline text without its per-buffer label lines.
std::string summary(const std::string& pipeline) {
  std::istringstream in{pipeline};
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("  safe: ") || line.starts_with("  must-check: ")) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

Program qmcpack_s2() {
  QmcpackParams p;
  p.size = 2;
  p.threads = 4;
  p.steps = 3;
  return make_qmcpack(p);
}

/// The recorded IR is the program's shape, the same under every config:
/// 873 ops over 237 buffers.
constexpr Pinned kQmcpackIr{66877, 11959255534505782596ULL};

/// Every zero-copy config prunes all but 6 stamps; Legacy Copy also stamps
/// its device-pool copies, which no recorded buffer covers.
constexpr const char* kQmcpackCopySummary =
    "check: 0 finding(s) over 873 op(s), 237 buffer(s)\n"
    "race-partition: 237 proven-safe / 0 must-check buffer(s), 96/332 "
    "page(s) pruned\n"
    "filter pages: 332\n"
    "stamps: checked 5290 pruned 1776\n";
constexpr const char* kQmcpackZeroCopySummary =
    "check: 0 finding(s) over 873 op(s), 237 buffer(s)\n"
    "race-partition: 237 proven-safe / 0 must-check buffer(s), 96/332 "
    "page(s) pruned\n"
    "filter pages: 332\n"
    "stamps: checked 6 pruned 4172\n";

struct QmcpackCase {
  RuntimeConfig config;
  Pinned pipeline;
  const char* summary;
};

TEST(RacePipelineCharacterization, QmcpackUnderEveryConfig) {
  const Pinned zero_copy{5504, 12251986705155904513ULL};
  const std::vector<QmcpackCase> cases{
      {RuntimeConfig::LegacyCopy,
       {5507, 13553601394271669658ULL},
       kQmcpackCopySummary},
      {RuntimeConfig::UnifiedSharedMemory, zero_copy, kQmcpackZeroCopySummary},
      {RuntimeConfig::ImplicitZeroCopy, zero_copy, kQmcpackZeroCopySummary},
      {RuntimeConfig::EagerMaps, zero_copy, kQmcpackZeroCopySummary},
      {RuntimeConfig::AdaptiveMaps, zero_copy, kQmcpackZeroCopySummary},
  };
  const Program program = qmcpack_s2();
  for (const QmcpackCase& c : cases) {
    SCOPED_TRACE(omp::to_string(c.config));
    const check::OffloadIR ir = record(program, c.config);
    expect_pinned(render_ir(ir), kQmcpackIr, "ir");
    const std::string pipeline = render_pipeline(program, c.config, ir);
    EXPECT_EQ(summary(pipeline), c.summary);
    expect_pinned(pipeline, c.pipeline, "pipeline");
  }
}

struct BuggyCase {
  const char* name;
  Program (*make)();
  const char* ir;
  const char* pipeline;
};

TEST(RacePipelineCharacterization, BuggyCorpus) {
  const std::vector<BuggyCase> cases{
      {"missing_map", make_buggy_missing_map,
       "thread buggy-main\n"
       "  #0 host_touch dev0 range=mapped\n"
       "  #1 host_touch dev0 range=orphan\n"
       "  #2 target dev0 'use-orphan' map:to=mapped use:0=orphan\n"
       "  #3 host_free dev0 range=mapped\n"
       "  #4 host_free dev0 range=orphan\n",
       "check: 1 finding(s) over 5 op(s), 2 buffer(s)\n"
       "  use-before-map buggy-main#2 dev0 orphan: kernel 'use-orphan' uses "
       "data never made present\n"
       "race-partition: 2 proven-safe / 0 must-check buffer(s), 0/2 page(s) "
       "pruned\n"
       "  safe: mapped\n"
       "  safe: orphan\n"
       "filter pages: 2\n"
       "stamps: checked 6 pruned 4\n"},
      {"stale_data", make_buggy_stale_data,
       "thread buggy-main\n"
       "  #0 host_touch dev0 range=x\n"
       "  #1 target_enter_data dev0 map:to=x\n"
       "  #2 target dev0 'double-x' use:2=x\n"
       "  #3 target_exit_data dev0 map:delete=x\n"
       "  #4 host_read dev0 range=x\n"
       "  #5 host_free dev0 range=x\n",
       "check: 1 finding(s) over 6 op(s), 1 buffer(s)\n"
       "  stale-host-read buggy-main#4 dev0 x: host reads kernel-written bytes "
       "never copied back (no 'target update from'); stale under Implicit "
       "Zero-Copy-style copying\n"
       "race-partition: 1 proven-safe / 0 must-check buffer(s), 0/1 page(s) "
       "pruned\n"
       "  safe: x\n"
       "filter pages: 1\n"
       "stamps: checked 6 pruned 3\n"},
      {"double_delete", make_buggy_double_delete,
       "thread buggy-main\n"
       "  #0 host_touch dev0 range=x\n"
       "  #1 target_enter_data dev0 map:tofrom=x\n"
       "  #2 target_enter_data dev0 map:tofrom=x\n"
       "  #3 target dev0 'double-x' use:2=x\n"
       "  #4 target_exit_data dev0 map:delete=x\n"
       "  #5 target_exit_data dev0 map:tofrom=x\n"
       "  #6 host_free dev0 range=x\n",
       "check: 1 finding(s) over 7 op(s), 1 buffer(s)\n"
       "  double-release buggy-main#5 dev0 x: 'tofrom' of a range with no live "
       "mapping\n"
       "race-partition: 1 proven-safe / 0 must-check buffer(s), 0/1 page(s) "
       "pruned\n"
       "  safe: x\n"
       "filter pages: 1\n"
       "stamps: checked 6 pruned 2\n"},
      {"coherence", make_buggy_coherence,
       "thread buggy-main\n"
       "  #0 host_touch dev0 range=x\n"
       "  #1 host_touch dev0 range=result\n"
       "  #2 target_enter_data dev0 map:to=x\n"
       "  #3 host_touch dev0 range=x\n"
       "  #4 target dev0 'sum-x' map:tofrom=result use:0=x\n"
       "  #5 target_exit_data dev0 map:delete=x\n"
       "  #6 host_free dev0 range=result\n"
       "  #7 host_free dev0 range=x\n",
       "check: 1 finding(s) over 8 op(s), 2 buffer(s)\n"
       "  config-divergence buggy-main#4 dev0 x: kernel 'sum-x' reads host "
       "bytes written after the to-transfer; correct only under coherent "
       "zero-copy (config Implicit Zero-Copy diverges)\n"
       "race-partition: 2 proven-safe / 0 must-check buffer(s), 0/2 page(s) "
       "pruned\n"
       "  safe: result\n"
       "  safe: x\n"
       "filter pages: 2\n"
       "stamps: checked 6 pruned 5\n"},
      {"nowait_race", make_buggy_nowait_race,
       "thread buggy-main\n"
       "  #0 host_touch dev0 range=x\n"
       "  #1 target dev0 nowait 'inflight' map:tofrom=x\n"
       "  #2 host_touch dev0 range=x\n"
       "  #3 target_wait dev0 'inflight' map:tofrom=x\n"
       "  #4 host_free dev0 range=x\n",
       "check: 0 finding(s) over 5 op(s), 1 buffer(s)\n"
       "race-partition: 0 proven-safe / 1 must-check buffer(s), 0/1 page(s) "
       "pruned\n"
       "  must-check: x\n"
       "filter pages: 0\n"
       "stamps: checked 9 pruned 0\n"
       "race @13248381ns page-race on page@2097152[2097152]: write by "
       "'buggy-main' at host_touch('x') {0:7} is unordered with write by "
       "'kernel:inflight@dev0' at kernel:inflight(x) {0:5, 1:1}\n"},
  };
  for (const BuggyCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Program program = c.make();
    const check::OffloadIR ir =
        record(program, RuntimeConfig::ImplicitZeroCopy);
    EXPECT_EQ(render_ir(ir), c.ir);
    EXPECT_EQ(render_pipeline(program, RuntimeConfig::ImplicitZeroCopy, ir),
              c.pipeline);
  }
}

}  // namespace
}  // namespace zc::workloads

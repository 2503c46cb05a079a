// Recorder / OffloadIR structure tests: the record-only observer attached
// to a real OffloadRuntime must capture one op per user-visible construct
// (composite constructs suppress their internal data-begin/data-end
// halves), pair nowait dispatches with their waits, and assign buffers
// deterministic symbolic labels that never depend on raw addresses.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "zc/check/ir.hpp"
#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"
#include "zc/sim/scheduler.hpp"

namespace zc::check {
namespace {

using omp::HostArray;
using omp::MapEntry;
using omp::OffloadRuntime;
using omp::OffloadStack;
using omp::TargetRegion;
using sim::literals::operator""_us;

std::unique_ptr<OffloadStack> make_stack(
    omp::RuntimeConfig cfg = omp::RuntimeConfig::ImplicitZeroCopy,
    omp::ProgramBinary prog = {}) {
  return std::make_unique<OffloadStack>(
      OffloadStack::machine_config_for(cfg), std::move(prog));
}

TEST(CheckIr, OneOpPerConstructInProgramOrder) {
  auto stack = make_stack();
  Recorder rec{stack->machine().page_bytes()};
  stack->omp().set_recorder(&rec);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 512, "x"};
    x.first_touch();
    const MapEntry map = x.tofrom();
    rt.target_data_begin({&map, 1});
    rt.target(TargetRegion{.name = "k",
                           .maps = {},
                           .uses = {omp::BufferUse{x.addr(), x.bytes(),
                                                   hsa::Access::ReadWrite}},
                           .compute = 5_us,
                           .body = {}});
    rt.target_data_end({&map, 1});
    const MapEntry upd = x.to();
    rt.target_update_to(upd);
    rt.host_read(x.range());
    x.release();
  });

  const OffloadIR ir = rec.build();
  ASSERT_EQ(ir.threads.size(), 1u);
  const ThreadStream& t = ir.threads.front();
  EXPECT_EQ(t.thread, "main");
  ASSERT_EQ(t.ops.size(), 7u);
  const OpKind expected[] = {OpKind::HostTouch, OpKind::DataBegin,
                             OpKind::Kernel,    OpKind::DataEnd,
                             OpKind::UpdateTo,  OpKind::HostRead,
                             OpKind::HostFree};
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    EXPECT_EQ(t.ops[i].kind, expected[i]) << "op " << i;
    EXPECT_EQ(t.ops[i].ordinal, i);
  }
  // The composite `target` is ONE op: its internal data-begin/data-end
  // halves were suppressed, and the kernel's enclosing-environment use
  // rides on the Kernel op itself.
  EXPECT_EQ(t.ops[2].name, "k");
  ASSERT_EQ(t.ops[2].uses.size(), 1u);
  EXPECT_EQ(t.ops[2].uses.front().access, hsa::Access::ReadWrite);
  EXPECT_EQ(ir.op_count(), 7u);
  ASSERT_EQ(ir.buffers.size(), 1u);
  EXPECT_EQ(ir.buffers.front().label, "x");
  EXPECT_EQ(ir.buffers.front().kind, BufKind::Host);
}

TEST(CheckIr, NowaitDispatchAndWaitSharePairingToken) {
  auto stack = make_stack();
  Recorder rec{stack->machine().page_bytes()};
  stack->omp().set_recorder(&rec);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 512, "x"};
    x.first_touch();
    omp::TargetTask task = rt.target_nowait(TargetRegion{
        .name = "async", .maps = {x.tofrom()}, .compute = 5_us, .body = {}});
    rt.target_wait(task);
    x.release();
  });

  const OffloadIR ir = rec.build();
  ASSERT_EQ(ir.threads.size(), 1u);
  const ThreadStream& t = ir.threads.front();
  ASSERT_EQ(t.ops.size(), 4u);  // touch, dispatch, wait, free
  const IrOp& dispatch = t.ops[1];
  const IrOp& wait = t.ops[2];
  EXPECT_EQ(dispatch.kind, OpKind::Kernel);
  EXPECT_TRUE(dispatch.nowait);
  EXPECT_EQ(wait.kind, OpKind::KernelWait);
  EXPECT_EQ(wait.name, "async");
  EXPECT_NE(dispatch.token, 0u);
  EXPECT_EQ(dispatch.token, wait.token);
  // The wait op carries a copy of the dispatch's map clauses, so a
  // per-thread walk can replay the data-end half at the wait point.
  ASSERT_EQ(wait.maps.size(), 1u);
  EXPECT_EQ(wait.maps.front().type, omp::MapType::ToFrom);
  EXPECT_EQ(wait.maps.front().range.bytes, 512 * sizeof(double));
}

TEST(CheckIr, DuplicateNamesGetThreadQualifiedLabels) {
  auto stack = make_stack();
  Recorder rec{stack->machine().page_bytes()};
  stack->omp().set_recorder(&rec);
  auto worker = [&stack](const char* unique_name) {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> a{rt, 64, "buf"};
    HostArray<double> b{rt, 64, "buf"};
    HostArray<double> c{rt, 64, unique_name};
    a.first_touch();
    b.first_touch();
    c.first_touch();
    a.release();
    b.release();
    c.release();
  };
  stack->sched().spawn("alice", [&] { worker("alice-only"); });
  stack->sched().spawn("bob", [&] { worker("bob-only"); });
  stack->sched().run();

  const OffloadIR ir = rec.build();
  ASSERT_EQ(ir.threads.size(), 2u);
  EXPECT_EQ(ir.threads[0].thread, "alice");  // sorted by name
  EXPECT_EQ(ir.threads[1].thread, "bob");
  ASSERT_EQ(ir.buffers.size(), 6u);
  std::set<std::string> labels;
  for (const IrBuffer& b : ir.buffers) {
    labels.insert(b.label);
  }
  // Run-wide-unique names keep their bare label; duplicates are qualified
  // by allocating thread and per-thread occurrence index.
  const std::set<std::string> expected{"buf@alice#0", "buf@alice#1",
                                       "buf@bob#0",   "buf@bob#1",
                                       "alice-only",  "bob-only"};
  EXPECT_EQ(labels, expected);
}

TEST(CheckIr, DescribeRendersSubrangesWithoutAddresses) {
  auto stack = make_stack();
  Recorder rec{stack->machine().page_bytes()};
  stack->omp().set_recorder(&rec);
  mem::AddrRange range{};
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 512, "x"};
    x.first_touch();
    range = x.range();
    x.release();
  });
  const OffloadIR ir = rec.build();
  EXPECT_EQ(ir.describe(range), "x");
  EXPECT_EQ(ir.describe(mem::AddrRange{range.base + 16, 32}), "x+16:32B");
  EXPECT_EQ(ir.describe(mem::AddrRange{mem::VirtAddr{1}, 8}), "<unknown:8B>");
  EXPECT_EQ(ir.find(mem::VirtAddr{1}), nullptr);
}

TEST(CheckIr, DeclareTargetGlobalsRegisterAsGlobalBuffers) {
  omp::ProgramBinary prog;
  prog.globals.push_back(omp::GlobalVar{"alpha", sizeof(double)});
  auto stack = make_stack(omp::RuntimeConfig::ImplicitZeroCopy, prog);
  Recorder rec{stack->machine().page_bytes()};
  stack->omp().set_recorder(&rec);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 64, "x"};
    x.first_touch();
    rt.target(TargetRegion{.name = "k",
                           .maps = {x.tofrom()},
                           .compute = 1_us,
                           .body = {}});
    x.release();
  });
  const OffloadIR ir = rec.build();
  bool found = false;
  for (const IrBuffer& b : ir.buffers) {
    if (b.name == "global:alpha") {
      found = true;
      EXPECT_EQ(b.kind, BufKind::Global);
      EXPECT_TRUE(b.thread.empty());
      EXPECT_EQ(b.range.bytes, sizeof(double));
    }
  }
  EXPECT_TRUE(found);
}

TEST(CheckIr, FinishedRecordingMovesIntoTheIrInsteadOfBeingCopied) {
  Recorder rec{omp::OffloadStack::machine_config_for(
                   omp::RuntimeConfig::ImplicitZeroCopy)
                   .env.page_bytes()};
  auto stack = make_stack();
  stack->omp().set_recorder(&rec);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 64, "x"};
    x.first_touch();
    rt.target(TargetRegion{.name = "k",
                           .maps = {x.tofrom()},
                           .compute = 1_us,
                           .body = {}});
    x.release();
  });
  // While the runtime lives it may still record, so each build is a copy:
  // counting ops on the live stack leaves the analysis its whole input.
  const OffloadIR live = rec.build();
  ASSERT_GT(live.op_count(), 0u);
  EXPECT_EQ(rec.build().op_count(), live.op_count());
  // Once it is gone the recording is complete and moves out, once.
  stack.reset();
  const OffloadIR done = rec.build();
  EXPECT_EQ(done.op_count(), live.op_count());
  EXPECT_EQ(done.buffers.size(), live.buffers.size());
  const OffloadIR again = rec.build();
  EXPECT_EQ(again.op_count(), 0u);
  EXPECT_TRUE(again.buffers.empty());
}

TEST(CheckIr, RecordingIsInertWhenNoRecorderInstalled) {
  // Guard against accidental coupling: a stack without a recorder runs
  // the same program without touching any recording state.
  auto stack = make_stack();
  EXPECT_EQ(stack->omp().recorder(), nullptr);
  stack->sched().run_single([&] {
    OffloadRuntime& rt = stack->omp();
    HostArray<double> x{rt, 64, "x"};
    x.first_touch();
    rt.target(TargetRegion{.name = "k",
                           .maps = {x.tofrom()},
                           .compute = 1_us,
                           .body = {}});
    x.release();
  });
}

}  // namespace
}  // namespace zc::check

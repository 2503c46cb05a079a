#include "zc/trace/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "zc/core/host_array.hpp"
#include "zc/core/offload_stack.hpp"

namespace zc::trace {
namespace {

using namespace zc::sim::literals;

sim::TimePoint at(std::int64_t us) {
  return sim::TimePoint::zero() + sim::Duration::microseconds(us);
}

TEST(ChromeTrace, EmptyDocumentIsValidJsonShell) {
  ChromeTraceWriter w;
  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  EXPECT_EQ(out.find("{\"traceEvents\":[]"), 0u);
  EXPECT_NE(out.find("apuzc simulator"), std::string::npos);
  EXPECT_EQ(w.event_count(), 0u);
}

TEST(ChromeTrace, KernelEventsIncludeFaultArguments) {
  KernelRecord k;
  k.name = "nio_drift";
  k.host_thread = 2;
  k.start = at(100);
  k.end = at(150);
  k.fault_stall = 30_us;
  k.page_faults = 4;
  ChromeTraceWriter w;
  w.add(std::vector<KernelRecord>{k});
  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"nio_drift\""), std::string::npos);
  EXPECT_NE(out.find("\"page_faults\":4"), std::string::npos);
  EXPECT_NE(out.find("\"fault_stall_us\":30"), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"kernel\""), std::string::npos);
}

TEST(ChromeTrace, MultiDeviceEventsLandOnSeparateLanes) {
  // Kernels on devices 0 and 2, a cross-socket copy carried by device 1's
  // SDMA engine, and a fault on device 3 must each land on their own
  // (pid, tid) track — never interleaved on one timeline.
  KernelRecord k0;
  k0.name = "shard0";
  k0.device = 0;
  k0.start = at(10);
  k0.end = at(20);
  KernelRecord k2;
  k2.name = "shard2";
  k2.device = 2;
  k2.start = at(10);
  k2.end = at(22);
  k2.remote_bytes = 4096;

  CopyRecord c;
  c.device = 1;
  c.src_socket = 1;
  c.dst_socket = 3;
  c.submit = at(1);
  c.start = at(5);
  c.end = at(9);
  c.bytes = 4096;

  FaultTrace faults;
  FaultRecord f;
  f.injected = fault::Kind::KernelHang;
  f.device = 3;
  f.time = at(7);
  faults.record(f);

  ChromeTraceWriter w;
  w.add(std::vector<KernelRecord>{k0, k2});
  w.add(std::vector<CopyRecord>{c});
  w.add(faults);
  EXPECT_EQ(w.event_count(), 4u);

  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  // GPU lane (pid 2): one thread per device.
  EXPECT_NE(out.find("\"pid\":2,\"tid\":0"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":2,\"tid\":2"), std::string::npos);
  EXPECT_NE(out.find("\"remote_bytes\":4096"), std::string::npos);
  // SDMA lane (pid 3) keyed by the engine's device, with both endpoints
  // in the arguments.
  EXPECT_NE(out.find("\"pid\":3,\"tid\":1"), std::string::npos);
  EXPECT_NE(out.find("\"src_socket\":1"), std::string::npos);
  EXPECT_NE(out.find("\"dst_socket\":3"), std::string::npos);
  EXPECT_NE(out.find("\"cross_socket\":true"), std::string::npos);
  // Fault lane (pid 4), an injection named by its spec token.
  EXPECT_NE(out.find("\"pid\":4,\"tid\":3"), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"kernel_hang\",\"ph\":\"i\""),
            std::string::npos);
  // Process-name metadata labels every lane.
  for (const char* lane : {"\"name\":\"host\"", "\"name\":\"gpu\"",
                           "\"name\":\"sdma\"", "\"name\":\"faults\""}) {
    EXPECT_NE(out.find(lane), std::string::npos) << lane;
  }
  // No kernel ever appears on another device's track.
  EXPECT_EQ(out.find("\"pid\":2,\"tid\":1"), std::string::npos);
  EXPECT_EQ(out.find("\"pid\":2,\"tid\":3"), std::string::npos);
}

TEST(ChromeTrace, DecisionEventsCarryPolicyArguments) {
  DecisionTrace decisions;
  DecisionRecord d;
  d.decision = adapt::Decision::EagerPrefault;
  d.host_thread = 4;
  d.device = 1;
  d.time = at(42);
  d.host_base = 0x1000;
  d.bytes = 8192;
  d.pages = 2;
  d.cpu_resident_pages = 1;
  d.gpu_absent_pages = 2;
  d.predicted_copy_us = 120.5;
  d.predicted_zero_copy_us = 910.0;
  d.predicted_eager_us = 58.25;
  d.revised = true;
  decisions.record(d);

  ChromeTraceWriter w;
  w.add(decisions);
  EXPECT_EQ(w.event_count(), 1u);
  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"adapt:eager-prefault\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"adapt\""), std::string::npos);
  EXPECT_NE(out.find("\"tid\":4"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":42"), std::string::npos);
  EXPECT_NE(out.find("\"device\":1"), std::string::npos);
  EXPECT_NE(out.find("\"pages\":2"), std::string::npos);
  EXPECT_NE(out.find("\"revised\":true"), std::string::npos);
  // Braces and brackets balance with the instant event present.
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST(ChromeTrace, DecisionEventsFromAnAdaptiveRun) {
  omp::OffloadStack stack{
      omp::OffloadStack::machine_config_for(omp::RuntimeConfig::AdaptiveMaps),
      omp::OffloadStack::program_for(omp::RuntimeConfig::AdaptiveMaps, {})};
  stack.sched().run_single([&] {
    omp::OffloadRuntime& rt = stack.omp();
    omp::HostArray<double> x{rt, 4096, "x"};
    rt.target(omp::TargetRegion{.name = "adaptive_traced",
                                .maps = {x.tofrom()},
                                .compute = 25_us,
                                .body = {}});
    x.release();
  });
  ChromeTraceWriter w;
  w.add(stack.omp().decision_trace());
  EXPECT_GE(w.event_count(), 1u);
  std::ostringstream os;
  w.write(os);
  EXPECT_NE(os.str().find("\"cat\":\"adapt\""), std::string::npos);
}

TEST(ChromeTrace, EndToEndFromARealRun) {
  omp::OffloadStack stack{
      omp::OffloadStack::machine_config_for(omp::RuntimeConfig::LegacyCopy),
      omp::OffloadStack::program_for(omp::RuntimeConfig::LegacyCopy, {})};
  stack.hsa().set_keep_records(true);
  stack.sched().run_single([&] {
    omp::OffloadRuntime& rt = stack.omp();
    omp::HostArray<double> x{rt, 4096, "x"};
    rt.target(omp::TargetRegion{.name = "traced",
                                .maps = {x.tofrom()},
                                .compute = 25_us,
                                .body = {}});
    x.release();
  });
  ChromeTraceWriter w;
  w.add(stack.hsa().kernel_records());
  w.add(stack.hsa().copy_records());
  // The kernel, plus the image-load and map copies.
  EXPECT_EQ(stack.hsa().kernel_records().size(), 1u);
  EXPECT_GT(stack.hsa().copy_records().size(), 0u);
  EXPECT_EQ(w.event_count(), 1u + stack.hsa().copy_records().size());

  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  // Braces and brackets balance (cheap JSON sanity).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
  EXPECT_NE(out.find("\"name\":\"traced\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"sdma-copy\""), std::string::npos);
}

TEST(ChromeTrace, ServiceJobsRenderOnTenantTracks) {
  ServiceJobRecord done;
  done.tenant = 2;
  done.job = 7;
  done.device = 1;
  done.pages = 16;
  done.arrival = at(100);
  done.start = at(120);
  done.end = at(180);
  done.outcome = ServiceJobOutcome::Completed;
  ServiceJobRecord shed;
  shed.tenant = 3;
  shed.job = 9;
  shed.pages = 4;
  shed.arrival = at(200);
  shed.start = at(200);
  shed.end = at(200);
  shed.outcome = ServiceJobOutcome::Shed;
  ChromeTraceWriter w;
  w.add(std::vector<ServiceJobRecord>{done, shed});
  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  // Completed job: a span on the service pid, tid = tenant, with the
  // queue-wait and outcome in args.
  EXPECT_NE(out.find("\"name\":\"job\",\"ph\":\"X\",\"pid\":5,\"tid\":2"),
            std::string::npos);
  EXPECT_NE(out.find("\"queue_wait_us\":20"), std::string::npos);
  EXPECT_NE(out.find("\"outcome\":\"completed\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":80"), std::string::npos);
  // Shed job: an instant, never a span.
  EXPECT_NE(out.find("\"name\":\"job-shed\",\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"tid\":3"), std::string::npos);
  EXPECT_EQ(w.event_count(), 2u);
}

}  // namespace
}  // namespace zc::trace

#pragma once

#include <memory>
#include <vector>

#include "zc/apu/env.hpp"
#include "zc/apu/params.hpp"
#include "zc/fabric/fabric.hpp"
#include "zc/fault/engine.hpp"
#include "zc/sim/jitter.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/sim/timeline.hpp"

namespace zc::apu {

/// One simulated node: scheduler, shared hardware resources, cost model,
/// jitter, and fault injection.
///
/// `Machine` owns the pieces every layer above shares:
///  * the deterministic fiber scheduler hosting the virtual OpenMP threads;
///  * resource timelines for the GPU kernel slots, the SDMA copy engines,
///    and the single driver/page-table lock (prefault syscalls and fault
///    servicing serialize here — the contention the paper attributes the
///    Eager Maps multi-thread penalty to);
///  * the cost model and the per-run jitter model;
///  * the fault-injection engine.
class Machine {
 public:
  struct Config {
    MachineKind kind = MachineKind::ApuMi300a;
    Topology topology{};
    CostParams costs{};
    AdaptParams adapt{};
    DegradeParams degrade{};
    RunEnvironment env{};
    sim::JitterParams jitter{};
    std::uint64_t seed = 1;
  };

  /// `config.env` overrides are applied first: `OMPX_APU_SOCKETS` (when
  /// positive) replaces `topology.sockets`, and `OMPX_APU_FABRIC` selects
  /// the inter-socket pricing model (see `fabric::FabricMode`).
  explicit Machine(Config config);

  /// MI300A node with default topology/costs and the given environment.
  [[nodiscard]] static Machine mi300a(RunEnvironment env = {},
                                      sim::JitterParams jitter = {},
                                      std::uint64_t seed = 1);

  /// Discrete-GPU node (separate host/device storage, PCIe-style link).
  [[nodiscard]] static Machine discrete_gpu(RunEnvironment env = {},
                                            sim::JitterParams jitter = {},
                                            std::uint64_t seed = 1);

  [[nodiscard]] MachineKind kind() const { return config_.kind; }
  [[nodiscard]] bool is_apu() const {
    return config_.kind == MachineKind::ApuMi300a;
  }
  [[nodiscard]] const Topology& topology() const { return config_.topology; }
  [[nodiscard]] const CostParams& costs() const { return config_.costs; }
  [[nodiscard]] const AdaptParams& adapt_params() const {
    return config_.adapt;
  }
  [[nodiscard]] const DegradeParams& degrade_params() const {
    return config_.degrade;
  }
  [[nodiscard]] const RunEnvironment& env() const { return config_.env; }
  /// The machine seed (fault engine, jitter, reclaim victim tie-breaks).
  [[nodiscard]] std::uint64_t seed() const { return config_.seed; }
  [[nodiscard]] std::uint64_t page_bytes() const {
    return config_.env.page_bytes();
  }

  [[nodiscard]] sim::Scheduler& sched() { return sched_; }
  /// The deterministic fault-injection engine, built from the environment's
  /// `OMPX_APU_FAULTS` schedule and the machine seed. Consulted from the
  /// HSA layer; fault-free runs carry an empty (disabled) engine.
  [[nodiscard]] fault::FaultEngine& faults() { return faults_; }
  [[nodiscard]] const fault::FaultEngine& faults() const { return faults_; }

  /// Number of APU sockets (each socket's GPU is one OpenMP device).
  [[nodiscard]] int sockets() const { return config_.topology.sockets; }

  /// The node's modeled Infinity Fabric. Disabled (`!fabric().enabled()`)
  /// unless the environment selects `OMPX_APU_FABRIC=xgmi|uniform` on a
  /// multi-socket topology, in which case cross-socket SDMA and kernel
  /// traffic is routed (and queued) over its per-pair links.
  [[nodiscard]] fabric::Fabric& fabric() { return fabric_; }
  [[nodiscard]] const fabric::Fabric& fabric() const { return fabric_; }

  /// GPU kernel execution slots of one socket.
  [[nodiscard]] sim::ResourceTimeline& gpu(int socket = 0) {
    return per_socket(gpu_, socket);
  }
  /// Asynchronous copy engines of one socket.
  [[nodiscard]] sim::ResourceTimeline& sdma(int socket = 0) {
    return per_socket(sdma_, socket);
  }
  /// Driver / GPU-page-table lock of one socket.
  [[nodiscard]] sim::ResourceTimeline& driver(int socket = 0) {
    return per_socket(driver_, socket);
  }
  /// CPU-side OpenMP/ROCr runtime lock: packet submission and copy
  /// submission serialize here. This is the shared "runtime stack" whose
  /// contention the paper credits for Copy scaling worse than zero-copy as
  /// host threads are added (§V-A.2). One per process, not per socket.
  [[nodiscard]] sim::ResourceTimeline& runtime_lock() { return runtime_lock_; }

  /// Apply run-to-run noise to a modeled cost (identity when jitter is
  /// off). Baseline operations carry only the log-normal term.
  [[nodiscard]] sim::Duration jittered(sim::Duration d) {
    return jitter_.apply(d);
  }
  /// Noise for syscall-path operations (`svm_attributes_set`): log-normal
  /// term plus the rare large outliers the paper attributes to OS
  /// interference on the prefaulting system call (§V-A.1).
  [[nodiscard]] sim::Duration jittered_syscall(sim::Duration d) {
    return syscall_jitter_.apply(d);
  }

  /// Time to DMA-copy `bytes` (engine-resident duration).
  [[nodiscard]] sim::Duration copy_duration(std::uint64_t bytes) const;

  /// Time to service one GPU page fault via XNACK-replay. A fault on a page
  /// that is already CPU-resident only walks and mirrors the translation; a
  /// fault on an untouched page additionally materializes (allocates and
  /// zeroes) it — the expensive GPU-side first-touch path.
  [[nodiscard]] sim::Duration fault_service_duration(bool cpu_resident) const;

 private:
  [[nodiscard]] sim::ResourceTimeline& per_socket(
      std::vector<sim::ResourceTimeline>& v, int socket);
  /// Apply the environment's topology/fabric overrides before any member
  /// that depends on the socket count is built.
  [[nodiscard]] static Config normalized(Config config);

  Config config_;
  sim::Scheduler sched_;
  fault::FaultEngine faults_;
  sim::JitterModel jitter_;
  sim::JitterModel syscall_jitter_;
  std::vector<sim::ResourceTimeline> gpu_;
  std::vector<sim::ResourceTimeline> sdma_;
  std::vector<sim::ResourceTimeline> driver_;
  sim::ResourceTimeline runtime_lock_;
  fabric::Fabric fabric_;
};

}  // namespace zc::apu

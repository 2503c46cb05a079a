#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "zc/apu/machine.hpp"
#include "zc/fault/engine.hpp"
#include "zc/hsa/kernel.hpp"
#include "zc/hsa/signal.hpp"
#include "zc/hsa/watchdog.hpp"
#include "zc/mem/memory_system.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/trace/call_stats.hpp"
#include "zc/trace/copy_trace.hpp"
#include "zc/trace/fault_trace.hpp"
#include "zc/trace/kernel_trace.hpp"
#include "zc/trace/overhead_ledger.hpp"

namespace zc::hsa {

/// Raised when a kernel touches memory outside the live allocation its
/// buffer starts in (whatever XNACK's setting), or a page the GPU cannot
/// translate while XNACK replay is disabled: on real hardware, a fatal
/// memory violation.
class GpuMemoryFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Raised by the throwing convenience wrappers (`memory_pool_allocate`,
/// `svm_attributes_set_prefault`) when the underlying `try_` call fails.
/// Callers with a degradation path use the `try_` variants instead.
class HsaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `hsa_status_t`-style result codes for the calls that can fail.
enum class Status {
  Ok,
  OutOfMemory,  ///< pool allocation: HBM exhausted (organic or injected)
  Interrupted,  ///< prefault syscall: transient EINTR
  Busy,         ///< prefault syscall: transient EBUSY
  TimedOut,     ///< prefault syscall hung; the watchdog aborted it
};

[[nodiscard]] constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::Ok:
      return "ok";
    case Status::OutOfMemory:
      return "out-of-memory";
    case Status::Interrupted:
      return "interrupted";
    case Status::Busy:
      return "busy";
    case Status::TimedOut:
      return "timed-out";
  }
  return "?";
}

/// Result of `try_memory_pool_allocate`.
struct PoolAllocResult {
  Status status = Status::Ok;
  mem::VirtAddr addr;
  /// Pages the driver spilled to the DDR tier to make this allocation fit
  /// (`OMPX_APU_PRESSURE=watermarks` only). Non-zero signals the caller
  /// that the node is under memory pressure without the allocation having
  /// failed.
  std::uint64_t reclaimed = 0;
  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

/// Result of `try_svm_attributes_set_prefault`.
struct PrefaultResult {
  Status status = Status::Ok;
  mem::PrefaultOutcome outcome;
  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

/// Per-device (per-socket) accumulators, maintained by every API call. They
/// answer "what did each APU do" for multi-device runs: kernels and their
/// faults and time split from the dispatch path, copies from the SDMA path
/// (attributed to the engine's device), migrations from `migrate_pages`.
/// The multi-tenant service keeps one more row per tenant, bumped at the
/// same kernel and copy sites (see `configure_tenants`).
struct DeviceCounters {
  std::uint64_t kernels = 0;
  std::uint64_t remote_kernels = 0;  ///< launches touching remote-homed bytes
  std::uint64_t page_faults = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t copies = 0;
  std::uint64_t copy_bytes = 0;
  std::uint64_t cross_socket_copies = 0;
  std::uint64_t migrated_pages = 0;  ///< pages migrated onto this device
  std::uint64_t evicted_pages = 0;   ///< pages spilled to DDR by reclaim here
  std::uint64_t promoted_pages = 0;  ///< DDR pages promoted back by this device
  sim::Duration gpu_time;     ///< summed kernel durations on the GPU
  sim::Duration compute;      ///< their modeled compute portion
  /// Their fault-term portion: XNACK fault service, plus the pressure
  /// driver work folded into a kernel's stall even when it had no faults
  /// (so this is not Table III's MI, which `OverheadLedger::mi` holds).
  sim::Duration fault_stall;
  sim::Duration tlb_stall;    ///< their page-table walk portion

  DeviceCounters& operator+=(const DeviceCounters& o);
};

/// The simulated ROCr/HSA runtime: the API surface the OpenMP offload
/// runtime is written against, instrumented like `rocprof --hsa-trace`.
///
/// Every public method is called from a virtual host thread, advances that
/// thread's clock by the CPU-side cost of the call, places device-side work
/// on the machine's resource timelines (GPU kernel slots, SDMA engines,
/// driver lock), and records its call count and attributed latency in
/// `CallStats`. The memory-state consequences (page tables, TLB) go through
/// `mem::MemorySystem`.
class Runtime {
 public:
  Runtime(apu::Machine& machine, mem::MemorySystem& mem);

  /// --- signals -----------------------------------------------------------
  [[nodiscard]] Signal signal_create();

  /// Block until `s` completes; charged the blocked time.
  void signal_wait_scacquire(Signal s);

  /// --- memory ------------------------------------------------------------
  /// Allocate "device" memory from the ROCr pool. On an APU the driver
  /// fulfills this from the single HBM storage and bulk-prefaults the GPU
  /// page table (XNACK-disabled semantics): the whole range is GPU-
  /// translatable on return. `count_in_ledger=false` exempts one-time
  /// image-load/init work from the Table III steady-state MM accounting
  /// (call statistics always record).
  ///
  /// Failure surface: returns `Status::OutOfMemory` when the fault engine
  /// injects an OOM or the socket's HBM capacity is exhausted; the failed
  /// driver round trip still costs `pool_alloc_base` and is recorded in
  /// the call stats and the fault trace.
  [[nodiscard]] PoolAllocResult try_memory_pool_allocate(
      std::uint64_t bytes, std::string name, bool count_in_ledger = true,
      int device = 0);

  /// Throwing wrapper (HsaError on OOM) for callers with no degraded mode.
  mem::VirtAddr memory_pool_allocate(std::uint64_t bytes, std::string name,
                                     bool count_in_ledger = true,
                                     int device = 0);

  void memory_pool_free(mem::VirtAddr base);

  /// Submit an async DMA copy; the returned signal completes when the SDMA
  /// engine finishes. The byte transfer is performed functionally at submit
  /// time (program order on the issuing thread preserves dataflow).
  /// `with_handler` models registering a host completion callback
  /// (`signal_async_handler`), as the OpenMP Copy configuration does for
  /// device-to-host transfers.
  ///
  /// Failure surface: when the fault engine injects an SDMA error the
  /// functional transfer is suppressed (no bytes delivered) and the signal
  /// completes *with an error payload* at the same time a successful copy
  /// would have — callers must check `Signal::errored()` and resubmit. An
  /// injected `sdma_stall` also suppresses the transfer but leaves the
  /// signal forever incomplete (watched by the watchdog when configured);
  /// waiters unblocked by a watchdog abort must check `Signal::aborted()`
  /// and resubmit.
  Signal memory_async_copy(mem::VirtAddr dst, mem::VirtAddr src,
                           std::uint64_t bytes, bool with_handler = false,
                           bool count_in_ledger = true, int device = 0);

  /// Host-issued GPU page-table prefault (`svm_attributes_set`): a syscall
  /// serialized on the driver lock; newly inserted pages pay the insert
  /// cost, already-present pages only a verification.
  ///
  /// Failure surface: `Status::Interrupted`/`Status::Busy` when the fault
  /// engine injects a transient syscall error; no page-table mutation
  /// happens, the failed syscall costs its base latency on the driver
  /// lock, and the caller may retry (EINTR semantics). An injected
  /// `prefault_hang` blocks the calling thread inside the syscall until
  /// the watchdog aborts it (`Status::TimedOut`) — or forever when no
  /// watchdog is configured. Misuse — a range outside any live allocation
  /// — still throws std::invalid_argument.
  [[nodiscard]] PrefaultResult try_svm_attributes_set_prefault(
      mem::AddrRange range, int device = 0);

  /// Throwing wrapper (HsaError on a transient fault) for callers with no
  /// retry ladder.
  mem::PrefaultOutcome svm_attributes_set_prefault(mem::AddrRange range,
                                                   int device = 0);

  /// Migrate the allocation containing `range` onto `device`'s HBM
  /// (`hsa_amd_svm_prefetch` semantics; recorded as an SvmAttributesSet
  /// call). The per-page unmap/remap work serializes on both sockets'
  /// driver locks and the data crosses the fabric link (or moves at the
  /// legacy remote copy bandwidth with the fabric off). Returns the pages
  /// that physically moved; see `mem::MemorySystem::migrate_pages` for the
  /// state semantics (GPU translations torn down, placement collapses to
  /// the new fixed home).
  std::uint64_t migrate_pages(mem::AddrRange range, int device);

  /// --- kernels -----------------------------------------------------------
  /// Dispatch a kernel. Fault accounting depends on the run environment:
  /// with XNACK enabled, absent pages of OS-allocated buffers are faulted
  /// in page-by-page while the kernel runs (stall added to its duration and
  /// serialized on the driver); with XNACK disabled, touching an absent
  /// page throws GpuMemoryFault. A buffer that does not lie inside one live
  /// allocation throws GpuMemoryFault either way, before any of its pages
  /// is faulted in. `not_before` delays the GPU-side start
  /// (dependence on earlier asynchronous work) without blocking the host.
  ///
  /// Failure surface: an injected `kernel_hang` (queue error before the
  /// kernel executes) or `xnack_livelock` (fault servicing never converges)
  /// suppresses the kernel's functional execution and returns a signal that
  /// never completes; the watchdog, when configured, eventually aborts it
  /// and the caller replays the dispatch.
  ///
  /// `depends` lists the completion signals of earlier asynchronous work
  /// this kernel is ordered after *in-queue* (the `not_before` timestamp
  /// chain). The host never waits on them, so the race detector needs them
  /// spelled out to give the kernel's device task a happens-before edge
  /// from each dependence; a hung dependence is resolved by the caller
  /// before dispatch, so every entry is complete by the time it is read.
  Signal dispatch_kernel(const KernelLaunch& launch, int host_thread = 0,
                         sim::TimePoint not_before = sim::TimePoint::zero(),
                         std::span<const Signal> depends = {});

  /// Dispatch and immediately wait (synchronous kernel execution).
  void run_kernel(const KernelLaunch& launch, int host_thread = 0);

  /// --- state & instrumentation -------------------------------------------
  /// The accessors below serve read-only snapshots (tests, the run harness)
  /// and opt-in configuration before threads start. The accumulators take
  /// no lock: bookkeeping is not synchronization (DESIGN.md §5).
  [[nodiscard]] apu::Machine& machine() { return machine_; }
  [[nodiscard]] mem::MemorySystem& memory() { return mem_; }
  [[nodiscard]] trace::CallStats& stats() { return stats_; }
  [[nodiscard]] const trace::CallStats& stats() const { return stats_; }
  /// Per-device accumulators, indexed by socket (post-run snapshots).
  [[nodiscard]] const std::vector<DeviceCounters>& device_counters() const {
    return devstats_;
  }
  /// Size the per-tenant accumulators (idempotent; call before the service
  /// worker fibers start issuing work). Zero disables tenant accounting.
  void configure_tenants(int tenants);
  /// Register the calling fiber's jobs as belonging to `tenant` (-1 clears
  /// the registration). The service worker calls this once per job it
  /// picks up.
  void set_thread_tenant(int tenant);
  /// Per-tenant accumulators, indexed by tenant: the same counters as a
  /// device row, over the kernels and copies the tenant's fibers issued
  /// (post-run snapshots; empty unless `configure_tenants` was called).
  [[nodiscard]] const std::vector<DeviceCounters>& tenant_counters() const {
    return tenantstats_;
  }
  /// Keep one `KernelRecord` per launch and one `CopyRecord` per SDMA
  /// transfer. Off by default: the counters above always hold the sums, and
  /// records grow with run length.
  void set_keep_records(bool keep) { keep_records_ = keep; }
  [[nodiscard]] bool keep_records() const { return keep_records_; }
  [[nodiscard]] const std::vector<trace::KernelRecord>& kernel_records()
      const {
    return kernel_records_;
  }
  [[nodiscard]] const std::vector<trace::CopyRecord>& copy_records() const {
    return copy_records_;
  }
  [[nodiscard]] trace::OverheadLedger& ledger() { return ledger_; }
  [[nodiscard]] const trace::FaultTrace& fault_trace() const { return ftrace_; }
  /// The hang detector; configured from the environment's
  /// `OMPX_APU_WATCHDOG`. The core layer subscribes its circuit breaker to
  /// trips via `Watchdog::set_trip_listener`.
  [[nodiscard]] Watchdog& watchdog() { return watchdog_; }
  [[nodiscard]] const Watchdog& watchdog() const { return watchdog_; }

  /// Record a fault-handling event. Public so the OpenMP layer can record
  /// its degraded-mode reactions into the same trace the injections land in.
  void record_fault(trace::FaultRecord r);
  /// The common case: `event` on `device`, stamped with the calling
  /// thread's `now()`. `range` is the affected host range; events that
  /// report a count rather than a range carry it in `range.bytes` with a
  /// null base. `attempt` follows `FaultRecord::attempt`.
  void record_fault(trace::FaultEvent event, int device,
                    mem::AddrRange range = {}, int attempt = 0);
  /// Record that `inj` fired on `device`: one `Injected` record carrying its
  /// kind and factor, with `range` as in `record_fault`. Every injection
  /// site calls this, the service's arrival and admission sites included.
  void record_injection(const fault::Injection& inj, int device,
                        mem::AddrRange range = {});

 private:
  [[nodiscard]] sim::Scheduler& sched() { return machine_.sched(); }

  /// Add one kernel's or copy's counts to `device`'s row and to the row
  /// of the tenant the calling fiber registered, if any.
  void count(int device, const DeviceCounters& delta);

  /// Build the forever-incomplete signal of a hang-injected operation:
  /// name it, record the injection, and register it with the watchdog.
  Signal hung_signal(std::string name, const fault::Injection& inj,
                     int device, mem::AddrRange range);

  /// One watermark-reclaim pass and its price. Spills cold pages homed on
  /// `device` until `hbm_used <= target_bytes` (at most `max_pages`),
  /// consults the eviction fault site (an injected `evict_storm` inflates
  /// the driver work), and returns the modeled cost: per-page driver
  /// unmapping plus the SDMA writeback of the spilled bytes. The *caller*
  /// spends the cost — on its own clock (pool allocation) or folded into a
  /// kernel's fault stall (dispatch) — because where the stall lands is
  /// what distinguishes the two reclaim paths.
  struct ReclaimCharge {
    std::uint64_t evicted = 0;
    sim::Duration cost;
  };
  ReclaimCharge reclaim_to(int device, std::uint64_t target_bytes,
                           std::uint64_t max_pages);

  apu::Machine& machine_;
  mem::MemorySystem& mem_;
  Watchdog watchdog_;
  trace::CallStats stats_;
  trace::OverheadLedger ledger_;
  trace::FaultTrace ftrace_;
  std::vector<DeviceCounters> devstats_;
  /// Per-tenant accumulators and the fiber-id -> tenant registration map
  /// behind them (see `set_thread_tenant`).
  std::vector<DeviceCounters> tenantstats_;
  std::unordered_map<int, int> thread_tenants_;
  bool keep_records_ = false;
  std::vector<trace::KernelRecord> kernel_records_;
  std::vector<trace::CopyRecord> copy_records_;
  /// Where the race hooks' task names and access sites are rendered. The
  /// detector reads a site only for a stamp it checks, so one reused
  /// buffer keeps every pruned stamp free of allocation.
  std::string race_site_;
};

}  // namespace zc::hsa

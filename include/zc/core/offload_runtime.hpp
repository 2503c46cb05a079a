#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "zc/adapt/policy.hpp"
#include "zc/core/circuit_breaker.hpp"
#include "zc/core/config.hpp"
#include "zc/core/mapping.hpp"
#include "zc/core/offload_error.hpp"
#include "zc/core/program.hpp"
#include "zc/core/target_region.hpp"
#include "zc/hsa/runtime.hpp"
#include "zc/sim/scheduler.hpp"
#include "zc/trace/decision_trace.hpp"

namespace zc::check {
class Recorder;
}

namespace zc::omp {

/// Handle for an `omp target ... nowait` region: the kernel is in flight;
/// `OffloadRuntime::target_wait` completes it (wait + data-end). A task
/// must be waited exactly once before destruction of the runtime.
class TargetTask {
 public:
  TargetTask() = default;

  [[nodiscard]] bool valid() const { return !maps_.empty() || kernel_named_; }
  [[nodiscard]] bool completed() const { return completed_; }

 private:
  friend class OffloadRuntime;
  hsa::Signal signal_;
  std::vector<MapEntry> maps_;
  /// The dispatched launch, value-captured body included, kept so
  /// `target_wait` can replay the kernel if the watchdog aborts it.
  hsa::KernelLaunch launch_;
  int host_thread_ = 0;
  int device_ = 0;
  /// Pairs the nowait dispatch with its wait in the recorded offload IR.
  std::uint64_t check_token_ = 0;
  bool kernel_named_ = false;
  bool completed_ = false;
};

/// The OpenMP target-offloading runtime — the system the paper studies.
///
/// One instance models `libomptarget` for one application process on one
/// device. At construction the runtime resolves which of the four
/// configurations applies (see `resolve_config`); all data-management
/// behaviour then flows from that choice:
///
///  * **Legacy Copy** — maps allocate ROCr pool memory, transfer data over
///    the SDMA engines, and reference-count the present table; kernels
///    receive translated device pointers.
///  * **Unified Shared Memory** — maps are no-ops; kernels receive host
///    pointers; declare-target globals resolve through double indirection
///    to host storage.
///  * **Implicit Zero-Copy** — like USM for mapped data, but declare-target
///    globals keep their per-image device copies and are synchronized by
///    DMA when mapped (§IV-C).
///  * **Eager Maps** — Implicit Zero-Copy plus a `svm_attributes_set`
///    GPU-page-table prefault on *every* map operation (§IV-D).
///  * **Adaptive Maps** — the `zc::adapt` policy engine classifies each
///    non-global mapped region as DMA-copy, zero-copy, or eager prefault
///    from observed page state, inside the present-table transaction;
///    globals keep the Copy behaviour. Every fresh classification is
///    recorded in the `DecisionTrace`.
///
/// Image load (GPU code objects, runtime support structures, device copies
/// of globals) happens lazily on the first runtime call, and each host
/// thread pays a one-time initialization on its first call — mirroring the
/// initialization traffic visible in the paper's Table I.
class OffloadRuntime {
 public:
  OffloadRuntime(hsa::Runtime& hsa, ProgramBinary program);

  [[nodiscard]] RuntimeConfig config() const { return config_; }
  [[nodiscard]] bool zero_copy() const { return is_zero_copy(config_); }
  [[nodiscard]] const ProgramBinary& program() const { return program_; }

  /// Number of OpenMP devices (APU sockets) visible to this process.
  [[nodiscard]] int device_count() const;

  /// Device number requesting automatic placement: `target` and
  /// `target_nowait` resolve it to the socket homing the most mapped
  /// bytes, sending compute to the data instead of the reverse.
  static constexpr int kDeviceAuto = -1;

  /// --- host-side memory (timed helpers for workload code) ---------------
  /// `home_socket` is the NUMA placement of the allocation (the socket of
  /// the thread that will first-touch it).
  mem::VirtAddr host_alloc(std::uint64_t bytes, std::string name,
                           int home_socket = 0);
  /// NUMA-policy variant: `FirstTouch` defers the home to the first
  /// materializing access, `Interleaved` stripes page homes round-robin
  /// across sockets (see `mem::Placement`).
  mem::VirtAddr host_alloc_placed(std::uint64_t bytes, std::string name,
                                  mem::Placement placement,
                                  int home_socket = 0);
  void host_free(mem::VirtAddr base);
  /// CPU first touch of the range (page materialization cost).
  void host_first_touch(mem::AddrRange range);
  /// Modeled host-side *read* of the range: stamps the pages for the race
  /// detector and records a HostRead op in the offload IR, but creates no
  /// pages and costs no time (reads of resident memory are free in this
  /// model). This is how workload code tells the checkers "the CPU
  /// consumes these bytes here" — e.g. reading back kernel results.
  void host_read(mem::AddrRange range);

  /// Attach (nullptr to detach) the `zc::check` record-only observer. The
  /// recorder is purely passive — it advances no time and changes no
  /// runtime behaviour — so a recorded run stays bit-identical to an
  /// unrecorded one. Declare-target globals of an already-loaded image are
  /// registered immediately; otherwise `load_image` registers them.
  void set_recorder(check::Recorder* recorder);
  [[nodiscard]] check::Recorder* recorder() const { return recorder_; }

  /// Host storage address of a declare-target global.
  [[nodiscard]] mem::VirtAddr global_host_addr(const std::string& name);

  /// --- OpenMP data API (all constructs accept a device number) -----------
  void target_data_begin(std::span<const MapEntry> maps, int device = 0);
  void target_data_end(std::span<const MapEntry> maps, int device = 0);

  /// Unstructured data mapping: `omp target enter data` / `exit data`.
  /// Enter accepts to/tofrom/alloc entries; exit additionally accepts
  /// `release` (decrement, no transfer) and `delete` (drop regardless of
  /// reference count).
  void target_enter_data(std::span<const MapEntry> maps, int device = 0);
  void target_exit_data(std::span<const MapEntry> maps, int device = 0);

  /// `omp target update to/from(...)` for already-mapped data.
  void target_update_to(const MapEntry& entry, int device = 0);
  void target_update_from(const MapEntry& entry, int device = 0);

  /// Execute an `omp target` region synchronously: implicit
  /// target_data_begin(maps), kernel launch + wait, target_data_end(maps).
  void target(const TargetRegion& region);

  /// `omp target ... nowait`: maps are entered and the kernel dispatched,
  /// but the calling thread does not wait; complete with `target_wait`.
  /// `depends` models OpenMP task dependences: the kernel does not start
  /// on the GPU before every listed task's kernel has completed (the host
  /// thread still returns immediately).
  [[nodiscard]] TargetTask target_nowait(
      const TargetRegion& region, std::span<const TargetTask*> depends = {});
  /// Wait for the kernel of a nowait target and run its data-end phase.
  void target_wait(TargetTask& task);

  /// --- device-pointer API (`omp_target_alloc` family) ---------------------
  /// Explicit device allocation. NOTE: this is the HIP-device-library path
  /// the paper warns about — the pool allocation happens in *every*
  /// configuration, so code using it forfeits the zero-copy benefit (the
  /// reason the paper builds QMCPack without the HIP device library).
  mem::VirtAddr device_alloc(std::uint64_t bytes, std::string name,
                             int device = 0);
  void device_free(mem::VirtAddr ptr);
  /// `omp_target_memcpy`: blocking DMA copy between any two simulated
  /// addresses (host or device). The copy runs on the SDMA engine of the
  /// socket homing the destination.
  void target_memcpy(mem::VirtAddr dst, mem::VirtAddr src,
                     std::uint64_t bytes);

  /// Migrate the allocation containing `range` onto `device`'s HBM
  /// (`hsa_amd_svm_prefetch` semantics; see `hsa::Runtime::migrate_pages`
  /// for timing and state effects). Cached Adaptive Maps decisions for the
  /// range are dropped — their placement inputs changed. Returns the pages
  /// that physically moved.
  std::uint64_t migrate_to_device(mem::AddrRange range, int device);

  /// --- introspection -------------------------------------------------------
  /// Read-only snapshot of one device's mapping table. Unguarded by design:
  /// callers are tests/benches inspecting a quiescent runtime (post-run, or
  /// in a single-threaded section between constructs); the runtime's own
  /// mutation paths all go through `table_mutex_` and are checker-enforced.
  [[nodiscard]] const PresentTable& present_table(int device = 0) const {
    return tables_.unguarded().at(static_cast<std::size_t>(device));
  }
  [[nodiscard]] hsa::Runtime& hsa() { return hsa_; }

  /// Multi-tenant service occupancy of `device`'s admission budget, in
  /// [0, 1]. The service layer updates it as jobs are admitted and retired;
  /// Adaptive Maps consumes it as `RegionFeatures::tenant_pressure` so a
  /// crowded device steers away from fresh pool allocations. Takes
  /// `table_mutex_` (the value is read inside present-table transactions).
  void set_service_pressure(int device, double occupancy);

  /// Adaptive Maps introspection, unguarded for the same quiescent-reader
  /// reason as `present_table`.
  [[nodiscard]] const trace::DecisionTrace& decision_trace() const {
    return decisions_.unguarded();
  }
  [[nodiscard]] const adapt::PolicyEngine& policy_engine() const {
    return adapt_.unguarded();
  }

  /// Whether one device's pool has ever failed an allocation this run (the
  /// sticky "memory pressure" flag the degraded Copy path sets and the
  /// Adaptive Maps policy consumes). Quiescent-reader accessor.
  [[nodiscard]] bool memory_pressure(int device = 0) const {
    return pressure_.unguarded().at(static_cast<std::size_t>(device)) != 0;
  }

  /// One device's circuit breaker (watchdog trips + degraded-mode events in
  /// a sliding virtual-time window; open pins the device to zero-copy with
  /// eager prefault). Quiescent-reader accessor.
  [[nodiscard]] const CircuitBreaker& breaker(int device = 0) const {
    return breakers_.unguarded().at(static_cast<std::size_t>(device));
  }

  /// Number of pool allocations modeled for image load and per-thread
  /// initialization (chosen to echo the initialization call counts visible
  /// in the paper's Table I).
  static constexpr int kImageLoadAllocs = 9;
  static constexpr int kImageLoadCopies = 3;
  static constexpr int kThreadInitAllocs = 10;

 private:
  /// An issued async DMA copy plus everything needed to resubmit it: the
  /// runtime waits for a batch, then runs the retry ladder on each copy
  /// that did not complete cleanly.
  struct PendingCopy {
    hsa::Signal signal;
    mem::VirtAddr dst;
    mem::VirtAddr src;
    std::uint64_t bytes = 0;
    mem::AddrRange host;  ///< host side of the transfer (for diagnostics)
    bool with_handler = false;
    bool count_in_ledger = true;
    int device = 0;
    std::optional<hsa::Signal> fills;  ///< `PresentEntry::fill` it completes
  };

  void ensure_initialized();
  /// First caller loads the image; concurrent callers wait on the latch
  /// until it is fully loaded (shared by `ensure_initialized` and
  /// `global_host_addr`).
  void ensure_image_loaded();
  void load_image();

  /// Reject map lists with overlapping entries (OpenMP restriction).
  static void check_distinct(std::span<const MapEntry> maps);

  void check_device(int device) const;

  /// Resolve `kDeviceAuto`: bytes-weighted vote over the region's mapped
  /// and used buffers by home socket; ties break to the lower socket.
  [[nodiscard]] int resolve_device(const TargetRegion& region) const;

  /// How the runtime realizes one map entry under the active
  /// configuration:
  ///  * `ZeroCopy` — never enters the present table (USM; non-globals
  ///    under Implicit Z-C and Eager Maps);
  ///  * `Copy` — device storage plus DMA (Legacy Copy; globals in every
  ///    configuration but USM);
  ///  * `Policy` — the Adaptive Maps engine classifies each present-table
  ///    miss (Adaptive Maps non-globals).
  enum class MapHandling { ZeroCopy, Copy, Policy };
  [[nodiscard]] MapHandling handling(const MapEntry& entry) const;
  [[nodiscard]] bool is_global_addr(mem::VirtAddr a) const;

  /// Map semantics for one entry on region/data-begin, one present-table
  /// transaction for every configuration: a hit takes a reference; a miss
  /// is realized as a breaker-pinned fallback, a policy decision or a
  /// DmaCopy, whose pool allocation, OOM fallback, insert, prefault and
  /// h2d copy (appended to `copies`) share one code path. A hit on
  /// another thread's fresh entry waits for its fill, outside the lock.
  void begin_one(const MapEntry& entry, int device,
                 std::vector<PendingCopy>& copies);
  /// Adaptive Maps classification of a `Policy` entry's present-table
  /// miss, inside the transaction: gather the region features, ask the
  /// policy engine, charge the evaluation (or cache-hit) cost and record
  /// fresh decisions in the `DecisionTrace`.
  [[nodiscard]] adapt::Decision decide_locked(const MapEntry& entry,
                                              int device);
  /// First pass of data-end: issue d2h copies.
  void end_copy_one(const MapEntry& entry, int device,
                    std::vector<PendingCopy>& copies);
  /// Second pass of data-end: decrement refcounts, free device storage.
  void end_release_one(const MapEntry& entry, int device);
  /// `target update to` (`to_device`) or `from`: one blocking DMA between
  /// the host range and its present device storage.
  void target_update(const MapEntry& entry, int device, bool to_device);

  /// Degraded-mode mapping of one entry as zero-copy, used both as the
  /// reaction to a device-pool OOM (`reason` = OomFallbackZeroCopy, which
  /// also counts as a breaker trip) and as the open-breaker pinning path
  /// (`reason` = BreakerPinnedMap, which must NOT feed the breaker —
  /// pinned maps are the breaker's own output, and counting them would
  /// hold it open forever). With XNACK disabled the range is prefaulted
  /// into the GPU page table *before* the degraded entry becomes visible
  /// in the present table — another thread could dispatch a kernel on the
  /// range the moment it is published, and an untranslatable page would
  /// then be a fatal GpuMemoryFault. Returns the fill of a hit instead.
  [[nodiscard]] std::optional<hsa::Signal> fallback_map_zero_copy(
      const MapEntry& entry, int device, trace::FaultEvent reason);

  /// `svm_attributes_set` through the retry ladder: EINTR/EBUSY calls are
  /// retried with exponential backoff in virtual time, hung calls are
  /// replayed. When the retries run out it falls back to XNACK demand
  /// faulting if available, else throws OffloadError(PrefaultFailed).
  void prefault_with_retry(mem::AddrRange range, int device);

  /// Issue one async DMA copy and package it for the retry ladder.
  [[nodiscard]] PendingCopy submit_copy(mem::VirtAddr dst, mem::VirtAddr src,
                                        std::uint64_t bytes,
                                        mem::AddrRange host, bool with_handler,
                                        bool count_in_ledger, int device);

  /// Wait for a batch of copies, then run the retry ladder on each copy
  /// that errored or that the watchdog aborted. A copy whose error budget
  /// (`DegradeParams::copy_max_retries`) runs out fails the region with
  /// OffloadError(CopyFailed). Completes the fresh entries' fills at the
  /// times their bytes landed, then clears `copies` (kept on a throw).
  void wait_all(std::vector<PendingCopy>& copies);

  /// Wait for a dispatched kernel's signal; if the watchdog aborted it, run
  /// the retry ladder, which replays the dispatch. Kernels only hang; they
  /// never fail. Shared by `target` and `target_wait`.
  void await_kernel(hsa::Signal sig, const hsa::KernelLaunch& launch,
                    int host_thread);

  /// One watchdog trip or degraded-mode event on `device`: feed the
  /// breaker, record its transitions, refresh the attention flag. Takes
  /// `table_mutex_`; also the watchdog fiber's trip listener.
  void note_breaker_trip(int device);

  /// Whether the breaker currently pins `device` to zero-copy + eager
  /// prefault. The common (closed) case is a lock-free flag read so the
  /// zero-copy hot path stays lock-free; only a non-closed breaker takes
  /// `table_mutex_` to apply due time-based transitions.
  [[nodiscard]] bool breaker_pinned(int device);
  /// Same, for callers already inside a `table_mutex_` transaction.
  [[nodiscard]] bool breaker_pinned_locked(int device);

  /// Record BreakerOpened/BreakerHalfOpened/BreakerClosed fault events for
  /// the transitions a breaker call returned. Call with `table_mutex_`
  /// held.
  void record_breaker_transitions(
      const std::vector<CircuitBreaker::Transition>& transitions, int device);

  hsa::Runtime& hsa_;
  ProgramBinary program_;
  RuntimeConfig config_;
  /// Serializes mapping-table transactions (lookup + allocate + insert, or
  /// lookup + refcount + copy-back decision, or decrement + free + erase)
  /// across host threads — the libomptarget per-process mapping lock.
  /// Zero-copy paths never take it. Declared before `tables_` so the guard
  /// exists when the guarded state is constructed.
  sim::Mutex table_mutex_;
  /// One PresentTable per device, guarded by `table_mutex_`: any access
  /// from inside a virtual thread without the lock is a checker error.
  sim::GuardedBy<std::vector<PresentTable>> tables_;
  /// Adaptive Maps policy engine and its decision trace share the mapping
  /// lock: decisions are part of the present-table transaction (classify,
  /// then insert — atomically), so a separate lock would only add a window
  /// where another thread maps the same range between the two.
  sim::GuardedBy<adapt::PolicyEngine> adapt_;
  sim::GuardedBy<trace::DecisionTrace> decisions_;
  /// Sticky per-device memory-pressure flags (char: vector<bool> has no
  /// addressable elements), set by the first pool-OOM fallback and fed to
  /// the Adaptive Maps cost model as a feature. Shares `table_mutex_`: the
  /// flag is read and written inside present-table transactions.
  sim::GuardedBy<std::vector<char>> pressure_;
  /// Per-device service-tenant occupancy ([0, 1], see
  /// `set_service_pressure`), fed to Adaptive Maps as
  /// `RegionFeatures::tenant_pressure`. Shares `table_mutex_` with the
  /// other policy features.
  sim::GuardedBy<std::vector<double>> service_pressure_;
  /// Per-device circuit breakers over watchdog trips and degraded-mode
  /// events; shares `table_mutex_` because open/closed state is consumed
  /// inside present-table transactions (and by the Adaptive Maps policy).
  sim::GuardedBy<std::vector<CircuitBreaker>> breakers_;
  /// Per-device "breaker not closed" flags, written only under
  /// `table_mutex_` but read without it by `breaker_pinned`: under
  /// cooperative scheduling a plain byte read is safe, and it keeps the
  /// zero-copy hot path lock-free when every breaker is closed (the
  /// steady state — `table_mutex_` stays a Copy-path-only lock). The flag
  /// is a hint, not synchronization: a reader that sees it set takes
  /// `table_mutex_`, whose edge orders it after the breaker's writer.
  std::vector<char> breaker_attention_;
  bool image_load_started_ = false;
  bool image_loaded_ = false;
  sim::Latch image_latch_;  // set once the image is fully loaded
  std::unordered_set<int> initialized_threads_;
  int last_init_tid_ = -1;  // memo: skip the set probe for repeat callers
  std::unordered_map<std::string, mem::VirtAddr> global_host_;
  std::vector<mem::AddrRange> global_ranges_;
  std::vector<mem::VirtAddr> image_allocs_;
  check::Recorder* recorder_ = nullptr;
  /// Lives exactly as long as this runtime; an attached recorder holds a
  /// weak reference to learn when its recording has ended.
  std::shared_ptr<const int> alive_ = std::make_shared<const int>(0);
};

}  // namespace zc::omp

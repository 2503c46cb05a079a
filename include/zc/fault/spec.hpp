#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "zc/sim/time.hpp"

namespace zc::fault {

/// Raised by `parse_spec` on a malformed `OMPX_APU_FAULTS` value. Like
/// `apu::EnvError`, the simulator refuses typos instead of silently running
/// a fault-free experiment that claims to be a fault experiment.
class FaultSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runtime call sites the engine can inject faults into.
enum class Site {
  PoolAlloc,      ///< hsa memory_pool_allocate: HBM out-of-memory
  SvmPrefault,    ///< hsa svm_attributes_set: transient EINTR/EBUSY or hang
  AsyncCopy,      ///< hsa memory_async_copy: SDMA engine error or stall
  XnackReplay,    ///< kernel fault servicing: replay storm or livelock
  KernelLaunch,   ///< hsa queue dispatch: kernel completion signal hangs
  Eviction,       ///< watermark reclaim: eviction storm (batch slowdown)
  AutoMigrate,    ///< access-counter migration: driver migration stall
  ThpSplit,       ///< THP state machine: spurious huge-page split storm
  AccessCounter,  ///< access-counter sampling: counter overflow/loss
  TenantBurst,    ///< service arrival process: one tenant's burst of jobs
  AdmissionFlap,  ///< service admission check: transient capacity misread
};
inline constexpr std::size_t kSiteCount = 11;

[[nodiscard]] constexpr const char* to_string(Site s) {
  switch (s) {
    case Site::PoolAlloc:
      return "pool-alloc";
    case Site::SvmPrefault:
      return "svm-prefault";
    case Site::AsyncCopy:
      return "async-copy";
    case Site::XnackReplay:
      return "xnack-replay";
    case Site::KernelLaunch:
      return "kernel-launch";
    case Site::Eviction:
      return "eviction";
    case Site::AutoMigrate:
      return "auto-migrate";
    case Site::ThpSplit:
      return "thp-split";
    case Site::AccessCounter:
      return "access-counter";
    case Site::TenantBurst:
      return "tenant-burst";
    case Site::AdmissionFlap:
      return "admission-flap";
  }
  return "?";
}

/// What an injection does at its site.
enum class Kind {
  None,           ///< no fault
  Oom,            ///< pool allocation fails with out-of-memory
  Eintr,          ///< prefault syscall returns EINTR (retryable)
  Ebusy,          ///< prefault syscall returns EBUSY (retryable)
  CopyError,      ///< async copy's signal completes with an error payload
  ReplayStorm,    ///< XNACK fault servicing slowed by a latency factor
  KernelHang,     ///< kernel completion signal never completes
  SdmaStall,      ///< async copy's signal never completes
  PrefaultHang,   ///< prefault syscall never returns
  XnackLivelock,  ///< fault servicing replays forever; kernel never signals
  EvictStorm,     ///< watermark reclaim slowed by a latency factor
  MigrationStall, ///< access-counter migration slowed by a latency factor
  ThpSplitStorm,  ///< huge-page spans under the op split spuriously
  CounterLoss,    ///< access-counter state lost (heat resets to cold)
  TenantBurst,    ///< the next `factor` arrivals of one tenant collapse
                  ///< into a zero-interarrival burst
  AdmissionFlap,  ///< the admission capacity check transiently reads "full"
};

[[nodiscard]] constexpr const char* to_string(Kind k) {
  switch (k) {
    case Kind::None:
      return "none";
    case Kind::Oom:
      return "oom";
    case Kind::Eintr:
      return "eintr";
    case Kind::Ebusy:
      return "ebusy";
    case Kind::CopyError:
      return "sdma";
    case Kind::ReplayStorm:
      return "xnack";
    case Kind::KernelHang:
      return "kernel_hang";
    case Kind::SdmaStall:
      return "sdma_stall";
    case Kind::PrefaultHang:
      return "prefault_hang";
    case Kind::XnackLivelock:
      return "xnack_livelock";
    case Kind::EvictStorm:
      return "evict_storm";
    case Kind::MigrationStall:
      return "migration_stall";
    case Kind::ThpSplitStorm:
      return "thp_split_storm";
    case Kind::CounterLoss:
      return "counter_loss";
    case Kind::TenantBurst:
      return "tenant_burst";
    case Kind::AdmissionFlap:
      return "admission_flap";
  }
  return "?";
}

/// The call site each injectable kind fires at (`None` has none and maps to
/// `PoolAlloc`, the `Clause` default).
[[nodiscard]] constexpr Site site_of(Kind k) {
  switch (k) {
    case Kind::None:
    case Kind::Oom:
      return Site::PoolAlloc;
    case Kind::Eintr:
    case Kind::Ebusy:
    case Kind::PrefaultHang:
      return Site::SvmPrefault;
    case Kind::CopyError:
    case Kind::SdmaStall:
      return Site::AsyncCopy;
    case Kind::ReplayStorm:
    case Kind::XnackLivelock:
      return Site::XnackReplay;
    case Kind::KernelHang:
      return Site::KernelLaunch;
    case Kind::EvictStorm:
      return Site::Eviction;
    case Kind::MigrationStall:
      return Site::AutoMigrate;
    case Kind::ThpSplitStorm:
      return Site::ThpSplit;
    case Kind::CounterLoss:
      return Site::AccessCounter;
    case Kind::TenantBurst:
      return Site::TenantBurst;
    case Kind::AdmissionFlap:
      return Site::AdmissionFlap;
  }
  return Site::PoolAlloc;
}

/// True for the kinds that make an operation's completion signal never
/// complete (the hang family a watchdog must bound).
[[nodiscard]] constexpr bool is_hang(Kind k) {
  return k == Kind::KernelHang || k == Kind::SdmaStall ||
         k == Kind::PrefaultHang || k == Kind::XnackLivelock;
}

/// When a clause fires: an inclusive 1-based call-count window at its site,
/// a virtual-time window, or an independent per-call probability.
struct Trigger {
  enum class Mode { CallRange, TimeWindow, Probability };
  Mode mode = Mode::CallRange;
  std::uint64_t call_from = 0;  ///< CallRange: first firing call (1-based)
  std::uint64_t call_to = 0;    ///< CallRange: last firing call (inclusive)
  sim::TimePoint t_from;        ///< TimeWindow: window start
  sim::TimePoint t_to;          ///< TimeWindow: window end (inclusive)
  double probability = 0.0;     ///< Probability: per-call Bernoulli p
};

/// One `site@trigger[:xF]` clause of a fault spec.
struct Clause {
  Site site = Site::PoolAlloc;
  Kind kind = Kind::Oom;
  Trigger trigger;
  double factor = 8.0;  ///< replay-storm latency multiplier (xnack only)
};

/// A parsed fault schedule; empty means fault-free.
struct Schedule {
  std::vector<Clause> clauses;
  [[nodiscard]] bool empty() const { return clauses.empty(); }
};

/// Parse an `OMPX_APU_FAULTS` spec. Grammar (whitespace-free):
///
///   spec    := clause (';' clause)*          | ""  (fault-free)
///   clause  := site '@' trigger (':' option)*
///   site    := 'oom' | 'eintr' | 'ebusy' | 'sdma' | 'xnack'
///            | 'kernel_hang' | 'sdma_stall' | 'prefault_hang'
///            | 'xnack_livelock' | 'evict_storm' | 'migration_stall'
///            | 'thp_split_storm' | 'counter_loss' | 'tenant_burst'
///            | 'admission_flap'
///   trigger := 'call=' N | 'call=' N '..' M   (1-based inclusive window)
///            | 't=' A 'us' ('..' B 'us')?     (virtual-time window)
///            | 'p=' F                         (per-call probability)
///   option  := 'x' F                          (replay latency factor)
///
/// Each site token is `to_string(kind)` of the fault kind it fixes, and
/// `site_of(kind)` the call site it fires at: oom -> pool allocation OOM,
/// eintr/ebusy -> transient prefault syscall errors, sdma -> async-copy
/// error signal, xnack -> replay-storm latency spike. The hang family
/// (kernel_hang, sdma_stall, prefault_hang, xnack_livelock) makes the
/// operation's completion signal never complete — survivable only when a
/// watchdog (`OMPX_APU_WATCHDOG`) bounds the wait. The pressure family:
/// evict_storm -> watermark reclaim batch slowed by the latency factor,
/// migration_stall -> access-counter migration slowed by the factor,
/// thp_split_storm -> huge-page spans split spuriously under the op,
/// counter_loss -> the driver drops its access-counter state (pages read
/// as cold again). The service family (`zc::service` arrival/admission
/// paths): tenant_burst -> the next `factor` arrivals of the tenant the
/// firing call belongs to collapse into a zero-interarrival burst,
/// admission_flap -> the admission capacity check transiently reports the
/// socket full so an admissible job is queued (or shed) as if memory were
/// exhausted. A `t=A us` window without an end extends to the end of the
/// run. Throws `FaultSpecError` on anything it cannot parse.
[[nodiscard]] Schedule parse_spec(const std::string& spec);

/// Render a schedule back to spec syntax (logs, error messages).
[[nodiscard]] std::string to_string(const Schedule& schedule);

}  // namespace zc::fault

#include "zc/core/offload_runtime.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "zc/check/ir.hpp"

namespace zc::omp {

using sim::Duration;

namespace {

/// The op `rec` records for the calling thread's construct, for the caller
/// to fill in, or nullptr when nothing is recorded: no recorder, or a
/// construct nested in a composite one, which is recorded as one op.
check::IrOp* record(check::Recorder* rec, sim::Scheduler& sched,
                    check::OpKind kind, int device = 0) {
  check::IrOp* op = rec != nullptr ? rec->record(sched, kind) : nullptr;
  if (op != nullptr) {
    op->device = device;
  }
  return op;
}

/// Shape-only projection of a construct's map list for the offload IR.
void add_maps(check::IrOp& op, std::span<const MapEntry> maps) {
  op.maps.reserve(maps.size());
  for (const MapEntry& e : maps) {
    op.maps.push_back(check::IrMap{e.host_range(), e.type, e.always});
  }
}

/// Projection of a target region (maps + enclosing-environment uses).
void add_region(check::IrOp& op, const TargetRegion& region) {
  add_maps(op, region.maps);
  op.name = region.name;
  op.uses.reserve(region.uses.size());
  for (const BufferUse& u : region.uses) {
    op.uses.push_back(
        check::IrUse{mem::AddrRange{u.addr, u.bytes}, u.access});
  }
}

}  // namespace

OffloadRuntime::OffloadRuntime(hsa::Runtime& hsa, ProgramBinary program)
    : hsa_{hsa},
      program_{std::move(program)},
      config_{resolve_config(hsa.machine().kind(), hsa.machine().env(),
                             program_.requires_unified_shared_memory)},
      tables_{table_mutex_, "PresentTable",
              static_cast<std::size_t>(hsa.machine().sockets())},
      adapt_{table_mutex_,       "AdaptPolicy",
             hsa.machine().costs(), hsa.machine().adapt_params(),
             hsa.machine().sockets(), hsa.machine().page_bytes(),
             hsa.machine().env().hsa_xnack},
      decisions_{table_mutex_, "DecisionTrace"},
      pressure_{table_mutex_, "MemPressure",
                std::vector<char>(
                    static_cast<std::size_t>(hsa.machine().sockets()), 0)},
      service_pressure_{table_mutex_, "ServicePressure",
                        std::vector<double>(
                            static_cast<std::size_t>(hsa.machine().sockets()),
                            0.0)},
      breakers_{table_mutex_, "CircuitBreaker",
                std::vector<CircuitBreaker>(
                    static_cast<std::size_t>(hsa.machine().sockets()),
                    CircuitBreaker{
                        hsa.machine().degrade_params().breaker_trip_threshold,
                        hsa.machine().degrade_params().breaker_window,
                        hsa.machine().degrade_params().breaker_cooldown})},
      breaker_attention_(static_cast<std::size_t>(hsa.machine().sockets()),
                         0) {
  // Every watchdog trip — regardless of which construct hung — feeds the
  // hung device's breaker.
  hsa_.watchdog().set_trip_listener(
      [this](int device, sim::TimePoint) { note_breaker_trip(device); });
}

int OffloadRuntime::device_count() const {
  return hsa_.machine().sockets();
}

void OffloadRuntime::check_device(int device) const {
  if (device < 0 || device >= device_count()) {
    throw MappingError("device " + std::to_string(device) +
                           " out of range (have " +
                           std::to_string(device_count()) + ")",
                       ErrorCode::DeviceOutOfRange, device);
  }
}

void OffloadRuntime::ensure_image_loaded() {
  // First caller loads the image; concurrent callers wait until it is
  // fully loaded (image load performs time-advancing allocations, so a
  // plain flag would let others observe a half-loaded image). The
  // flag-check-and-set is atomic under cooperative scheduling: no yield
  // happens between the test and the assignment.
  if (!image_load_started_) {
    image_load_started_ = true;
    load_image();
    image_loaded_ = true;
    image_latch_.set(hsa_.machine().sched());
  } else if (!image_loaded_) {
    image_latch_.wait(hsa_.machine().sched());
  }
}

void OffloadRuntime::ensure_initialized() {
  ensure_image_loaded();
  const int tid = hsa_.machine().sched().current().id();
  if (!initialized_threads_.insert(tid).second) {
    return;
  }
  // Per-thread runtime structures: HSA queues, signal pools, staging.
  // One-time init work is exempt from the steady-state overhead ledger.
  for (int i = 0; i < kThreadInitAllocs; ++i) {
    image_allocs_.push_back(hsa_.memory_pool_allocate(
        i == 0 ? (4u << 20) : (256u << 10),
        "omp-thread" + std::to_string(tid) + "-init",
        /*count_in_ledger=*/false));
  }
}

void OffloadRuntime::load_image() {
  // GPU code object and offload runtime support structures (one-time work,
  // exempt from the steady-state overhead ledger).
  // The code object of a large application plus device runtime structures
  // run to hundreds of MB.
  for (int i = 0; i < kImageLoadAllocs; ++i) {
    image_allocs_.push_back(hsa_.memory_pool_allocate(
        i == 0 ? (128u << 20) : (16u << 20), "omp-image-" + std::to_string(i),
        /*count_in_ledger=*/false));
  }
  // Upload the code object and device environment (the few DMA copies the
  // zero-copy configurations still show in HSA traces).
  mem::Allocation& staging = hsa_.memory().os_alloc(256 << 10, "omp-image-staging");
  std::vector<PendingCopy> uploads;
  for (int i = 0; i < kImageLoadCopies; ++i) {
    uploads.push_back(submit_copy(image_allocs_[0], staging.base(), 64 << 10,
                                  mem::AddrRange{staging.base(), 64 << 10},
                                  /*with_handler=*/false,
                                  /*count_in_ledger=*/false, /*device=*/0));
  }
  wait_all(uploads);

  // Declare-target globals: host storage always exists (static data, no
  // runtime cost); the device side depends on the configuration.
  for (const GlobalVar& g : program_.globals) {
    if (g.bytes == 0) {
      throw OffloadError(ErrorCode::InvalidArgument,
                         "global '" + g.name + "' has zero size");
    }
    mem::Allocation& host =
        hsa_.memory().os_alloc(g.bytes, "global:" + g.name);
    (void)hsa_.memory().host_touch(host.range());  // static data is resident
    global_host_.emplace(g.name, host.base());
    global_ranges_.push_back(host.range());
    if (recorder_ != nullptr) {
      recorder_->add_global(host.range(), "global:" + g.name);
    }
    if (globals_use_device_copy(config_)) {
      // Each GPU code object carries its own copy of the global (§IV-C).
      for (int d = 0; d < device_count(); ++d) {
        const mem::VirtAddr dev = hsa_.memory_pool_allocate(
            g.bytes, "global-dev:" + g.name, /*count_in_ledger=*/false, d);
        sim::LockGuard lock{table_mutex_, hsa_.machine().sched()};
        tables_.get(hsa_.machine().sched())[static_cast<std::size_t>(d)]
            .insert(host.range(), dev, /*pinned=*/true);
      }
    }
    // Under Unified Shared Memory the device image stores a pointer to the
    // host global (double indirection): no device storage at all.
  }
}

mem::VirtAddr OffloadRuntime::global_host_addr(const std::string& name) {
  // Resolving a global is a runtime call like any other: besides waiting
  // for the image, the calling thread pays its one-time per-thread
  // initialization here if this is its first entry into the runtime.
  ensure_initialized();
  auto it = global_host_.find(name);
  if (it == global_host_.end()) {
    throw OffloadError(ErrorCode::UnknownGlobal,
                       "unknown declare-target global '" + name + "'");
  }
  return it->second;
}

void OffloadRuntime::set_recorder(check::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->set_source(alive_);
  if (!image_loaded_) {
    return;  // a later load_image registers the globals
  }
  for (const auto& [name, base] : global_host_) {
    for (const mem::AddrRange& r : global_ranges_) {
      if (r.contains(base)) {
        recorder_->add_global(r, "global:" + name);
        break;
      }
    }
  }
}

mem::VirtAddr OffloadRuntime::host_alloc(std::uint64_t bytes,
                                         std::string name, int home_socket) {
  return host_alloc_placed(bytes, std::move(name),
                           mem::Placement::FixedHome, home_socket);
}

mem::VirtAddr OffloadRuntime::host_alloc_placed(std::uint64_t bytes,
                                                std::string name,
                                                mem::Placement placement,
                                                int home_socket) {
  check_device(home_socket);
  apu::Machine& m = hsa_.machine();
  m.sched().advance(m.jittered(m.costs().os_alloc_base));
  mem::Allocation& a =
      hsa_.memory().os_alloc_placed(bytes, std::move(name), placement,
                                    home_socket);
  if (recorder_ != nullptr) {
    recorder_->add_buffer(m.sched(), a.range(), a.name(),
                          check::BufKind::Host);
  }
  return a.base();
}

void OffloadRuntime::host_free(mem::VirtAddr base) {
  // Map sanitizer: freeing host memory that is still mapped into a device
  // data environment leaves the runtime holding a dangling shadow copy —
  // a use-after-free on real systems. Catch it loudly here. Ordering
  // discipline: *every* check (all devices' tables, then the allocation's
  // own validity) completes before any bookkeeping is mutated, so a
  // rejected free — including one `os_free` below would reject — leaves
  // the Adaptive Maps cache exactly as it was.
  const mem::Allocation* const a = hsa_.memory().space().find(base);
  if (a != nullptr) {
    if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                                 check::OpKind::HostFree)) {
      op->range = a->range();
    }
  }
  {
    sim::LockGuard lock{table_mutex_, hsa_.machine().sched()};
    auto& tables = tables_.get(hsa_.machine().sched());
    for (int d = 0; d < device_count(); ++d) {
      if (tables[static_cast<std::size_t>(d)].lookup(base) != nullptr) {
        throw MappingError("host_free of memory still mapped on device " +
                               std::to_string(d) + " at " + base.to_string(),
                           ErrorCode::MappingViolation, d,
                           mem::AddrRange{base, a != nullptr ? a->bytes() : 0});
      }
    }
    // Addresses can be recycled by later allocations: drop any cached
    // Adaptive Maps decision for the freed range — but only for a free
    // os_free will actually accept (exact base, host-OS kind).
    if (a != nullptr && a->base() == base && a->kind() == mem::MemKind::HostOs) {
      adapt_.get(hsa_.machine().sched()).forget(a->range());
    }
  }
  apu::Machine& m = hsa_.machine();
  m.sched().advance(m.jittered(m.costs().os_free_base));
  hsa_.memory().os_free(base);
}

void OffloadRuntime::host_first_touch(mem::AddrRange range) {
  apu::Machine& m = hsa_.machine();
  if (check::IrOp* op =
          record(recorder_, m.sched(), check::OpKind::HostTouch)) {
    op->range = range;
  }
  const std::uint64_t new_pages = hsa_.memory().host_touch(range);
  if (new_pages == 0) {
    return;
  }
  const double page_scale =
      static_cast<double>(m.page_bytes()) / static_cast<double>(2ULL << 20);
  m.sched().advance(m.jittered(m.costs().host_touch_per_page_2mb * page_scale *
                               static_cast<double>(new_pages)));
}

void OffloadRuntime::host_read(mem::AddrRange range) {
  apu::Machine& m = hsa_.machine();
  // A host read is the read-side twin of host_first_touch's page stamp:
  // under zero-copy these are the pages kernels write, so an unordered
  // in-flight kernel write is a race the detector must see.
  if (sim::ConcurrencyHooks* h = m.sched().hooks()) {
    const mem::Allocation* const a = hsa_.memory().space().find(range.base);
    const std::string site =
        "host_read('" + (a != nullptr ? a->name() : std::string{"?"}) + "')";
    const std::uint64_t pb = m.page_bytes();
    h->on_host_pages(range.first_page(pb),
                     range.end_page(pb) - range.first_page(pb),
                     /*is_write=*/false, site);
  }
  if (check::IrOp* op =
          record(recorder_, m.sched(), check::OpKind::HostRead)) {
    op->range = range;
  }
}

bool OffloadRuntime::is_global_addr(mem::VirtAddr a) const {
  return std::any_of(global_ranges_.begin(), global_ranges_.end(),
                     [a](const mem::AddrRange& r) { return r.contains(a); });
}

OffloadRuntime::MapHandling OffloadRuntime::handling(
    const MapEntry& entry) const {
  switch (config_) {
    case RuntimeConfig::LegacyCopy:
      return MapHandling::Copy;
    case RuntimeConfig::UnifiedSharedMemory:
      return MapHandling::ZeroCopy;
    case RuntimeConfig::ImplicitZeroCopy:
    case RuntimeConfig::EagerMaps:
    case RuntimeConfig::AdaptiveMaps:
      // §IV-C: globals keep Copy behaviour; everything else is zero-copy
      // (or, under Adaptive Maps, policy-classified).
      if (is_global_addr(entry.host_ptr)) {
        return MapHandling::Copy;
      }
      return config_ == RuntimeConfig::AdaptiveMaps ? MapHandling::Policy
                                                    : MapHandling::ZeroCopy;
  }
  return MapHandling::Copy;
}

OffloadRuntime::PendingCopy OffloadRuntime::submit_copy(
    mem::VirtAddr dst, mem::VirtAddr src, std::uint64_t bytes,
    mem::AddrRange host, bool with_handler, bool count_in_ledger, int device) {
  return PendingCopy{
      hsa_.memory_async_copy(dst, src, bytes, with_handler, count_in_ledger,
                             device),
      dst, src, bytes, host, with_handler, count_in_ledger, device};
}

namespace {

/// How one call of a re-issued operation ended. Hung: the watchdog aborted
/// it. Failed: an error payload, or EINTR/EBUSY.
enum class CallOutcome { Ok, Hung, Failed };

/// Classify a waited-on copy or kernel signal.
CallOutcome outcome_of(const hsa::Signal& s) {
  if (s.aborted()) {
    return CallOutcome::Hung;
  }
  return s.errored() ? CallOutcome::Failed : CallOutcome::Ok;
}

/// What the retry ladder needs to know about one operation.
struct RetryOp {
  int device = 0;
  mem::AddrRange range;  ///< host range on records and errors (kernels: none)
  std::string what;      ///< subject of the error messages
  trace::FaultEvent retry = trace::FaultEvent::CopyRetry;
  trace::FaultEvent retried = trace::FaultEvent::CopyRetrySucceeded;
  int max_retries = 0;    ///< Failed calls that are re-issued
  sim::Duration backoff;  ///< wait before the first re-issue of a Failed call
  double backoff_factor = 1.0;  ///< growth of that wait per Failed call
};

/// Record RegionFailed for call `attempt` of `op`, then throw.
[[noreturn]] void fail_region(hsa::Runtime& hsa, const RetryOp& op,
                              int attempt, ErrorCode code,
                              const std::string& message) {
  hsa.record_fault(trace::FaultEvent::RegionFailed, op.device, op.range,
                   attempt);
  throw OffloadError(code, message, op.device, op.range);
}

/// The one retry ladder, shared by copies, kernels and prefaults. The
/// caller made call 1, which ended in `outcome`; `reissue` makes the next
/// call and classifies it. Each call is classified afresh, and each kind
/// spends its own budget:
///  * Hung spends `DegradeParams::watchdog_max_replays` (recover mode). In
///    abort mode, or once those replays are spent, the region fails with
///    OffloadError(OperationHung).
///  * Failed spends `op.max_retries`. Each re-issue records `op.retry` and
///    first waits out the backoff.
/// Once a call succeeds it records WatchdogRecovered if any call hung and
/// `op.retried` if any call failed, then returns 0. If the Failed budget
/// runs out, it returns the ordinal of the last call; the caller raises or
/// degrades.
int retry_until_ok(hsa::Runtime& hsa, const RetryOp& op, CallOutcome outcome,
                   const std::function<CallOutcome()>& reissue) {
  apu::Machine& m = hsa.machine();
  const bool recover = hsa.watchdog().config().recover;
  const int max_replays = m.degrade_params().watchdog_max_replays;
  sim::Duration backoff = op.backoff;
  int hung = 0;
  int failed = 0;
  int call = 1;  // ordinal of the call `outcome` classifies
  for (; outcome != CallOutcome::Ok; ++call) {
    if (outcome == CallOutcome::Hung) {
      // The watchdog tore the queue down. A hung call delivers nothing
      // (all-or-nothing), so a replay performs its effects exactly once.
      if (!recover || ++hung > max_replays) {
        fail_region(hsa, op, call, ErrorCode::OperationHung,
                    op.what + " hung; the watchdog aborted it" +
                        (recover ? " and replays were exhausted"
                                 : " (abort mode)"));
      }
      hsa.record_fault(trace::FaultEvent::WatchdogReplay, op.device,
                       op.range, call);
    } else {
      if (++failed > op.max_retries) {
        return call;
      }
      hsa.record_fault(op.retry, op.device, op.range, call);
      if (!backoff.is_zero()) {
        // The sleep yields the CPU: any state read before it must be
        // re-validated after.
        m.sched().advance(backoff);
        backoff = backoff * op.backoff_factor;
      }
    }
    outcome = reissue();
  }
  if (hung > 0) {
    hsa.record_fault(trace::FaultEvent::WatchdogRecovered, op.device,
                     op.range, call);
  }
  if (failed > 0) {
    hsa.record_fault(op.retried, op.device, op.range, call);
  }
  return 0;
}

}  // namespace

void OffloadRuntime::wait_all(std::vector<PendingCopy>& copies) {
  if (copies.empty()) {
    return;
  }
  // The runtime batches: one wait on the transfer that completes last
  // (engine FIFO ordering makes every earlier submission complete earlier
  // or on another engine no later than observed here). A stalled copy's
  // signal is unbound — sort it last and wait on it anyway: the wait
  // blocks until the watchdog aborts it (or, with no watchdog, deadlocks
  // with a diagnostic naming the stuck signal).
  auto completes_at = [](const PendingCopy& p) {
    return p.signal.is_complete() ? p.signal.complete_at()
                                  : sim::TimePoint::max();
  };
  auto latest =
      std::max_element(copies.begin(), copies.end(),
                       [&](const PendingCopy& a, const PendingCopy& b) {
                         return completes_at(a) < completes_at(b);
                       });
  hsa_.signal_wait_scacquire(latest->signal);
  for (const PendingCopy& pc : copies) {
    if (!pc.signal.is_complete()) {
      // More than one stall in the batch: each tripped at its own deadline.
      hsa_.signal_wait_scacquire(pc.signal);
    }
  }
  // An errored or aborted copy delivered no bytes: resubmit it until a
  // submission completes cleanly, or fail only the offending region — with
  // a structured error, not an abort — and the runtime stays usable.
  for (PendingCopy& pc : copies) {
    const CallOutcome outcome = outcome_of(pc.signal);
    if (outcome == CallOutcome::Ok) {
      continue;
    }
    const RetryOp op{
        .device = pc.device,
        .range = pc.host,
        .what = "async copy of " + std::to_string(pc.host.bytes) + "B at " +
                pc.host.base.to_string(),
        .retry = trace::FaultEvent::CopyRetry,
        .retried = trace::FaultEvent::CopyRetrySucceeded,
        .max_retries = hsa_.machine().degrade_params().copy_max_retries};
    const int last = retry_until_ok(hsa_, op, outcome, [&] {
      pc.signal =
          hsa_.memory_async_copy(pc.dst, pc.src, pc.bytes, pc.with_handler,
                                 pc.count_in_ledger, pc.device);
      hsa_.signal_wait_scacquire(pc.signal);
      return outcome_of(pc.signal);
    });
    if (last > 0) {
      fail_region(hsa_, op, last, ErrorCode::CopyFailed,
                  op.what + " failed after retry");
    }
  }
  // Every byte landed: each fresh entry's fill completes when the
  // submission that delivered its bytes did.
  for (PendingCopy& pc : copies) {
    if (pc.fills) {
      pc.fills->complete(hsa_.machine().sched(), pc.signal.complete_at());
    }
  }
  copies.clear();
}

void OffloadRuntime::prefault_with_retry(mem::AddrRange range, int device) {
  auto prefault = [&] {
    switch (hsa_.try_svm_attributes_set_prefault(range, device).status) {
      case hsa::Status::Ok:
        return CallOutcome::Ok;
      case hsa::Status::TimedOut:
        return CallOutcome::Hung;
      default:
        return CallOutcome::Failed;
    }
  };
  const CallOutcome outcome = prefault();
  if (outcome == CallOutcome::Ok) {
    return;
  }
  apu::Machine& m = hsa_.machine();
  const apu::DegradeParams& dp = m.degrade_params();
  const RetryOp op{.device = device,
                   .range = range,
                   .what = "svm_attributes_set prefault of " +
                           std::to_string(range.bytes) + "B at " +
                           range.base.to_string(),
                   .retry = trace::FaultEvent::PrefaultRetry,
                   .retried = trace::FaultEvent::PrefaultRetrySucceeded,
                   .max_retries = dp.prefault_max_retries,
                   .backoff = dp.prefault_backoff_base,
                   .backoff_factor = dp.prefault_backoff_factor};
  const int last = retry_until_ok(hsa_, op, outcome, prefault);
  if (last == 0) {
    return;
  }
  if (m.env().hsa_xnack) {
    // Prefault was an optimization: XNACK demand faulting still makes the
    // range translatable, just one page at a time.
    hsa_.record_fault(trace::FaultEvent::PrefaultFallbackXnack, device, range,
                      last);
    return;
  }
  fail_region(hsa_, op, last, ErrorCode::PrefaultFailed,
              op.what + " failed after " + std::to_string(last) +
                  " attempts with XNACK disabled");
}

void OffloadRuntime::record_breaker_transitions(
    const std::vector<CircuitBreaker::Transition>& transitions, int device) {
  for (const CircuitBreaker::Transition& t : transitions) {
    trace::FaultEvent event = trace::FaultEvent::BreakerClosed;
    switch (t.to) {
      case CircuitBreaker::State::Open:
        event = trace::FaultEvent::BreakerOpened;
        break;
      case CircuitBreaker::State::HalfOpen:
        event = trace::FaultEvent::BreakerHalfOpened;
        break;
      case CircuitBreaker::State::Closed:
        event = trace::FaultEvent::BreakerClosed;
        break;
    }
    hsa_.record_fault(trace::FaultRecord{
        .event = event, .device = device, .time = t.at});
  }
}

void OffloadRuntime::set_service_pressure(int device, double occupancy) {
  sim::Scheduler& sched = hsa_.machine().sched();
  sim::LockGuard lock{table_mutex_, sched};
  service_pressure_.get(sched)[static_cast<std::size_t>(device)] =
      std::clamp(occupancy, 0.0, 1.0);
}

void OffloadRuntime::note_breaker_trip(int device) {
  sim::Scheduler& sched = hsa_.machine().sched();
  sim::LockGuard lock{table_mutex_, sched};
  CircuitBreaker& b =
      breakers_.get(sched)[static_cast<std::size_t>(device)];
  record_breaker_transitions(b.record_trip(sched.now()), device);
  breaker_attention_[static_cast<std::size_t>(device)] =
      b.state() != CircuitBreaker::State::Closed ? 1 : 0;
}

bool OffloadRuntime::breaker_pinned(int device) {
  if (breaker_attention_[static_cast<std::size_t>(device)] == 0) {
    return false;  // closed (the steady state): no lock on the hot path
  }
  sim::Scheduler& sched = hsa_.machine().sched();
  sim::LockGuard lock{table_mutex_, sched};
  return breaker_pinned_locked(device);
}

bool OffloadRuntime::breaker_pinned_locked(int device) {
  if (breaker_attention_[static_cast<std::size_t>(device)] == 0) {
    return false;
  }
  sim::Scheduler& sched = hsa_.machine().sched();
  CircuitBreaker& b =
      breakers_.get(sched)[static_cast<std::size_t>(device)];
  record_breaker_transitions(b.advance_to(sched.now()), device);
  breaker_attention_[static_cast<std::size_t>(device)] =
      b.state() != CircuitBreaker::State::Closed ? 1 : 0;
  return b.open();
}

std::optional<hsa::Signal> OffloadRuntime::fallback_map_zero_copy(
    const MapEntry& entry, int device, trace::FaultEvent reason) {
  apu::Machine& m = hsa_.machine();
  hsa_.record_fault(reason, device, entry.host_range());
  if (reason != trace::FaultEvent::BreakerPinnedMap) {
    // Degraded-mode events feed the breaker alongside watchdog trips; the
    // breaker's own pinned maps must not, or it would never close.
    note_breaker_trip(device);
  }
  if (!m.env().hsa_xnack) {
    // XNACK disabled (Legacy Copy): the GPU cannot demand-fault host
    // pages, so the whole range must be translatable BEFORE the degraded
    // entry is published — the prefault below yields (backoff, driver
    // lock), and another thread may dispatch a kernel on this range the
    // instant it appears in the table.
    prefault_with_retry(entry.host_range(), device);
  }
  sim::LockGuard lock{table_mutex_, m.sched()};
  PresentTable& table = tables_.get(m.sched())[static_cast<std::size_t>(device)];
  // Double-checked: another thread may have mapped the range while this
  // one was prefaulting.
  if (PresentEntry* e = table.lookup_range(entry.host_range()); e != nullptr) {
    if (!e->pinned) {
      ++e->refcount;
    }
    return e->filled_by != m.sched().current().id() ? e->fill : std::nullopt;
  }
  PresentEntry& e = table.insert(entry.host_range(), entry.host_ptr);
  e.refcount = 1;
  e.degraded = true;
  return std::nullopt;
}

adapt::Decision OffloadRuntime::decide_locked(const MapEntry& entry,
                                              int device) {
  apu::Machine& m = hsa_.machine();
  const mem::AddrRange range = entry.host_range();
  adapt::RegionFeatures features;
  features.range = range;
  features.pages = range.page_count(m.page_bytes());
  features.cpu_resident_pages = hsa_.memory().cpu_resident_pages(range);
  features.gpu_absent_pages = hsa_.memory().gpu_absent_pages(range, device);
  features.remote_pages = hsa_.memory().remote_pages(range, device);
  features.ddr_pages = hsa_.memory().ddr_pages(range);
  features.copies_in = copies_to_device(entry.type);
  features.copies_out = copies_to_host(entry.type);
  features.memory_pressure =
      pressure_.get(m.sched())[static_cast<std::size_t>(device)] != 0;
  features.breaker_open = breaker_pinned_locked(device);
  features.tenant_pressure =
      service_pressure_.get(m.sched())[static_cast<std::size_t>(device)];
  const adapt::Outcome out = adapt_.get(m.sched()).decide(device, features);
  trace::DecisionTrace& dtrace = decisions_.get(m.sched());
  if (!out.fresh) {
    m.sched().advance(m.adapt_params().cache_hit_cost);
    dtrace.note_cache_hit();
    return out.decision;
  }
  m.sched().advance(m.adapt_params().eval_cost);
  dtrace.record(trace::DecisionRecord{
      .decision = out.decision,
      .host_thread = m.sched().current().id(),
      .device = device,
      .time = m.sched().now(),
      .host_base = range.base.value,
      .bytes = range.bytes,
      .pages = features.pages,
      .cpu_resident_pages = features.cpu_resident_pages,
      .gpu_absent_pages = features.gpu_absent_pages,
      .predicted_copy_us = out.costs.copy_us,
      .predicted_zero_copy_us = out.costs.zero_copy_us,
      .predicted_eager_us = out.costs.eager_us,
      .revised = out.revised,
      .memory_pressure = features.memory_pressure,
      .breaker_open = features.breaker_open});
  return out.decision;
}

void OffloadRuntime::begin_one(const MapEntry& entry, int device,
                               std::vector<PendingCopy>& copies) {
  if (entry.bytes == 0) {
    throw OffloadError(ErrorCode::InvalidArgument, "map entry with zero size",
                       device, entry.host_range());
  }
  if (exit_only(entry.type)) {
    throw MappingError(std::string{"map type '"} + to_string(entry.type) +
                           "' is only valid on target exit data",
                       ErrorCode::MappingViolation, device,
                       entry.host_range());
  }
  apu::Machine& m = hsa_.machine();
  m.sched().advance(m.costs().map_bookkeeping);

  const MapHandling handling = this->handling(entry);
  if (handling == MapHandling::ZeroCopy) {
    // Zero-copy: no storage operation. Eager Maps additionally prefaults
    // the GPU page table for the mapped range on every map (with the
    // backoff ladder against transient syscall faults). An open breaker
    // forces the same eager prefault on the plain zero-copy
    // configurations: demand-fault storms are a hang site, so the pinned
    // device fronts the page-table work here instead.
    if (config_ == RuntimeConfig::EagerMaps) {
      prefault_with_retry(entry.host_range(), device);
    } else if (breaker_pinned(device)) {
      hsa_.record_fault(trace::FaultEvent::BreakerPinnedMap, device,
                        entry.host_range());
      prefault_with_retry(entry.host_range(), device);
    }
    return;
  }

  bool do_copy = false;
  bool do_prefault = false;
  std::optional<trace::FaultEvent> fallback;
  mem::VirtAddr dev_dst;
  const int tid = m.sched().current().id();
  std::optional<hsa::Signal> await_fill;  // another thread's fresh entry
  std::optional<hsa::Signal> new_fill;    // this thread's fresh entry
  {
    // Mapping-table transaction: the lookup, the classification of a miss
    // and the insert (with the device allocation in between) must be
    // atomic with respect to other host threads mapping the same range, or
    // two threads could classify it differently and race their inserts.
    // The device address leaves the critical section by value — the entry
    // pointer must not.
    sim::LockGuard lock{table_mutex_, m.sched()};
    PresentTable& table =
        tables_.get(m.sched())[static_cast<std::size_t>(device)];
    PresentEntry* e = table.lookup_range(entry.host_range());
    if (e != nullptr) {
      // Present (a Copy mapping or a live DmaCopy classification): plain
      // Copy reference semantics.
      if (!e->pinned) {
        ++e->refcount;
      }
      do_copy = !e->degraded && entry.always && copies_to_device(entry.type);
      dev_dst = e->device_addr(entry.host_ptr);
      // Program order already covers the creator's own transfer.
      await_fill = e->filled_by != tid ? e->fill : std::nullopt;
    } else if (handling == MapHandling::Copy && breaker_pinned_locked(device)) {
      // Open breaker: new mappings skip the pool + DMA entirely (already-
      // mapped ranges above keep their device storage and semantics).
      fallback = trace::FaultEvent::BreakerPinnedMap;
    } else {
      const adapt::Decision decision = handling == MapHandling::Policy
                                           ? decide_locked(entry, device)
                                           : adapt::Decision::DmaCopy;
      do_prefault = decision == adapt::Decision::EagerPrefault;
      if (decision == adapt::Decision::DmaCopy) {
        const hsa::PoolAllocResult r = hsa_.try_memory_pool_allocate(
            entry.bytes, "omp-map:" + entry.host_ptr.to_string(),
            /*count_in_ledger=*/true, device);
        if (!r.ok() || r.reclaimed > 0) {
          // The pool failed, or fit only after the driver spilled SVM
          // pages to DDR: the node is under real pressure. Remember it
          // (sticky, feeds the Adaptive Maps cost model).
          pressure_.get(m.sched())[static_cast<std::size_t>(device)] = 1;
        }
        if (r.ok()) {
          e = &table.insert(entry.host_range(), r.addr);
          e->refcount = 1;
          do_copy = copies_to_device(entry.type);
          dev_dst = e->device_addr(entry.host_ptr);
          if (do_copy) {
            new_fill = e->fill.emplace();
            e->filled_by = tid;
          }
        } else {
          // Device pool exhausted: degrade this map to zero-copy outside
          // the lock.
          fallback = trace::FaultEvent::OomFallbackZeroCopy;
        }
      }
    }
  }
  // The expensive realizations run outside the mapping lock: the DMA
  // target is pinned by the reference this thread holds (no concurrent
  // release can free it), and the prefault only touches the driver's page
  // tables.
  if (fallback) {
    await_fill = fallback_map_zero_copy(entry, device, *fallback);
  } else if (do_prefault) {
    prefault_with_retry(entry.host_range(), device);
  }
  if (await_fill) {
    // Never wait on a pending fill while holding unpublished fills: the
    // other thread could be waiting on one of them.
    if (!await_fill->is_complete()) {
      wait_all(copies);
    }
    await_fill->wait(m.sched());
    if (await_fill->errored()) {
      throw OffloadError(ErrorCode::CopyFailed,
                         "the transfer that created this mapping failed",
                         device, entry.host_range());
    }
  }
  if (do_copy) {
    copies.push_back(submit_copy(dev_dst, entry.host_ptr, entry.bytes,
                                 entry.host_range(),
                                 /*with_handler=*/false,
                                 /*count_in_ledger=*/true, device));
    copies.back().fills = new_fill;
  }
}

void OffloadRuntime::end_copy_one(const MapEntry& entry, int device,
                                  std::vector<PendingCopy>& copies) {
  apu::Machine& m = hsa_.machine();
  m.sched().advance(m.costs().map_bookkeeping);
  const MapHandling handling = this->handling(entry);
  if (handling == MapHandling::ZeroCopy) {
    return;
  }
  bool do_copy = false;
  mem::VirtAddr dev_src;
  {
    // The lookup, the refcount read, and the copy-back decision are one
    // transaction under the mapping lock: without it, a concurrent
    // end_release_one can decrement-and-erase between our lookup and the
    // decision, leaving a dangling entry pointer — exactly where
    // libomptarget takes its per-process lock.
    sim::LockGuard lock{table_mutex_, m.sched()};
    PresentEntry* const e =
        tables_.get(m.sched())[static_cast<std::size_t>(device)].lookup_range(
            entry.host_range());
    if (e == nullptr) {
      if (handling == MapHandling::Policy) {
        return;  // classified zero-copy/prefault: data already in place
      }
      if (exit_only(entry.type)) {
        return;  // release/delete of absent data is a no-op (OpenMP 5.x)
      }
      throw MappingError("target_data_end for unmapped range at " +
                             entry.host_ptr.to_string(),
                         ErrorCode::MappingViolation, device,
                         entry.host_range());
    }
    if (e->degraded) {
      return;  // host memory is the single copy: nothing to transfer back
    }
    const bool last_ref = !e->pinned && e->refcount == 1;
    do_copy = copies_to_host(entry.type) && (entry.always || last_ref);
    dev_src = e->device_addr(entry.host_ptr);
  }
  if (do_copy) {
    // Outside the lock: the caller still holds its reference until the
    // release pass of this same target_data_end, so the storage is live.
    copies.push_back(submit_copy(entry.host_ptr, dev_src, entry.bytes,
                                 entry.host_range(),
                                 /*with_handler=*/true,
                                 /*count_in_ledger=*/true, device));
  }
}

void OffloadRuntime::end_release_one(const MapEntry& entry, int device) {
  const MapHandling handling = this->handling(entry);
  if (handling == MapHandling::ZeroCopy) {
    return;
  }
  const bool policy = handling == MapHandling::Policy;
  sim::Scheduler& sched = hsa_.machine().sched();
  sim::LockGuard lock{table_mutex_, sched};
  PresentTable& table =
      tables_.get(sched)[static_cast<std::size_t>(device)];
  PresentEntry* e = table.lookup_range(entry.host_range());
  if (e == nullptr) {
    if (policy) {
      // Zero-copy-classified range: the mapping lifetime the policy's
      // `decide` opened ends here.
      adapt_.get(sched).release(device, entry.host_range());
    }
    return;
  }
  if (e->pinned) {
    return;
  }
  if (entry.type == MapType::Delete) {
    e->refcount = 0;  // delete drops the mapping regardless of the count
  } else if (e->refcount > 0) {
    --e->refcount;
  }
  if (e->refcount == 0) {
    const mem::VirtAddr dev = e->device_base;
    const mem::VirtAddr host_base = e->host.base;
    const bool degraded = e->degraded;
    if (!degraded) {
      // Degraded entries alias the host allocation — there is no pool
      // storage to return (and pool_free of host memory would throw).
      hsa_.memory_pool_free(dev);
    }
    table.erase(host_base);
    if (policy) {
      // The DmaCopy classification's lifetime ends with the table entry.
      adapt_.get(sched).release(device, entry.host_range());
    }
  }
}

void OffloadRuntime::check_distinct(std::span<const MapEntry> maps) {
  // OpenMP restriction: a list item may appear at most once in the map
  // clauses of a construct. Duplicates would double-count references and
  // corrupt copy-back decisions, so reject them loudly.
  for (std::size_t i = 0; i < maps.size(); ++i) {
    for (std::size_t j = i + 1; j < maps.size(); ++j) {
      const mem::AddrRange a = maps[i].host_range();
      const mem::AddrRange b = maps[j].host_range();
      if (mem::ranges_overlap(a, b)) {
        throw MappingError("overlapping map entries at " +
                           maps[i].host_ptr.to_string() + " and " +
                           maps[j].host_ptr.to_string() +
                           " on one construct");
      }
    }
  }
}

void OffloadRuntime::target_data_begin(std::span<const MapEntry> maps,
                                       int device) {
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::DataBegin, device)) {
    add_maps(*op, maps);
  }
  ensure_initialized();
  check_device(device);
  check_distinct(maps);
  std::vector<PendingCopy> copies;
  std::exception_ptr failed;
  try {
    for (const MapEntry& entry : maps) {
      begin_one(entry, device, copies);
    }
    wait_all(copies);
  } catch (...) {
    failed = std::current_exception();
  }
  if (failed) {
    // The fresh entries the failed region has not published never get
    // their bytes. Outside the handler: a woken waiter may take the CPU.
    sim::Scheduler& sched = hsa_.machine().sched();
    for (PendingCopy& pc : copies) {
      if (pc.fills) {
        pc.fills->complete_error(sched, sched.now());
      }
    }
    std::rethrow_exception(failed);
  }
}

void OffloadRuntime::target_data_end(std::span<const MapEntry> maps,
                                     int device) {
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::DataEnd, device)) {
    add_maps(*op, maps);
  }
  ensure_initialized();
  check_device(device);
  check_distinct(maps);
  std::vector<PendingCopy> copies;
  for (const MapEntry& entry : maps) {
    end_copy_one(entry, device, copies);
  }
  wait_all(copies);
  for (const MapEntry& entry : maps) {
    end_release_one(entry, device);
  }
}

void OffloadRuntime::target_enter_data(std::span<const MapEntry> maps,
                                       int device) {
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::EnterData, device)) {
    add_maps(*op, maps);
  }
  // The construct is recorded as one EnterData op; suppress the nested
  // DataBegin record the implementation below would otherwise add.
  check::SuppressScope suppress{recorder_, hsa_.machine().sched()};
  for (const MapEntry& entry : maps) {
    if (exit_only(entry.type)) {
      throw MappingError(std::string{"map type '"} + to_string(entry.type) +
                         "' is not valid on target enter data");
    }
  }
  target_data_begin(maps, device);
}

void OffloadRuntime::target_exit_data(std::span<const MapEntry> maps,
                                      int device) {
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::ExitData, device)) {
    add_maps(*op, maps);
  }
  check::SuppressScope suppress{recorder_, hsa_.machine().sched()};
  target_data_end(maps, device);
}

void OffloadRuntime::target_update_to(const MapEntry& entry, int device) {
  target_update(entry, device, /*to_device=*/true);
}

void OffloadRuntime::target_update_from(const MapEntry& entry, int device) {
  target_update(entry, device, /*to_device=*/false);
}

void OffloadRuntime::target_update(const MapEntry& entry, int device,
                                   bool to_device) {
  if (check::IrOp* op = record(
          recorder_, hsa_.machine().sched(),
          to_device ? check::OpKind::UpdateTo : check::OpKind::UpdateFrom,
          device)) {
    add_maps(*op, {&entry, 1});
  }
  ensure_initialized();
  check_device(device);
  apu::Machine& m = hsa_.machine();
  m.sched().advance(m.costs().map_bookkeeping);
  const MapHandling handling = this->handling(entry);
  if (handling == MapHandling::ZeroCopy) {
    return;
  }
  mem::VirtAddr dev;
  {
    // Lookup + device-address resolution under the mapping lock; the
    // transfer itself runs outside it (libomptarget releases the lock
    // before issuing the DMA). A conforming program keeps the mapping
    // alive across its own `target update`, so the address stays valid.
    sim::LockGuard lock{table_mutex_, m.sched()};
    PresentEntry* const e =
        tables_.get(m.sched())[static_cast<std::size_t>(device)].lookup_range(
            entry.host_range());
    if (e == nullptr) {
      if (handling == MapHandling::Policy) {
        return;  // zero-copy-classified: host memory is the single copy
      }
      throw MappingError(std::string{"target update "} +
                             (to_device ? "to" : "from") +
                             "() of unmapped range at " +
                             entry.host_ptr.to_string(),
                         ErrorCode::MappingViolation, device,
                         entry.host_range());
    }
    if (e->degraded) {
      return;  // degraded to zero-copy: host memory is the single copy
    }
    dev = e->device_addr(entry.host_ptr);
  }
  std::vector<PendingCopy> copies;
  copies.push_back(submit_copy(to_device ? dev : entry.host_ptr,
                               to_device ? entry.host_ptr : dev, entry.bytes,
                               entry.host_range(), /*with_handler=*/!to_device,
                               /*count_in_ledger=*/true, device));
  wait_all(copies);
}

namespace {

hsa::Access access_for(MapType t) {
  switch (t) {
    case MapType::To:
      return hsa::Access::Read;
    case MapType::From:
      return hsa::Access::Write;
    case MapType::ToFrom:
    case MapType::Alloc:
    case MapType::Release:
    case MapType::Delete:
      return hsa::Access::ReadWrite;
  }
  return hsa::Access::ReadWrite;
}

/// Build the kernel launch for a region whose data has been entered.
/// `device` is the region's device number with `kDeviceAuto` resolved.
hsa::KernelLaunch build_launch(const TargetRegion& region,
                               const ArgTranslator& translator, int device) {
  hsa::KernelLaunch launch;
  launch.name = region.name;
  launch.compute = region.compute;
  launch.device = device;
  launch.buffers.reserve(region.maps.size() + region.uses.size());
  for (const MapEntry& entry : region.maps) {
    launch.buffers.push_back(hsa::BufferAccess{
        translator.device(entry.host_ptr), entry.bytes, access_for(entry.type)});
  }
  for (const BufferUse& use : region.uses) {
    launch.buffers.push_back(hsa::BufferAccess{translator.device(use.addr),
                                               use.bytes, use.access});
  }
  return launch;
}

}  // namespace

void OffloadRuntime::await_kernel(hsa::Signal sig,
                                  const hsa::KernelLaunch& launch,
                                  int host_thread) {
  hsa_.signal_wait_scacquire(sig);
  if (!sig.aborted()) {
    return;
  }
  retry_until_ok(hsa_,
                 RetryOp{.device = launch.device,
                         .what = "kernel '" + launch.name + "'"},
                 CallOutcome::Hung, [&] {
                   const hsa::Signal replay =
                       hsa_.dispatch_kernel(launch, host_thread);
                   hsa_.signal_wait_scacquire(replay);
                   return outcome_of(replay);
                 });
}

int OffloadRuntime::resolve_device(const TargetRegion& region) const {
  // Bytes-weighted vote: the socket homing the most mapped data wins.
  // Allocations with a pending first-touch home have no placement to vote
  // with yet; interleaved allocations vote with their stripe origin.
  std::vector<std::uint64_t> votes(static_cast<std::size_t>(device_count()),
                                   0);
  auto tally = [&](mem::VirtAddr addr, std::uint64_t bytes) {
    const mem::Allocation* const a = hsa_.memory().space().find(addr);
    if (a == nullptr || a->home_pending()) {
      return;
    }
    const int home = a->home_socket();
    if (home >= 0 && home < device_count()) {
      votes[static_cast<std::size_t>(home)] += bytes;
    }
  };
  for (const MapEntry& entry : region.maps) {
    tally(entry.host_ptr, entry.bytes);
  }
  for (const BufferUse& use : region.uses) {
    tally(use.addr, use.bytes);
  }
  int best = 0;
  for (int d = 1; d < device_count(); ++d) {
    if (votes[static_cast<std::size_t>(d)] >
        votes[static_cast<std::size_t>(best)]) {
      best = d;
    }
  }
  return best;
}

void OffloadRuntime::target(const TargetRegion& region) {
  ensure_initialized();
  const int device =
      region.device == kDeviceAuto ? resolve_device(region) : region.device;
  check_device(device);
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::Kernel, device)) {
    add_region(*op, region);
  }
  // One Kernel op stands for the whole construct; the data-begin/data-end
  // halves below must not add their own records (per-thread suppression:
  // the construct yields, and other threads keep recording meanwhile).
  check::SuppressScope suppress{recorder_, hsa_.machine().sched()};
  target_data_begin(region.maps, device);

  // Unguarded table reference: argument translation only resolves entries
  // this thread's data-begin pinned (refcounts held until the data-end
  // below), and std::map references stay valid while *other* entries are
  // inserted or erased concurrently — the same reasoning libomptarget uses
  // to translate args after dropping its mapping lock.
  const ArgTranslator translator{
      tables_.unguarded()[static_cast<std::size_t>(device)],
      zero_copy(), &hsa_.memory().space()};
  hsa::KernelLaunch launch = build_launch(region, translator, device);
  if (region.body) {
    launch.body = [&region, &translator](hsa::KernelContext& ctx) {
      region.body(ctx, translator);
    };
  }
  const int host_thread = hsa_.machine().sched().current().id();
  await_kernel(hsa_.dispatch_kernel(launch, host_thread), launch,
               host_thread);

  target_data_end(region.maps, device);
}

TargetTask OffloadRuntime::target_nowait(const TargetRegion& region,
                                         std::span<const TargetTask*> depends) {
  ensure_initialized();
  const int device =
      region.device == kDeviceAuto ? resolve_device(region) : region.device;
  check_device(device);
  std::uint64_t token = 0;
  if (recorder_ != nullptr) {
    token = recorder_->issue_token(hsa_.machine().sched());
  }
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::Kernel, device)) {
    add_region(*op, region);
    op->nowait = true;
    op->token = token;
  }
  check::SuppressScope suppress{recorder_, hsa_.machine().sched()};
  sim::TimePoint not_before;
  std::vector<hsa::Signal> dep_signals;
  dep_signals.reserve(depends.size());
  for (const TargetTask* dep : depends) {
    if (dep == nullptr || !dep->valid()) {
      throw MappingError("target_nowait: invalid dependence",
                         ErrorCode::TaskMisuse, region.device);
    }
    dep_signals.push_back(dep->signal_);
    if (!dep->signal_.is_complete()) {
      // The dependence is hung in flight (fault injection): its completion
      // time does not exist yet, so block until the watchdog resolves it —
      // or, with no watchdog, deadlock with a diagnostic naming the stuck
      // signal. The dependence's own replay happens at its target_wait.
      hsa_.signal_wait_scacquire(dep->signal_);
    }
    not_before = max(not_before, dep->signal_.complete_at());
  }
  target_data_begin(region.maps, device);

  // Unguarded for the same refcount-pinning reason as in target().
  const ArgTranslator translator{
      tables_.unguarded()[static_cast<std::size_t>(device)],
      zero_copy(), &hsa_.memory().space()};
  hsa::KernelLaunch launch = build_launch(region, translator, device);
  if (region.body) {
    // The functional body runs at dispatch; a conforming program does not
    // observe the results before target_wait anyway. Captured by value
    // (body copy + translator copy): the launch outlives this frame inside
    // the task, where target_wait may replay it after a watchdog abort.
    launch.body = [body = region.body, translator](hsa::KernelContext& ctx) {
      body(ctx, translator);
    };
  }
  TargetTask task;
  task.host_thread_ = hsa_.machine().sched().current().id();
  task.signal_ =
      hsa_.dispatch_kernel(launch, task.host_thread_, not_before, dep_signals);
  task.launch_ = std::move(launch);
  task.maps_.assign(region.maps.begin(), region.maps.end());
  task.device_ = device;
  task.check_token_ = token;
  task.kernel_named_ = true;
  return task;
}

void OffloadRuntime::target_wait(TargetTask& task) {
  if (task.completed_) {
    throw MappingError("target_wait: task already completed",
                       ErrorCode::TaskMisuse, task.device_);
  }
  if (!task.valid()) {
    throw MappingError("target_wait: empty task", ErrorCode::TaskMisuse);
  }
  // The wait op carries a copy of the dispatch's map list so the analyzer
  // can replay the data-end half at the correct point of the *waiting*
  // thread's program order.
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::KernelWait, task.device_)) {
    add_maps(*op, task.maps_);
    op->name = task.launch_.name;
    op->token = task.check_token_;
  }
  check::SuppressScope suppress{recorder_, hsa_.machine().sched()};
  await_kernel(task.signal_, task.launch_, task.host_thread_);
  target_data_end(task.maps_, task.device_);
  task.completed_ = true;
}

mem::VirtAddr OffloadRuntime::device_alloc(std::uint64_t bytes,
                                           std::string name, int device) {
  ensure_initialized();
  check_device(device);
  std::string label = recorder_ != nullptr ? name : std::string{};
  const mem::VirtAddr addr = hsa_.memory_pool_allocate(
      bytes, std::move(name), /*count_in_ledger=*/true, device);
  if (recorder_ != nullptr) {
    sim::Scheduler& sched = hsa_.machine().sched();
    recorder_->add_buffer(sched, mem::AddrRange{addr, bytes}, label,
                          check::BufKind::DevicePool);
    if (check::IrOp* op =
            record(recorder_, sched, check::OpKind::DeviceAlloc, device)) {
      op->range = mem::AddrRange{addr, bytes};
    }
  }
  return addr;
}

void OffloadRuntime::device_free(mem::VirtAddr ptr) {
  ensure_initialized();
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::DeviceFree)) {
    const mem::Allocation* const a = hsa_.memory().space().find(ptr);
    op->range = a != nullptr ? a->range() : mem::AddrRange{ptr, 0};
  }
  hsa_.memory_pool_free(ptr);
}

void OffloadRuntime::target_memcpy(mem::VirtAddr dst, mem::VirtAddr src,
                                   std::uint64_t bytes) {
  ensure_initialized();
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::Memcpy)) {
    op->range = mem::AddrRange{dst, bytes};
    op->src = mem::AddrRange{src, bytes};
  }
  // The copy runs on the SDMA engine of the socket homing the destination —
  // writes stay local to the engine, reads cross the fabric.
  int device = 0;
  if (const mem::Allocation* const a = hsa_.memory().space().find(dst);
      a != nullptr && !a->home_pending()) {
    const int home = a->home_socket();
    if (home >= 0 && home < device_count()) {
      device = home;
    }
  }
  std::vector<PendingCopy> copies;
  copies.push_back(submit_copy(dst, src, bytes, mem::AddrRange{dst, bytes},
                               /*with_handler=*/true, /*count_in_ledger=*/true,
                               device));
  wait_all(copies);
}

std::uint64_t OffloadRuntime::migrate_to_device(mem::AddrRange range,
                                                int device) {
  ensure_initialized();
  check_device(device);
  if (check::IrOp* op = record(recorder_, hsa_.machine().sched(),
                               check::OpKind::Migrate, device)) {
    op->range = range;
  }
  {
    // Placement is a pricing input: cached Adaptive Maps decisions for the
    // range are stale the moment the home moves.
    sim::LockGuard lock{table_mutex_, hsa_.machine().sched()};
    adapt_.get(hsa_.machine().sched()).forget(range);
  }
  return hsa_.migrate_pages(range, device);
}

}  // namespace zc::omp

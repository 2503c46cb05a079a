#include "zc/hsa/runtime.hpp"

#include <algorithm>
#include <utility>

namespace zc::hsa {

using sim::Duration;
using sim::TimePoint;

Runtime::Runtime(apu::Machine& machine, mem::MemorySystem& mem)
    : machine_{machine},
      mem_{mem},
      watchdog_{machine, machine.env().watchdog,
                [this](trace::FaultRecord r) { record_fault(r); }},
      devstats_(static_cast<std::size_t>(mem.sockets())) {}

DeviceCounters& DeviceCounters::operator+=(const DeviceCounters& o) {
  kernels += o.kernels;
  remote_kernels += o.remote_kernels;
  page_faults += o.page_faults;
  tlb_misses += o.tlb_misses;
  copies += o.copies;
  copy_bytes += o.copy_bytes;
  cross_socket_copies += o.cross_socket_copies;
  migrated_pages += o.migrated_pages;
  evicted_pages += o.evicted_pages;
  promoted_pages += o.promoted_pages;
  gpu_time += o.gpu_time;
  compute += o.compute;
  fault_stall += o.fault_stall;
  tlb_stall += o.tlb_stall;
  return *this;
}

void Runtime::configure_tenants(int tenants) {
  tenantstats_.resize(tenants > 0 ? static_cast<std::size_t>(tenants) : 0);
}

void Runtime::set_thread_tenant(int tenant) {
  if (tenant < 0) {
    thread_tenants_.erase(sched().current().id());
  } else {
    thread_tenants_[sched().current().id()] = tenant;
  }
}

void Runtime::count(int device, const DeviceCounters& delta) {
  devstats_.at(static_cast<std::size_t>(device)) += delta;
  if (thread_tenants_.empty()) {
    return;
  }
  const auto it = thread_tenants_.find(sched().current().id());
  if (it != thread_tenants_.end() &&
      static_cast<std::size_t>(it->second) < tenantstats_.size()) {
    tenantstats_[static_cast<std::size_t>(it->second)] += delta;
  }
}

Signal Runtime::hung_signal(std::string name, const fault::Injection& inj,
                            int device, mem::AddrRange range) {
  Signal sig;
  sig.set_name(std::move(name));
  record_injection(inj, device, range);
  watchdog_.watch(sig, device);
  return sig;
}

void Runtime::record_fault(trace::FaultRecord r) { ftrace_.record(r); }

void Runtime::record_fault(trace::FaultEvent event, int device,
                           mem::AddrRange range, int attempt) {
  record_fault(trace::FaultRecord{.event = event,
                                  .device = device,
                                  .time = sched().now(),
                                  .host_base = range.base.value,
                                  .bytes = range.bytes,
                                  .attempt = attempt});
}

void Runtime::record_injection(const fault::Injection& inj, int device,
                               mem::AddrRange range) {
  record_fault(trace::FaultRecord{.event = trace::FaultEvent::Injected,
                                  .injected = inj.kind,
                                  .device = device,
                                  .time = sched().now(),
                                  .host_base = range.base.value,
                                  .bytes = range.bytes,
                                  .factor = inj.factor});
}

Signal Runtime::signal_create() {
  const Duration cost = Duration::from_us(0.2);
  sched().advance(cost);
  stats_.record(trace::HsaCall::SignalCreate, cost);
  return Signal{};
}

void Runtime::signal_wait_scacquire(Signal s) {
  const Duration overhead = machine_.costs().signal_wait_overhead;
  const Duration blocked = s.wait(sched());
  sched().advance(overhead);
  stats_.record(trace::HsaCall::SignalWaitScacquire, blocked + overhead);
}

Runtime::ReclaimCharge Runtime::reclaim_to(int device,
                                           std::uint64_t target_bytes,
                                           std::uint64_t max_pages) {
  ReclaimCharge out;
  const mem::ReclaimOutcome ro = mem_.reclaim(device, target_bytes, max_pages);
  if (ro.evicted == 0) {
    return out;
  }
  const apu::CostParams& c = machine_.costs();
  // An injected evict_storm models writeback amplification (dirty spans,
  // compaction churn): the per-page driver work inflates by the factor.
  double factor = 1.0;
  const fault::Injection inj =
      machine_.faults().consult(fault::Site::Eviction, sched().now());
  if (inj.kind == fault::Kind::EvictStorm) {
    factor = inj.factor;
    record_injection(inj, device, {{}, ro.evicted});
  }
  const std::uint64_t bytes = ro.evicted * mem_.page_bytes();
  // Per-page unmap/TLB-shootdown work on the driver, the SDMA writeback of
  // the spilled bytes, and (THP=dynamic) the span splits the spill forced.
  out.cost =
      machine_.jittered(c.evict_per_page *
                        (static_cast<double>(ro.evicted) * factor)) +
      machine_.jittered(machine_.copy_duration(bytes)) +
      c.thp_split_per_span * static_cast<double>(ro.split);
  out.evicted = ro.evicted;
  devstats_.at(static_cast<std::size_t>(device)).evicted_pages += ro.evicted;
  return out;
}

PoolAllocResult Runtime::try_memory_pool_allocate(std::uint64_t bytes,
                                                  std::string name,
                                                  bool count_in_ledger,
                                                  int device) {
  const apu::CostParams& c = machine_.costs();

  // Failure check first: an injected OOM (the fault engine emulating a
  // fragmented or contended driver) or the socket's HBM genuinely full.
  // Under OMPX_APU_PRESSURE=watermarks a genuinely-full socket degrades
  // gradually instead: the driver spills cold SVM pages to the DDR tier
  // until the request fits (pool pages are pinned, so only SVM residency
  // can yield), and only a reclaim that comes up dry fails the call.
  const fault::Injection inj =
      machine_.faults().consult(fault::Site::PoolAlloc, sched().now());
  bool failed = inj.kind == fault::Kind::Oom;
  std::uint64_t reclaimed = 0;
  Duration reclaim_cost;
  if (!failed && !mem_.pool_fits(bytes, device)) {
    if (machine_.is_apu() &&
        machine_.env().ompx_apu_pressure == apu::PressureMode::Watermarks) {
      const std::uint64_t pb = mem_.page_bytes();
      const std::uint64_t footprint = (bytes + pb - 1) / pb * pb;
      const std::uint64_t cap = mem_.hbm_capacity();
      const std::uint64_t target = cap > footprint ? cap - footprint : 0;
      const ReclaimCharge rc =
          reclaim_to(device, target, ~std::uint64_t{0});
      reclaimed = rc.evicted;
      reclaim_cost = rc.cost;
    }
    failed = !mem_.pool_fits(bytes, device);
  }
  if (failed) {
    // The failed driver round trip costs the base latency (the driver
    // discovers the shortage before any page population) and is a real
    // call in the stats — plus whatever reclaim work was attempted before
    // the shortage proved unfixable.
    const Duration dur = machine_.jittered(c.pool_alloc_base) + reclaim_cost;
    const TimePoint start = sched().now();
    const sim::Interval iv = machine_.driver(device).reserve(start, dur);
    sched().advance_to(iv.end);
    stats_.record(trace::HsaCall::MemoryPoolAllocate, dur);
    if (count_in_ledger) {
      ledger_.add_alloc(dur);
    }
    if (inj.kind == fault::Kind::Oom) {
      record_injection(inj, device, {{}, bytes});
    } else {
      record_fault(trace::FaultEvent::HbmExhausted, device, {{}, bytes});
    }
    return PoolAllocResult{Status::OutOfMemory, {}};
  }

  mem::Allocation* const a = mem_.try_pool_alloc(bytes, std::move(name), device);
  // pool_fits was checked above and no yield happened since (cooperative
  // scheduling): the allocation cannot fail here.
  // Small requests are served from already-populated slabs; only large
  // allocations pay per-page creation and bulk GPU page-table population.
  // The whole operation holds the driver lock.
  const bool slab = bytes < mem_.page_bytes() / 2;
  const std::uint64_t pages =
      slab ? 0 : a->range().page_count(mem_.page_bytes());
  const Duration dur =
      machine_.jittered(c.pool_alloc_base +
                        c.bulk_page_populate * static_cast<double>(pages)) +
      reclaim_cost;
  const TimePoint start = sched().now();
  const sim::Interval iv = machine_.driver(device).reserve(start, dur);
  sched().advance_to(iv.end);
  stats_.record(trace::HsaCall::MemoryPoolAllocate, dur);
  if (count_in_ledger) {
    ledger_.add_alloc(dur);
  }
  if (reclaimed > 0) {
    record_fault(trace::FaultEvent::PoolReclaimed, device, {{}, bytes});
  }
  return PoolAllocResult{Status::Ok, a->base(), reclaimed};
}

mem::VirtAddr Runtime::memory_pool_allocate(std::uint64_t bytes,
                                            std::string name,
                                            bool count_in_ledger, int device) {
  const PoolAllocResult r =
      try_memory_pool_allocate(bytes, std::move(name), count_in_ledger, device);
  if (!r.ok()) {
    throw HsaError("memory_pool_allocate: " + std::to_string(bytes) +
                   "B on device " + std::to_string(device) + " failed: " +
                   to_string(r.status));
  }
  return r.addr;
}

void Runtime::memory_pool_free(mem::VirtAddr base) {
  const apu::CostParams& c = machine_.costs();
  mem::Allocation* const a = mem_.space().find(base);
  const bool slab = a != nullptr && a->bytes() < mem_.page_bytes() / 2;
  const std::uint64_t pages =
      (a != nullptr && !slab) ? a->range().page_count(mem_.page_bytes()) : 0;
  const int socket = a != nullptr ? a->home_socket() : 0;
  const Duration dur = machine_.jittered(
      c.pool_free_base + c.pool_free_per_page * static_cast<double>(pages));
  const TimePoint start = sched().now();
  const sim::Interval iv = machine_.driver(socket).reserve(start, dur);
  sched().advance_to(iv.end);
  mem_.pool_free(base);
  stats_.record(trace::HsaCall::MemoryPoolFree, dur);
  ledger_.add_alloc(dur);
}

Signal Runtime::memory_async_copy(mem::VirtAddr dst, mem::VirtAddr src,
                                  std::uint64_t bytes, bool with_handler,
                                  bool count_in_ledger, int device) {
  if (bytes == 0) {
    throw std::invalid_argument("memory_async_copy: zero-byte copy");
  }
  const apu::CostParams& c = machine_.costs();

  // Functional transfer first: program order on the issuing thread makes
  // this equivalent to performing it at completion time. Only the written
  // extents move (mem::AddressSpace::copy); the timing below prices every
  // byte regardless.
  mem::Allocation* const src_alloc = mem_.space().find(src);
  mem::Allocation* const dst_alloc = mem_.space().find(dst);
  if (src_alloc == nullptr || !src_alloc->range().contains(src + (bytes - 1))) {
    throw std::out_of_range("memory_async_copy: bad source range at " +
                            src.to_string());
  }
  if (dst_alloc == nullptr || !dst_alloc->range().contains(dst + (bytes - 1))) {
    throw std::out_of_range("memory_async_copy: bad destination range at " +
                            dst.to_string());
  }
  // An injected SDMA engine error aborts the transfer mid-flight: no bytes
  // are delivered, but the engine is occupied for the same interval and the
  // signal completes with an error payload (negative HSA signal value). An
  // injected stall also delivers nothing, but the signal never completes.
  const fault::Injection inj =
      machine_.faults().consult(fault::Site::AsyncCopy, sched().now());
  const bool sdma_error = inj.kind == fault::Kind::CopyError;
  const bool sdma_stall = inj.kind == fault::Kind::SdmaStall;
  if (!sdma_error && !sdma_stall) {
    // Race model: a DMA copy is a host-attributed page access at submit
    // time (the functional transfer happens here, in program order on the
    // issuing thread), not a separate task — so D2H copies of kernel
    // results are safe exactly when the issuing thread acquired the
    // kernel's completion signal first, which is what the detector then
    // checks. Suppressed transfers deliver nothing and record nothing; the
    // resubmission records the accesses.
    if (sim::ConcurrencyHooks* h = sched().hooks()) {
      const std::uint64_t pb = mem_.page_bytes();
      const mem::AddrRange srange{src, bytes};
      const mem::AddrRange drange{dst, bytes};
      h->on_host_pages(srange.first_page(pb),
                       srange.end_page(pb) - srange.first_page(pb),
                       /*is_write=*/false,
                       "dma-copy-read('" + src_alloc->name() + "')");
      h->on_host_pages(drange.first_page(pb),
                       drange.end_page(pb) - drange.first_page(pb),
                       /*is_write=*/true,
                       "dma-copy-write('" + dst_alloc->name() + "')");
    }
    mem_.space().copy(dst, src, bytes);
  }

  const Duration setup = machine_.jittered(c.copy_setup);
  const TimePoint start = sched().now();
  const sim::Interval lock_iv = machine_.runtime_lock().reserve(start, setup);
  sched().advance_to(lock_iv.end);
  // Copies whose endpoints live on different sockets cross the fabric.
  // With the fabric modeled, the transfer runs at the connecting xGMI
  // link's bandwidth (plus its hop latency) and occupies the link, so
  // concurrent cross-socket traffic queues behind it; with the fabric
  // off, the legacy flat bandwidth derating applies.
  const std::uint64_t page = mem_.page_bytes();
  const int src_sock = src_alloc->page_home(src, page);
  const int dst_sock = dst_alloc->page_home(dst, page);
  fabric::Fabric& fab = machine_.fabric();
  Duration engine_time = machine_.jittered(machine_.copy_duration(bytes));
  if (src_sock != dst_sock) {
    if (fab.enabled()) {
      engine_time = max(engine_time, machine_.jittered(fab.transfer_duration(
                                         src_sock, dst_sock, bytes)));
    } else {
      engine_time = engine_time * (1.0 / c.remote_copy_bandwidth_factor);
    }
  }
  const sim::Interval iv =
      machine_.sdma(device).reserve(sched().now(), engine_time);
  TimePoint done = iv.end;
  if (src_sock != dst_sock && fab.enabled()) {
    const sim::Interval link_iv =
        fab.reserve_transfer(src_sock, dst_sock, iv.start, engine_time, bytes);
    done = max(done, link_iv.end);
  }

  Signal sig;
  if (sdma_stall) {
    // The engine wedges on this transfer: it stays occupied, but the
    // completion signal never fires. The watchdog (when configured) aborts
    // the operation after its budget; the caller then resubmits.
    sig = hung_signal("sdma-copy@" + dst.to_string(), inj, device,
                      {dst, bytes});
  } else if (sdma_error) {
    sig.complete_error(sched(), done);
    record_injection(inj, device, {dst, bytes});
  } else {
    sig.set_name("sdma-copy@" + dst.to_string());
    sig.complete(sched(), done);
  }
  stats_.record(trace::HsaCall::MemoryAsyncCopy, setup + engine_time);
  if (count_in_ledger) {
    ledger_.add_copy(setup + engine_time);
  }
  if (keep_records_) {
    copy_records_.push_back(trace::CopyRecord{.device = device,
                                              .src_socket = src_sock,
                                              .dst_socket = dst_sock,
                                              .submit = start,
                                              .start = iv.start,
                                              .end = done,
                                              .bytes = bytes});
  }
  count(device, {.copies = 1,
                 .copy_bytes = bytes,
                 .cross_socket_copies = src_sock != dst_sock ? 1U : 0U});
  if (with_handler && !sdma_stall) {
    // Host-side completion callback bookkeeping (a stalled copy's handler
    // never fires).
    const Duration handler_cost = Duration::from_us(1.0);
    stats_.record(trace::HsaCall::SignalAsyncHandler, handler_cost);
  }
  return sig;
}

PrefaultResult Runtime::try_svm_attributes_set_prefault(mem::AddrRange range,
                                                        int device) {
  // The real syscall faults (EFAULT) on addresses outside any mapping;
  // catch the misuse instead of inventing page-table entries for it.
  const mem::Allocation* a = mem_.space().find(range.base);
  if (range.empty() || a == nullptr ||
      !a->range().contains(range.base + (range.bytes - 1))) {
    throw std::invalid_argument(
        "svm_attributes_set: range at " + range.base.to_string() +
        " is not within a live allocation");
  }
  const apu::CostParams& c = machine_.costs();

  const fault::Injection inj =
      machine_.faults().consult(fault::Site::SvmPrefault, sched().now());
  if (inj.kind == fault::Kind::PrefaultHang) {
    // The syscall enters the driver and never returns: the calling thread
    // is stuck inside it until the watchdog (when configured) tears the
    // queue down, or — with no watchdog — the simulation deadlocks with
    // the stuck signal named in the diagnostic. No page table mutates.
    const Duration dur = machine_.jittered_syscall(c.prefault_syscall_base);
    const TimePoint start = sched().now();
    const sim::Interval iv = machine_.driver(device).reserve(start, dur);
    sched().advance_to(iv.end);
    stats_.record(trace::HsaCall::SvmAttributesSet, dur);
    ledger_.add_prefault(dur);
    Signal stuck = hung_signal("svm-prefault@" + range.base.to_string(),
                               inj, device, range);
    stuck.wait(sched());
    return PrefaultResult{Status::TimedOut, {}};
  }
  if (inj.kind == fault::Kind::Eintr || inj.kind == fault::Kind::Ebusy) {
    // Transient syscall failure: the kernel bails before mutating any page
    // table, so only the base syscall latency is paid (still serialized on
    // the driver lock) and the caller sees EINTR/EBUSY.
    const Duration dur = machine_.jittered_syscall(c.prefault_syscall_base);
    const TimePoint start = sched().now();
    const sim::Interval iv = machine_.driver(device).reserve(start, dur);
    sched().advance_to(iv.end);
    stats_.record(trace::HsaCall::SvmAttributesSet, dur);
    record_injection(inj, device, range);
    ledger_.add_prefault(dur);
    return PrefaultResult{
        inj.kind == fault::Kind::Eintr ? Status::Interrupted : Status::Busy,
        {}};
  }

  const mem::PrefaultOutcome out = mem_.prefault(range, device);
  // DDR-spilled pages the prefault reached promote back to HBM (paid like
  // a migration, per page); spans that re-homogenized collapse back to
  // 2 MB mappings (khugepaged work, charged here because the prefault is
  // what made the span collapsible).
  const Duration dur = machine_.jittered_syscall(
      c.prefault_syscall_base +
      c.prefault_insert_per_page * static_cast<double>(out.inserted) +
      c.prefault_populate_per_page * static_cast<double>(out.materialized) +
      c.prefault_check_per_page * static_cast<double>(out.present) +
      c.promote_per_page * static_cast<double>(out.promoted) +
      c.thp_collapse_per_span * static_cast<double>(out.collapsed));
  // The syscall serializes on the owning socket's driver/page-table lock.
  const TimePoint start = sched().now();
  const sim::Interval iv = machine_.driver(device).reserve(start, dur);
  sched().advance_to(iv.end);
  stats_.record(trace::HsaCall::SvmAttributesSet, dur);
  ledger_.add_prefault(dur);
  devstats_.at(static_cast<std::size_t>(device)).promoted_pages +=
      out.promoted;
  return PrefaultResult{Status::Ok, out};
}

mem::PrefaultOutcome Runtime::svm_attributes_set_prefault(mem::AddrRange range,
                                                          int device) {
  const PrefaultResult r = try_svm_attributes_set_prefault(range, device);
  if (!r.ok()) {
    throw HsaError("svm_attributes_set: prefault at " +
                   range.base.to_string() + " failed: " + to_string(r.status));
  }
  return r.outcome;
}

std::uint64_t Runtime::migrate_pages(mem::AddrRange range, int device) {
  const apu::CostParams& c = machine_.costs();
  const mem::Allocation* const a = mem_.space().find(range.base);
  if (a == nullptr) {
    throw std::invalid_argument("migrate_pages: no allocation at " +
                                range.base.to_string());
  }
  const int from = a->home_socket();
  const std::uint64_t moved = mem_.migrate_pages(range, device);
  const TimePoint start = sched().now();
  if (moved == 0) {
    // Nothing physically moves (already home there, or a pending
    // first-touch home just resolved): only the attribute-set syscall
    // round trip is paid.
    const Duration dur = machine_.jittered_syscall(c.prefault_syscall_base);
    const sim::Interval iv = machine_.driver(device).reserve(start, dur);
    sched().advance_to(iv.end);
    stats_.record(trace::HsaCall::SvmAttributesSet, dur);
    return 0;
  }
  // Per-page unmap on the old home, data movement across the fabric, then
  // per-page remap on the new home — each driver phase serialized on its
  // socket's driver lock, so a migration contends with both sockets'
  // fault servicing and prefault syscalls.
  const Duration per_side =
      machine_.jittered(c.page_migrate_per_page * static_cast<double>(moved));
  const sim::Interval s_iv = machine_.driver(from).reserve(start, per_side);
  const std::uint64_t bytes = moved * mem_.page_bytes();
  fabric::Fabric& fab = machine_.fabric();
  sim::Interval x_iv{s_iv.end, s_iv.end};
  if (fab.enabled()) {
    x_iv = fab.reserve_transfer(
        from, device, s_iv.end,
        machine_.jittered(fab.transfer_duration(from, device, bytes)), bytes);
  } else if (from != device) {
    x_iv.end = s_iv.end + machine_.jittered(machine_.copy_duration(bytes) *
                                            (1.0 / c.remote_copy_bandwidth_factor));
  }
  const sim::Interval d_iv = machine_.driver(device).reserve(x_iv.end, per_side);
  sched().advance_to(d_iv.end);
  stats_.record(trace::HsaCall::SvmAttributesSet, d_iv.end - start);
  ledger_.add_prefault(d_iv.end - start);
  devstats_.at(static_cast<std::size_t>(device)).migrated_pages += moved;
  return moved;
}

Signal Runtime::dispatch_kernel(const KernelLaunch& launch, int host_thread,
                                sim::TimePoint not_before,
                                std::span<const Signal> depends) {
  const apu::CostParams& c = machine_.costs();
  const bool xnack = machine_.env().hsa_xnack;

  // CPU-side packet submission, serialized on the shared runtime lock.
  const Duration dispatch_cost = machine_.jittered(c.kernel_dispatch_cpu);
  const TimePoint submit = sched().now();
  const sim::Interval lock_iv =
      machine_.runtime_lock().reserve(submit, dispatch_cost);
  sched().advance_to(lock_iv.end);
  stats_.record(trace::HsaCall::QueueDispatch, dispatch_cost);
  const TimePoint dispatched = max(sched().now(), not_before);

  // An injected queue error hangs the dispatch before the kernel executes:
  // nothing runs, no page table mutates, and the completion signal never
  // fires. The attempt is all-or-nothing so a later replay reproduces the
  // fault-free run's functional effects exactly once.
  const fault::Injection kinj =
      machine_.faults().consult(fault::Site::KernelLaunch, sched().now());
  if (kinj.kind == fault::Kind::KernelHang) {
    return hung_signal("kernel:" + launch.name, kinj, launch.device, {});
  }

  // -- memory-pressure machinery, serviced on the dispatch path ------------
  // The driver samples its access counters and acts on them when kernels
  // run — that is when the GPU's interrupt handler is already live. All the
  // work below is driver work: its cost folds into the kernel's fault-stall
  // term (reserved on the driver lock further down).
  Duration pressure_time;
  const bool sampling =
      machine_.env().ompx_apu_automigrate.enabled ||
      machine_.env().ompx_apu_pressure == apu::PressureMode::Watermarks;
  if (sampling && machine_.is_apu()) {
    pressure_time = pressure_time + c.counter_sample;
    // An injected counter_loss drops the driver's access-counter state:
    // every page reads cold again, stalling pending migration decisions.
    const fault::Injection cinj =
        machine_.faults().consult(fault::Site::AccessCounter, sched().now());
    if (cinj.kind == fault::Kind::CounterLoss) {
      mem_.counter_loss();
      record_injection(cinj, launch.device);
    }
  }
  if (machine_.env().ompx_apu_automigrate.enabled && machine_.is_apu()) {
    // One access-counter migration per dispatch: the hottest page whose
    // remote-touch streak crossed the threshold moves to the touching
    // socket. An injected migration_stall inflates the driver work (page
    // locked, TLB shootdown storms, retried unmaps).
    const mem::MigrationCandidate cand = mem_.take_migration_candidate(
        machine_.env().ompx_apu_automigrate.threshold);
    if (cand.valid) {
      const std::uint64_t pb = mem_.page_bytes();
      const mem::AddrRange pr{mem::VirtAddr{cand.page * pb}, pb};
      const std::uint64_t moved = mem_.migrate_pages(pr, cand.to_socket);
      if (moved > 0) {
        Duration mdur = machine_.jittered(c.page_migrate_per_page * 2.0 *
                                          static_cast<double>(moved));
        const fault::Injection minj = machine_.faults().consult(
            fault::Site::AutoMigrate, sched().now());
        if (minj.kind == fault::Kind::MigrationStall) {
          mdur = mdur * minj.factor;
          record_injection(minj, launch.device, {pr.base, moved * pb});
        }
        pressure_time = pressure_time + mdur;
        devstats_.at(static_cast<std::size_t>(cand.to_socket)).migrated_pages +=
            moved;
      }
    }
  }

  // Page-fault accounting for every buffer the kernel touches. Faults on
  // CPU-resident pages only mirror the translation; faults on untouched
  // pages additionally materialize them (GPU-side first touch). The same
  // walk tallies remote bytes — pages homed on other sockets that this
  // kernel reaches over the fabric — and, per remote home socket, the
  // byte volume for link occupancy below.
  std::uint64_t faults = 0;
  std::uint64_t non_resident = 0;
  std::uint64_t promoted = 0;
  std::uint64_t split_faulted = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t remote_bytes = 0;
  double worst_link_bw = 0.0;  // slowest link crossed, bytes/s
  const std::uint64_t page = mem_.page_bytes();
  fabric::Fabric& fab = machine_.fabric();
  std::vector<std::uint64_t> remote_by_home;
  if (fab.enabled()) {
    remote_by_home.assign(static_cast<std::size_t>(fab.sockets()), 0);
  }
  for (const BufferAccess& b : launch.buffers) {
    mem::Allocation* const a = mem_.space().find(b.addr);
    // Like `svm_attributes_set` (EFAULT) and `memory_async_copy`, a kernel
    // may only touch the allocation its buffer starts in: reaching past it
    // is a memory violation that XNACK replay does not forgive.
    if (!b.range().empty() &&
        (a == nullptr || !a->range().contains(b.addr + (b.bytes - 1)))) {
      throw GpuMemoryFault("kernel '" + launch.name + "': buffer of " +
                           std::to_string(b.bytes) + " B at " +
                           b.addr.to_string() +
                           " is not within a live allocation");
    }
    total_bytes += b.bytes;
    if (a != nullptr) {
      const std::uint64_t rp = a->remote_pages(b.range(), launch.device, page);
      if (rp > 0) {
        const std::uint64_t pages = b.range().page_count(page);
        const std::uint64_t rb = std::max<std::uint64_t>(
            pages > 0 ? b.bytes * rp / pages : b.bytes, 1);
        remote_bytes += rb;
        if (fab.enabled()) {
          if (a->placement() == mem::Placement::Interleaved) {
            // Striped traffic spreads across every link; charge the wide
            // width for the penalty and skip per-link occupancy.
            const double bw = fab.config().wide_bandwidth_bytes_per_s;
            if (worst_link_bw == 0.0 || bw < worst_link_bw) {
              worst_link_bw = bw;
            }
          } else {
            const double bw =
                fab.link(a->home_socket(), launch.device).bandwidth_bytes_per_s;
            if (bw > 0.0 && (worst_link_bw == 0.0 || bw < worst_link_bw)) {
              worst_link_bw = bw;
            }
            remote_by_home.at(static_cast<std::size_t>(a->home_socket())) += rb;
          }
        }
      }
    }
    const std::uint64_t absent =
        mem_.gpu_absent_pages(b.range(), launch.device);
    if (absent == 0) {
      continue;
    }
    if (!xnack) {
      throw GpuMemoryFault(
          "kernel '" + launch.name + "' touches " + std::to_string(absent) +
          " unmapped page(s) at " + b.addr.to_string() +
          " with XNACK disabled");
    }
    const mem::FaultOutcome fo = mem_.gpu_fault_in(b.range(), launch.device);
    faults += fo.faulted;
    non_resident += fo.non_resident;
    promoted += fo.promoted;
    split_faulted += fo.split_faulted;
  }
  Duration fault_time;
  if (faults > 0) {
    fault_time = machine_.jittered(
        machine_.fault_service_duration(true) *
            static_cast<double>(faults - non_resident) +
        machine_.fault_service_duration(false) *
            static_cast<double>(non_resident));
    // A replay storm (interrupt-handler contention amplifying XNACK retry
    // rounds) multiplies the fault-servicing stall. A livelock never
    // converges at all: fault servicing replays forever and the kernel's
    // completion signal never fires (the pages faulted in above stay in —
    // a replay finds them resident and skips this consult entirely).
    const fault::Injection inj =
        machine_.faults().consult(fault::Site::XnackReplay, sched().now());
    if (inj.kind == fault::Kind::XnackLivelock) {
      return hung_signal("kernel:" + launch.name, inj, launch.device,
                         {{}, faults});
    }
    if (inj.kind == fault::Kind::ReplayStorm) {
      fault_time = fault_time * inj.factor;
      record_injection(inj, launch.device, {{}, faults});
    }
  }

  // An injected thp_split_storm fragments the kernel's huge spans under it
  // (memory compaction racing the fault handler): subsequent TLB reach and
  // fault servicing on those spans degrade to 4 KB pricing.
  std::uint64_t storm_split = 0;
  const fault::Injection tinj =
      machine_.faults().consult(fault::Site::ThpSplit, sched().now());
  if (tinj.kind == fault::Kind::ThpSplitStorm) {
    for (const BufferAccess& b : launch.buffers) {
      storm_split += mem_.thp_split_range(b.range());
    }
    record_injection(tinj, launch.device, {{}, storm_split});
    if (storm_split > 0) {
      pressure_time =
          pressure_time +
          c.thp_split_per_span * static_cast<double>(storm_split);
    }
  }

  // Pressure pricing of the fault walk: DDR promotions pay migration-like
  // per-page work, and faults landing in split THP spans replay at 4 KB
  // granularity (the 2 MB mapping is gone), inflating their service cost.
  if (promoted > 0) {
    pressure_time =
        pressure_time +
        machine_.jittered(c.promote_per_page * static_cast<double>(promoted));
  }
  if (split_faulted > 0) {
    pressure_time =
        pressure_time +
        machine_.fault_service_duration(true) *
            (static_cast<double>(split_faulted) *
             (c.thp_split_fault_factor - 1.0));
  }

  // Watermark check: fault-in charged new HBM pages; when occupancy tops
  // the high watermark the driver reclaims down to the low one (one
  // bounded batch per dispatch — reclaim must not stall kernels longer
  // than the batch allows).
  if (machine_.is_apu() &&
      machine_.env().ompx_apu_pressure == apu::PressureMode::Watermarks) {
    const apu::DegradeParams& dg = machine_.degrade_params();
    const std::uint64_t cap = mem_.hbm_capacity();
    const auto high = static_cast<std::uint64_t>(
        dg.evict_high_watermark * static_cast<double>(cap));
    if (mem_.hbm_used(launch.device) > high) {
      const auto low = static_cast<std::uint64_t>(
          dg.evict_low_watermark * static_cast<double>(cap));
      const ReclaimCharge rc =
          reclaim_to(launch.device, low, dg.evict_max_batch_pages);
      pressure_time = pressure_time + rc.cost;
    }
  }

  // TLB behaviour of the streamed ranges. Split huge spans cost extra
  // walks: a span that fragmented to 4 KB needs many entries where one
  // 2 MB entry used to cover it, shrinking effective TLB reach.
  std::uint64_t tlb_misses = 0;
  std::uint64_t split_spans = 0;
  for (const BufferAccess& b : launch.buffers) {
    tlb_misses += mem_.tlb_access(b.range(), launch.device).misses;
    split_spans += mem_.split_spans(b.range());
  }
  const Duration tlb_time =
      c.tlb_walk * static_cast<double>(tlb_misses) +
      c.tlb_walk * (static_cast<double>(split_spans) *
                    (c.thp_split_tlb_factor - 1.0));

  // Fault servicing holds the driver lock; queueing delay behind other
  // driver work (e.g. another thread's prefault syscalls) extends the
  // kernel's stall. Pressure work (counter sampling, auto-migration,
  // promotions, reclaim) is driver work too and shares the reservation.
  Duration fault_term;
  const Duration driver_time = fault_time + pressure_time;
  if (!driver_time.is_zero()) {
    const sim::Interval di =
        machine_.driver(launch.device).reserve(dispatched, driver_time);
    fault_term = di.end - dispatched;
  }

  // XNACK-enabled processes pay a small uniform kernel-time penalty
  // (retry-capable code generation), independent of any faults. Kernels
  // whose data lives on another socket's HBM additionally pay the
  // cross-socket fabric penalty: with the fabric modeled it scales with
  // the fraction of bytes that are remote and the width of the slowest
  // link crossed (narrow diagonal hops hurt more than wide direct ones);
  // with the fabric off the legacy flat multiplier applies.
  Duration base_compute = launch.compute;
  if (xnack) {
    base_compute = base_compute * c.xnack_kernel_slowdown;
  }
  if (remote_bytes > 0) {
    if (fab.enabled()) {
      const double frac = total_bytes > 0
                              ? static_cast<double>(remote_bytes) /
                                    static_cast<double>(total_bytes)
                              : 1.0;
      const double width =
          worst_link_bw > 0.0 ? c.xgmi_wide_bandwidth_bytes_per_s / worst_link_bw
                              : 1.0;
      base_compute = base_compute *
                     (1.0 + (c.remote_memory_penalty - 1.0) * frac * width);
    } else {
      base_compute = base_compute * c.remote_memory_penalty;
    }
  }
  const Duration compute = machine_.jittered(base_compute);
  const Duration launch_lat = machine_.jittered(c.kernel_launch_latency);
  const Duration total = launch_lat + compute + tlb_time + fault_term;
  const sim::Interval gi = machine_.gpu(launch.device).reserve(dispatched, total);

  // Remote-streaming kernels occupy the connecting links for their remote
  // bytes' serialization time, so concurrent copies queue behind them.
  // Link queueing does not extend the kernel itself — the penalty
  // multiplier above is its cost.
  if (fab.enabled()) {
    for (std::size_t h = 0; h < remote_by_home.size(); ++h) {
      if (remote_by_home[h] == 0) {
        continue;
      }
      const int home = static_cast<int>(h);
      fab.reserve_transfer(
          home, launch.device, gi.start,
          fab.transfer_duration(home, launch.device, remote_by_home[h]),
          remote_by_home[h]);
    }
  }

  // Race model: the kernel is a device-side task forked from the
  // dispatching thread's clock, with an extra happens-before edge from
  // each in-queue dependence signal (target_nowait chains on `not_before`
  // without a host-side wait, so those edges exist only here). Every
  // buffer the kernel streams is a page-granularity access attributed to
  // the task; the task's clock is released into the completion signal so
  // waiters (and later D2H copies) are ordered after it. Hung dispatches
  // (kernel_hang, xnack_livelock) return above having executed nothing,
  // so they deliberately record no task and no accesses.
  int race_task = -1;
  if (sim::ConcurrencyHooks* h = sched().hooks()) {
    race_task = h->on_task_begin("kernel:" + launch.name, launch.device);
    for (const Signal& dep : depends) {
      h->on_task_acquire(race_task, dep.id());
    }
    const std::uint64_t pb = mem_.page_bytes();
    for (const BufferAccess& b : launch.buffers) {
      const mem::Allocation* a = mem_.space().find(b.addr);
      const std::string site =
          "kernel:" + launch.name + "(" +
          (a != nullptr ? a->name() : std::string{"?"}) + ")";
      const mem::AddrRange r = b.range();
      h->on_task_pages(race_task, r.first_page(pb),
                       r.end_page(pb) - r.first_page(pb),
                       /*is_write=*/b.access != Access::Read, site);
    }
  }

  // Functional execution.
  if (launch.body) {
    KernelContext ctx{mem_.space()};
    launch.body(ctx);
  }

  if (faults > 0) {
    ledger_.add_first_touch(fault_term);
  }
  if (keep_records_) {
    kernel_records_.push_back(trace::KernelRecord{
        .name = launch.name,
        .host_thread = host_thread,
        .device = launch.device,
        .dispatch = dispatched,
        .start = gi.start,
        .end = gi.end,
        .compute = compute,
        .fault_stall = fault_term,
        .tlb_stall = tlb_time,
        .page_faults = faults,
        .tlb_misses = tlb_misses,
        .remote_bytes = remote_bytes,
    });
  }
  count(launch.device, {.kernels = 1,
                        .remote_kernels = remote_bytes > 0 ? 1U : 0U,
                        .page_faults = faults,
                        .tlb_misses = tlb_misses,
                        .promoted_pages = promoted,
                        .gpu_time = gi.end - gi.start,
                        .compute = compute,
                        .fault_stall = fault_term,
                        .tlb_stall = tlb_time});

  Signal sig;
  sig.set_name("kernel:" + launch.name);
  if (race_task >= 0) {
    if (sim::ConcurrencyHooks* h = sched().hooks()) {
      h->on_task_end(race_task, sig.id());
    }
  }
  sig.complete(sched(), gi.end);
  return sig;
}

void Runtime::run_kernel(const KernelLaunch& launch, int host_thread) {
  signal_wait_scacquire(dispatch_kernel(launch, host_thread));
}

}  // namespace zc::hsa

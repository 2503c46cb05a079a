#include "zc/mem/memory_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "zc/sim/hooks.hpp"

namespace zc::mem {

namespace {

/// Deterministic per-page hash for seeded victim tie-breaks (splitmix64).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

MemorySystem::MemorySystem(apu::Machine& machine)
    : machine_{machine},
      space_{machine.page_bytes()},
      cpu_pt_{machine.page_bytes()},
      hbm_capacity_{machine.topology().hbm_bytes} {
  for (int s = 0; s < machine.sockets(); ++s) {
    gpu_pt_.emplace_back(machine.page_bytes());
    tlb_.emplace_back(machine.costs().tlb_entries, machine.page_bytes());
    hbm_used_.push_back(0);
  }
  const apu::RunEnvironment& env = machine.env();
  sample_counters_ = env.ompx_apu_automigrate.enabled ||
                     env.ompx_apu_pressure == apu::PressureMode::Watermarks;
}

int MemorySystem::home_of(VirtAddr a) const {
  const Allocation* alloc = space_.find(a);
  return alloc != nullptr ? alloc->home_socket() : 0;
}

void MemorySystem::charge(int socket, std::uint64_t bytes) {
  hbm_used_.at(static_cast<std::size_t>(socket)) += bytes;
}

void MemorySystem::credit(int socket, std::uint64_t bytes) {
  std::uint64_t& used = hbm_used_.at(static_cast<std::size_t>(socket));
  used -= std::min(used, bytes);
}

Allocation& MemorySystem::os_alloc(std::uint64_t bytes, std::string name,
                                   int home_socket) {
  Allocation& a = space_.allocate(bytes, MemKind::HostOs, std::move(name));
  a.set_home_socket(home_socket);
  return a;
}

Allocation& MemorySystem::os_alloc_placed(std::uint64_t bytes,
                                          std::string name,
                                          Placement placement,
                                          int home_socket) {
  Allocation& a = os_alloc(bytes, std::move(name), home_socket);
  a.set_placement(placement, static_cast<int>(gpu_pt_.size()));
  return a;
}

void MemorySystem::charge_alloc(Allocation& a, int socket,
                                std::uint64_t pages) {
  if (pages == 0) {
    return;
  }
  charge(socket, pages * page_bytes());
  a.hbm_resident_add(socket, pages, hbm_used_.size());
}

void MemorySystem::credit_page(Allocation& a, int socket) {
  int s = socket;
  if (a.hbm_resident(s) == 0) {
    // Per-page homes and the even-split interleaved attribution can
    // disagree page-by-page; credit wherever this allocation's charges
    // actually landed so the global sum stays exact.
    const std::vector<std::uint64_t>& v = a.hbm_resident_all();
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] > best) {
        best = v[i];
        s = static_cast<int>(i);
      }
    }
    if (best == 0) {
      return;  // nothing charged: nothing to credit
    }
  }
  credit(s, page_bytes());
  a.hbm_resident_sub(s, 1);
}

void MemorySystem::credit_all(Allocation& a) {
  const std::vector<std::uint64_t>& v = a.hbm_resident_all();
  for (std::size_t s = 0; s < v.size(); ++s) {
    if (v[s] > 0) {
      credit(static_cast<int>(s), v[s] * page_bytes());
    }
  }
  for (std::size_t s = 0; s < v.size(); ++s) {
    a.hbm_resident_sub(static_cast<int>(s), a.hbm_resident(static_cast<int>(s)));
  }
}

void MemorySystem::charge_created(VirtAddr addr, std::uint64_t pages) {
  if (pages == 0) {
    return;
  }
  Allocation* a = space_.find(addr);
  if (a == nullptr) {
    charge(0, pages * page_bytes());
    return;
  }
  if (a->placement() == Placement::Interleaved) {
    // Striped pages land on every socket; attribute an even split (exact
    // per-page attribution would track which pages materialized — the
    // even split keeps the counters right for whole-buffer touches, the
    // overwhelmingly common shape).
    const std::uint64_t k = hbm_used_.size();
    for (std::uint64_t s = 0; s < k; ++s) {
      const std::uint64_t share = pages / k + (s < pages % k ? 1 : 0);
      if (share > 0) {
        charge_alloc(*a, static_cast<int>(s), share);
      }
    }
    return;
  }
  charge_alloc(*a, a->home_socket(), pages);
}

void MemorySystem::os_free(VirtAddr base) { release(base, MemKind::HostOs); }

bool MemorySystem::pool_fits(std::uint64_t bytes, int socket) const {
  const std::uint64_t pb = space_.page_bytes();
  const std::uint64_t footprint = (bytes + pb - 1) / pb * pb;
  return hbm_used_.at(static_cast<std::size_t>(socket)) + footprint <=
         hbm_capacity_;
}

Allocation* MemorySystem::try_pool_alloc(std::uint64_t bytes, std::string name,
                                         int socket) {
  // Pool allocations consume physical pages immediately (bulk creation),
  // so this is where the finite shared HBM store pushes back first.
  if (!pool_fits(bytes, socket)) {
    return nullptr;
  }
  Allocation& a = space_.allocate(bytes, MemKind::DevicePool, std::move(name));
  a.set_home_socket(socket);
  // Pool allocations are mapped in bulk at creation: the owning GPU can
  // translate them immediately (no XNACK), and on an APU the CPU can as
  // well, because the driver fulfilled the request from shared storage.
  gpu_pt(socket).insert_range(a.range());
  std::uint64_t created_pages = a.range().page_count(space_.page_bytes());
  if (machine_.is_apu()) {
    created_pages = cpu_pt_.insert_range(a.range());
  }
  charge_alloc(a, socket, created_pages);
  return &a;
}

Allocation& MemorySystem::pool_alloc(std::uint64_t bytes, std::string name,
                                     int socket) {
  Allocation* const a = try_pool_alloc(bytes, std::move(name), socket);
  if (a == nullptr) {
    throw std::runtime_error(
        "MemorySystem: socket " + std::to_string(socket) +
        " HBM exhausted (" + std::to_string(hbm_used(socket)) + " of " +
        std::to_string(hbm_capacity_) + " bytes used, pool request " +
        std::to_string(bytes) + ")");
  }
  return *a;
}

void MemorySystem::pool_free(VirtAddr base) {
  release(base, MemKind::DevicePool);
}

void MemorySystem::release(VirtAddr base, MemKind expected) {
  Allocation* a = space_.find(base);
  if (a == nullptr || a->base() != base) {
    throw std::invalid_argument("MemorySystem: free of unknown base " +
                                base.to_string());
  }
  if (a->kind() != expected) {
    throw std::invalid_argument(std::string{"MemorySystem: free of "} +
                                to_string(a->kind()) + " allocation '" +
                                a->name() + "' via " + to_string(expected) +
                                " API");
  }
  const AddrRange range = a->range();
  // Credit exactly the HBM residency this allocation was charged: the per-
  // socket attribution vector, maintained by every charge path, so capacity
  // accounting cannot drift no matter how the pages migrated or spilled in
  // between. Its DDR spill leaves with its pages below. On a discrete node
  // only pool (VRAM) allocations charged.
  if (machine_.is_apu()) {
    credit_all(*a);
  } else if (a->kind() == MemKind::DevicePool) {
    credit(a->home_socket(), range.page_count(page_bytes()) * page_bytes());
  }
  // Drop per-page pressure state covering the freed range so stale
  // entries can never select a dead page as a victim or candidate.
  const std::uint64_t pb = page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  ddr_pages_.erase(first, end);
  split_spans_.erase(first, end);
  heat_.erase(heat_.lower_bound(first), heat_.lower_bound(end));
  cpu_pt_.remove_range(range);
  for (std::size_t s = 0; s < gpu_pt_.size(); ++s) {
    gpu_pt_[s].remove_range(range);
    tlb_[s].invalidate_range(range);
  }
  space_.free(base);
  maybe_check_accounting();
}

std::uint64_t MemorySystem::host_touch(AddrRange range, int toucher_socket) {
  // Page-granularity race check: a host touch is a host-side write of every
  // page in the range. Under zero-copy these are the same physical pages a
  // kernel accesses, so a touch during an in-flight kernel with no
  // interposed completion edge is exactly the unified-memory data race the
  // detector exists to flag.
  if (sim::ConcurrencyHooks* h = machine_.sched().hooks()) {
    const Allocation* a = space_.find(range.base);
    const std::string site =
        "host_touch('" + (a != nullptr ? a->name() : std::string{"?"}) + "')";
    const std::uint64_t pb = page_bytes();
    h->on_host_pages(range.first_page(pb),
                     range.end_page(pb) - range.first_page(pb),
                     /*is_write=*/true, site);
  }
  if (Allocation* a = space_.find(range.base);
      a != nullptr && a->home_pending()) {
    a->resolve_home(toucher_socket);
  }
  const std::uint64_t created = cpu_pt_.insert_range(range);
  if (machine_.is_apu() && created > 0) {
    charge_created(range.base, created);
  }
  note_touch(range, toucher_socket);
  return created;
}

void MemorySystem::note_touch(AddrRange range, int socket) {
  if (!sample_counters_ || !machine_.is_apu()) {
    return;
  }
  Allocation* a = space_.find(range.base);
  if (a == nullptr || a->kind() != MemKind::HostOs || a->home_pending()) {
    return;
  }
  const std::uint64_t pb = page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  // Bounded access-counter shadow, like the hardware's: overflow drops
  // the oldest state wholesale (the driver re-learns, deterministic).
  if (heat_.size() > 65536) {
    heat_.clear();
  }
  for (std::uint64_t p = first; p < end; ++p) {
    const VirtAddr addr{p * pb};
    const int home = a->page_home(addr, pb);
    if (home == socket) {
      // A home-local touch cools the page: the streak that justifies a
      // migration must be uncontested.
      if (auto it = heat_.find(p); it != heat_.end()) {
        heat_.erase(it);
      }
      continue;
    }
    Heat& h = heat_[p];
    if (h.count == 0 || h.socket != socket) {
      h.socket = socket;
      h.count = 1;
    } else {
      ++h.count;
    }
    h.epoch = ++heat_epoch_;
  }
}

std::uint64_t MemorySystem::gpu_absent_pages(AddrRange range,
                                             int socket) const {
  return gpu_pt_.at(static_cast<std::size_t>(socket)).count_absent(range);
}

std::uint64_t MemorySystem::cpu_resident_pages(AddrRange range) const {
  return cpu_pt_.count_present(range);
}

FaultOutcome MemorySystem::gpu_fault_in(AddrRange range, int socket) {
  // The XNACK-replay walk materializes the host page if needed (the
  // expensive demand path), then inserts the translation into the GPU page
  // table. A GPU-side first touch homes the pages on the faulting socket
  // (the paper's first-touch lesson: the device that materializes owns).
  if (Allocation* a = space_.find(range.base);
      a != nullptr && a->home_pending()) {
    a->resolve_home(socket);
  }
  FaultOutcome out;
  PageTable& pt = gpu_pt(socket);
  const std::uint64_t pb = space_.page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  const bool track_pressure = !ddr_pages_.empty() || !split_spans_.empty();
  // Pages the GPU cannot yet translate fault; of those, pages the host
  // never materialized are additionally created (GPU-side first touch).
  // Only gpu-absent pages reach the host table — a page already GPU-mapped
  // never re-touches host state.
  pt.for_each_absent_run(first, end, [&](std::uint64_t a, std::uint64_t b) {
    out.faulted += b - a;
    out.non_resident += cpu_pt_.insert_pages(a, b);
    out.split_faulted += split_spans_.count(a, b);
  });
  pt.insert_pages(first, end);
  if (machine_.is_apu() && out.non_resident > 0) {
    charge_created(range.base, out.non_resident);
  }
  // A GPU access to a DDR-spilled page promotes it back to HBM: the data
  // must return to the fast tier before the translation is useful.
  if (track_pressure && machine_.is_apu()) {
    if (Allocation* a = space_.find(range.base); a != nullptr) {
      out.promoted = promote_range(*a, first, end);
    }
  }
  note_touch(range, socket);
  return out;
}

std::uint64_t MemorySystem::promote_range(Allocation& a, std::uint64_t first,
                                          std::uint64_t end) {
  const std::uint64_t pb = page_bytes();
  // One charge per page: per-page homes decide where each one lands.
  ddr_pages_.for_each_run(first, end, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t p = lo; p < hi; ++p) {
      charge_alloc(a, a.page_home(VirtAddr{p * pb}, pb), 1);
    }
  });
  return ddr_pages_.erase(first, end);
}

PrefaultOutcome MemorySystem::prefault(AddrRange range, int socket) {
  // Host-side prefault walks the host page table to find entries to
  // mirror; untouched pages are bulk-created first (and reported, since
  // creation dominates their cost). Pages the prefetch path creates are
  // placed for the target GPU, so a pending first-touch resolves to it.
  if (Allocation* a = space_.find(range.base);
      a != nullptr && a->home_pending()) {
    a->resolve_home(socket);
  }
  PrefaultOutcome out;
  PageTable& pt = gpu_pt(socket);
  const std::uint64_t pb = space_.page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  pt.for_each_absent_run(first, end, [&](std::uint64_t a, std::uint64_t b) {
    out.inserted += b - a;
    out.materialized += cpu_pt_.insert_pages(a, b);
  });
  pt.insert_pages(first, end);
  out.present = (end - first) - out.inserted;
  if (machine_.is_apu() && out.materialized > 0) {
    charge_created(range.base, out.materialized);
  }
  if ((!ddr_pages_.empty() || !split_spans_.empty()) && machine_.is_apu()) {
    Allocation* a = space_.find(range.base);
    if (a != nullptr) {
      // Prefetching spilled pages pulls them back into HBM in bulk.
      out.promoted = promote_range(*a, first, end);
      // A prefaulted span that is fully CPU-resident and back in the fast
      // tier re-homogenized: khugepaged collapses it to one 2 MB mapping.
      // Every split span is CPU-resident (spans split only while resident,
      // and release drops both together), and the promotion above left no
      // DDR page in range, so every split span in range collapses.
      if (thp_dynamic()) {
        out.collapsed = split_spans_.erase(first, end);
      }
    }
  }
  return out;
}

std::uint64_t MemorySystem::remote_pages(AddrRange range, int device) const {
  const Allocation* a = space_.find(range.base);
  if (a == nullptr) {
    return 0;
  }
  return a->remote_pages(range, device, page_bytes());
}

std::uint64_t MemorySystem::migrate_pages(AddrRange range, int to_socket) {
  Allocation* const a = space_.find(range.base);
  if (a == nullptr) {
    throw std::invalid_argument("MemorySystem::migrate_pages: unmapped base " +
                                range.base.to_string());
  }
  if (a->kind() == MemKind::DevicePool) {
    throw std::invalid_argument(
        "MemorySystem::migrate_pages: pool allocation '" + a->name() +
        "' cannot migrate (only SVM memory does)");
  }
  (void)hbm_used_.at(static_cast<std::size_t>(to_socket));  // bounds check
  if (a->home_pending()) {
    // Nothing material yet: the "migration" just decides the pending home.
    a->resolve_home(to_socket);
    return 0;
  }
  const AddrRange whole = a->range();
  const std::uint64_t pb = page_bytes();
  const std::uint64_t whole_first = whole.first_page(pb);
  const std::uint64_t whole_end = whole.end_page(pb);
  std::uint64_t first = std::max(range.first_page(pb), whole_first);
  std::uint64_t end = std::min(range.end_page(pb), whole_end);
  if (first >= end) {
    return 0;
  }

  if (first == whole_first && end == whole_end) {
    // -- whole-allocation move: collapse onto one fixed home --------------
    const bool interleaved = a->placement() == Placement::Interleaved;
    if (!interleaved && a->home_socket() == to_socket &&
        a->home_overrides().empty()) {
      return 0;
    }
    const std::uint64_t resident = cpu_pt_.count_present(whole);
    // Move the HBM attribution under the old placement, then collapse the
    // allocation onto its new fixed home. Spilled pages come along: the
    // migration copies them into the destination's HBM.
    if (machine_.is_apu()) {
      credit_all(*a);
      ddr_pages_.erase(whole_first, whole_end);
    }
    a->set_placement(Placement::FixedHome, 1);
    a->set_home_socket(to_socket);
    a->clear_home_overrides();
    if (machine_.is_apu() && resident > 0) {
      charge_alloc(*a, to_socket, resident);
    }
    // Remapped pages arrive as pristine huge mappings again.
    split_spans_.erase(whole_first, whole_end);
    // Migration remaps physical pages: every socket's GPU translations of
    // the allocation are stale and torn down; accesses re-fault or
    // re-prefault against the new home.
    for (std::size_t s = 0; s < gpu_pt_.size(); ++s) {
      gpu_pt_[s].remove_range(whole);
      tlb_[s].invalidate_range(whole);
    }
    maybe_check_accounting();
    return resident;
  }

  // -- partial move: per-page home overrides, idempotent on already-home
  // pages, promotion of spilled pages into the new home -------------------
  std::uint64_t moved = 0;
  bool rehomed_any = false;
  const bool split_moves = thp_dynamic();
  for (std::uint64_t p = first; p < end; ++p) {
    const VirtAddr addr{p * pb};
    if (a->page_home(addr, pb) == to_socket) {
      continue;  // already home: nothing to move, nothing to charge
    }
    rehomed_any = true;
    const int cur = a->page_home(addr, pb);
    if (machine_.is_apu() && ddr_pages_.erase(p, p + 1) > 0) {
      charge_alloc(*a, to_socket, 1);
      ++moved;
    } else if (cpu_pt_.present(p)) {
      if (machine_.is_apu()) {
        credit_page(*a, cur);
        charge_alloc(*a, to_socket, 1);
      }
      ++moved;
    }
    a->set_home_override(p - whole_first, to_socket);
    // Moving part of a huge-page neighborhood fragments it: the moved
    // span's PTEs are re-established at 4 KB until a collapse.
    if (split_moves && cpu_pt_.present(p)) {
      split_spans_.insert(p, p + 1);
    }
  }
  if (!rehomed_any) {
    // Fully idempotent call (every covered page already home): leave the
    // translations alone too — nothing was remapped.
    maybe_check_accounting();
    return 0;
  }
  // Only the covered range's physical pages remapped: tear down exactly
  // those translations everywhere.
  const AddrRange covered{VirtAddr{first * pb}, (end - first) * pb};
  for (std::size_t s = 0; s < gpu_pt_.size(); ++s) {
    gpu_pt_[s].remove_range(covered);
    tlb_[s].invalidate_range(covered);
  }
  maybe_check_accounting();
  return moved;
}

TlbAccessResult MemorySystem::tlb_access(AddrRange range, int socket) {
  return tlb(socket).access_range(range);
}

std::uint64_t MemorySystem::ddr_pages(AddrRange range) const {
  const std::uint64_t pb = page_bytes();
  return ddr_pages_.count(range.first_page(pb), range.end_page(pb));
}

std::uint64_t MemorySystem::split_spans(AddrRange range) const {
  const std::uint64_t pb = page_bytes();
  return split_spans_.count(range.first_page(pb), range.end_page(pb));
}

std::uint64_t MemorySystem::thp_split_range(AddrRange range) {
  if (!thp_dynamic()) {
    return 0;
  }
  const std::uint64_t pb = page_bytes();
  std::uint64_t split = 0;
  cpu_pt_.pages().for_each_run(
      range.first_page(pb), range.end_page(pb),
      [&](std::uint64_t lo, std::uint64_t hi) {
        split += split_spans_.insert(lo, hi);
      });
  return split;
}

ReclaimOutcome MemorySystem::reclaim(int socket, std::uint64_t target_bytes,
                                     std::uint64_t max_pages) {
  ReclaimOutcome out;
  if (!machine_.is_apu() || max_pages == 0 ||
      hbm_used(socket) <= target_bytes) {
    return out;
  }
  const std::uint64_t pb = page_bytes();
  // Victim scan: every SVM page homed here that is CPU-resident and not
  // already spilled is a candidate; pool pages are pinned (the driver
  // cannot page out a coarse-grain allocation). Coldest first, by
  // (remote-touch heat, recency, seeded hash) — the hash gives runs with
  // no counter signal a deterministic but seed-dependent victim order.
  struct Victim {
    std::uint64_t heat_key;
    std::uint64_t epoch;
    std::uint64_t tie;
    std::uint64_t page;
    Allocation* alloc;
  };
  std::vector<Victim> victims;
  const std::uint64_t seed = machine_.seed();
  space_.for_each([&](Allocation& a) {
    if (a.kind() != MemKind::HostOs || a.home_pending()) {
      return;
    }
    const std::uint64_t first = a.range().first_page(pb);
    const std::uint64_t end = a.range().end_page(pb);
    for (std::uint64_t p = first; p < end; ++p) {
      if (a.page_home(VirtAddr{p * pb}, pb) != socket ||
          !cpu_pt_.present(p) || ddr_pages_.contains(p)) {
        continue;
      }
      std::uint64_t heat_key = 0;
      std::uint64_t epoch = 0;
      if (auto it = heat_.find(p); it != heat_.end()) {
        heat_key = it->second.count;
        epoch = it->second.epoch;
      }
      victims.push_back(Victim{heat_key, epoch, mix64(seed ^ p), p, &a});
    }
  });
  std::sort(victims.begin(), victims.end(), [](const Victim& l, const Victim& r) {
    if (l.heat_key != r.heat_key) {
      return l.heat_key < r.heat_key;
    }
    if (l.epoch != r.epoch) {
      return l.epoch < r.epoch;
    }
    return l.tie < r.tie;
  });
  const bool split_evictions = thp_dynamic();
  for (const Victim& v : victims) {
    if (out.evicted >= max_pages || hbm_used(socket) <= target_bytes) {
      break;
    }
    Allocation& a = *v.alloc;
    // Spill: the page leaves HBM for the DDR tier. Its CPU entry stays
    // (the data is intact, just slower), so checksums are unaffected by
    // construction; the GPU translations everywhere are torn down and a
    // later GPU access promotes the page back.
    credit_page(a, socket);
    ddr_pages_.insert(v.page, v.page + 1);
    const AddrRange pr{VirtAddr{v.page * pb}, pb};
    for (std::size_t s = 0; s < gpu_pt_.size(); ++s) {
      gpu_pt_[s].remove_range(pr);
      tlb_[s].invalidate_range(pr);
    }
    if (split_evictions) {
      out.split += split_spans_.insert(v.page, v.page + 1);
    }
    ++out.evicted;
  }
  maybe_check_accounting();
  return out;
}

MigrationCandidate MemorySystem::take_migration_candidate(int threshold) {
  MigrationCandidate out;
  if (threshold <= 0) {
    return out;
  }
  for (auto it = heat_.begin(); it != heat_.end();) {
    if (it->second.count < static_cast<std::uint32_t>(threshold)) {
      ++it;
      continue;
    }
    const std::uint64_t p = it->first;
    const int target = it->second.socket;
    it = heat_.erase(it);  // consumed either way: the streak restarts
    const std::uint64_t pb = page_bytes();
    Allocation* a = space_.find(VirtAddr{p * pb});
    if (a == nullptr || a->kind() != MemKind::HostOs ||
        a->page_home(VirtAddr{p * pb}, pb) == target ||
        !cpu_pt_.present(p) || ddr_pages_.contains(p)) {
      continue;  // stale or already satisfied: keep scanning
    }
    out.page = p;
    out.to_socket = target;
    out.valid = true;
    return out;
  }
  return out;
}

void MemorySystem::check_accounting() const {
  if (!machine_.is_apu()) {
    return;  // discrete pool charges carry no per-allocation attribution
  }
  std::vector<std::uint64_t> expected(hbm_used_.size(), 0);
  space_.for_each([&](const Allocation& a) {
    const std::vector<std::uint64_t>& v = a.hbm_resident_all();
    for (std::size_t s = 0; s < v.size() && s < expected.size(); ++s) {
      expected[s] += v[s];
    }
  });
  const std::uint64_t pb = page_bytes();
  for (std::size_t s = 0; s < hbm_used_.size(); ++s) {
    if (expected[s] * pb != hbm_used_[s]) {
      throw std::logic_error(
          "MemorySystem accounting drift: socket " + std::to_string(s) +
          " hbm_used=" + std::to_string(hbm_used_[s]) +
          " but allocations attribute " + std::to_string(expected[s] * pb));
    }
  }
}

}  // namespace zc::mem

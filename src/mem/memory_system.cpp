#include "zc/mem/memory_system.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>
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

void MemorySystem::charge(int socket, std::uint64_t bytes) {
  hbm_used_.at(static_cast<std::size_t>(socket)) += bytes;
}

void MemorySystem::credit(int socket, std::uint64_t bytes) {
  std::uint64_t& used = hbm_used_.at(static_cast<std::size_t>(socket));
  used -= std::min(used, bytes);
}

template <typename F>
void MemorySystem::for_each_home(std::uint64_t first, std::uint64_t end,
                                 F&& f) const {
  const std::uint64_t pb = page_bytes();
  for (std::uint64_t p = first; p < end;) {
    const Allocation* a = space_.find(VirtAddr{p * pb});
    if (a == nullptr) {
      f(p, p + 1, 0);
      ++p;
      continue;
    }
    const std::uint64_t stop = std::min(end, a->range().end_page(pb));
    if (a->placement() != Placement::Interleaved &&
        a->home_overrides().empty()) {
      f(p, stop, a->home_socket());
      p = stop;
      continue;
    }
    for (; p < stop; ++p) {
      f(p, p + 1, a->page_home(VirtAddr{p * pb}, pb));
    }
  }
}

template <typename F>
void MemorySystem::for_each_hbm_run(std::uint64_t first, std::uint64_t end,
                                    F&& f) const {
  cpu_pt_.pages().for_each_run(first, end,
                               [&](std::uint64_t lo, std::uint64_t hi) {
                                 ddr_pages_.for_each_gap(lo, hi, f);
                               });
}

void MemorySystem::account(std::uint64_t first, std::uint64_t end,
                           int sign) {
  const std::uint64_t pb = page_bytes();
  for_each_home(first, end, [&](std::uint64_t lo, std::uint64_t hi, int s) {
    if (sign > 0) {
      charge(s, (hi - lo) * pb);
    } else {
      credit(s, (hi - lo) * pb);
    }
  });
}

void MemorySystem::account_resident(std::uint64_t first, std::uint64_t end,
                                    int sign) {
  for_each_hbm_run(first, end, [&](std::uint64_t lo, std::uint64_t hi) {
    account(lo, hi, sign);
  });
}

std::uint64_t MemorySystem::materialize(std::uint64_t first,
                                        std::uint64_t end, int socket) {
  const std::uint64_t pb = page_bytes();
  // First touch decides a pending home before any page is charged, so
  // the pages land on it (the device that materializes owns).
  for (std::uint64_t p = first; p < end;) {
    Allocation* a = space_.find(VirtAddr{p * pb});
    if (a != nullptr && a->home_pending()) {
      a->resolve_home(socket);
    }
    p = a != nullptr ? a->range().end_page(pb) : p + 1;
  }
  std::uint64_t created = 0;
  cpu_pt_.for_each_absent_run(first, end,
                              [&](std::uint64_t lo, std::uint64_t hi) {
                                created += hi - lo;
                                if (machine_.is_apu()) {
                                  account(lo, hi, +1);
                                }
                              });
  cpu_pt_.insert_pages(first, end);
  return created;
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
  const std::uint64_t pb = page_bytes();
  if (machine_.is_apu()) {
    (void)materialize(a.range().first_page(pb), a.range().end_page(pb),
                      socket);
  } else {
    charge(socket, a.range().page_count(pb) * pb);
  }
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
  const std::uint64_t pb = page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  // Credit the allocation's HBM-resident pages by home; its DDR spill
  // leaves with its pages below. On a discrete node only pool (VRAM)
  // allocations charged.
  if (machine_.is_apu()) {
    account_resident(first, end, -1);
  } else if (a->kind() == MemKind::DevicePool) {
    credit(a->home_socket(), range.page_count(pb) * pb);
  }
  // Drop per-page pressure state covering the freed range so stale
  // entries can never select a dead page as a victim or candidate.
  ddr_pages_.erase(first, end);
  split_spans_.erase(first, end);
  heat_.erase(heat_.lower_bound(first), heat_.lower_bound(end));
  cpu_pt_.remove_range(range);
  for (std::size_t s = 0; s < gpu_pt_.size(); ++s) {
    gpu_pt_[s].remove_range(range);
    tlb_[s].invalidate_range(range);
  }
  space_.free(base);
}

std::uint64_t MemorySystem::host_touch(AddrRange range, int toucher_socket) {
  // Page-granularity race check: a host touch is a host-side write of every
  // page in the range. Under zero-copy these are the same physical pages a
  // kernel accesses, so a touch during an in-flight kernel with no
  // interposed completion edge is exactly the unified-memory data race the
  // detector exists to flag.
  const std::uint64_t pb = page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  if (sim::ConcurrencyHooks* h = machine_.sched().hooks()) {
    const Allocation* a = space_.find(range.base);
    race_site_.assign("host_touch('").append(
        a != nullptr ? std::string_view{a->name()} : std::string_view{"?"});
    race_site_.append("')");
    h->on_host_pages(first, end - first, /*is_write=*/true, race_site_);
  }
  const std::uint64_t created = materialize(first, end, toucher_socket);
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
  FaultOutcome out;
  PageTable& pt = gpu_pt(socket);
  const std::uint64_t pb = space_.page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  // Pages the GPU cannot yet translate fault; of those, pages the host
  // never materialized are additionally created (GPU-side first touch).
  // Only gpu-absent pages reach the host table — a page already GPU-mapped
  // never re-touches host state.
  pt.for_each_absent_run(first, end, [&](std::uint64_t a, std::uint64_t b) {
    out.faulted += b - a;
    out.non_resident += materialize(a, b, socket);
    out.split_faulted += split_spans_.count(a, b);
  });
  pt.insert_pages(first, end);
  // A GPU access to a DDR-spilled page promotes it back to HBM: the data
  // must return to the fast tier before the translation is useful.
  out.promoted = promote_range(first, end);
  note_touch(range, socket);
  return out;
}

std::uint64_t MemorySystem::promote_range(std::uint64_t first,
                                          std::uint64_t end) {
  // Spilled pages are CPU-present by construction: each one returns to
  // HBM on its own home.
  ddr_pages_.for_each_run(first, end, [&](std::uint64_t lo, std::uint64_t hi) {
    account(lo, hi, +1);
  });
  return ddr_pages_.erase(first, end);
}

PrefaultOutcome MemorySystem::prefault(AddrRange range, int socket) {
  // Host-side prefault walks the host page table to find entries to
  // mirror; untouched pages are bulk-created first (and reported, since
  // creation dominates their cost). Pages the prefetch path creates are
  // placed for the target GPU, so a pending first-touch resolves to it.
  PrefaultOutcome out;
  PageTable& pt = gpu_pt(socket);
  const std::uint64_t pb = space_.page_bytes();
  const std::uint64_t first = range.first_page(pb);
  const std::uint64_t end = range.end_page(pb);
  pt.for_each_absent_run(first, end, [&](std::uint64_t a, std::uint64_t b) {
    out.inserted += b - a;
    out.materialized += materialize(a, b, socket);
  });
  pt.insert_pages(first, end);
  out.present = (end - first) - out.inserted;
  // Prefetching spilled pages pulls them back into HBM in bulk.
  out.promoted = promote_range(first, end);
  // A prefaulted span that is fully CPU-resident and back in the fast tier
  // re-homogenized: khugepaged collapses it to one 2 MB mapping. Every
  // split span is CPU-resident (spans split only while resident, and
  // release drops both together), and the promotion above left no DDR
  // page in range, so every split span in range collapses.
  if (thp_dynamic() && machine_.is_apu()) {
    out.collapsed = split_spans_.erase(first, end);
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
    // Credit the HBM pages under the old placement, then collapse the
    // allocation onto its new fixed home. Spilled pages come along: the
    // migration copies them into the destination's HBM.
    if (machine_.is_apu()) {
      account_resident(whole_first, whole_end, -1);
      ddr_pages_.erase(whole_first, whole_end);
      charge(to_socket, resident * pb);
    }
    a->set_placement(Placement::FixedHome, 1);
    a->set_home_socket(to_socket);
    a->clear_home_overrides();
    // Remapped pages arrive as pristine huge mappings again.
    split_spans_.erase(whole_first, whole_end);
    // Migration remaps physical pages: every socket's GPU translations of
    // the allocation are stale and torn down; accesses re-fault or
    // re-prefault against the new home.
    for (std::size_t s = 0; s < gpu_pt_.size(); ++s) {
      gpu_pt_[s].remove_range(whole);
      tlb_[s].invalidate_range(whole);
    }
    return resident;
  }

  // -- partial move: per-page home overrides, idempotent on already-home
  // pages, promotion of spilled pages into the new home -------------------
  std::uint64_t moved = 0;
  bool rehomed_any = false;
  const bool split_moves = thp_dynamic();
  for (std::uint64_t p = first; p < end; ++p) {
    const int cur = a->page_home(VirtAddr{p * pb}, pb);
    if (cur == to_socket) {
      continue;  // already home: nothing to move, nothing to charge
    }
    rehomed_any = true;
    if (machine_.is_apu() && ddr_pages_.erase(p, p + 1) > 0) {
      charge(to_socket, pb);
      ++moved;
    } else if (cpu_pt_.present(p)) {
      if (machine_.is_apu()) {
        credit(cur, pb);
        charge(to_socket, pb);
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
    return 0;
  }
  // Only the covered range's physical pages remapped: tear down exactly
  // those translations everywhere.
  const AddrRange covered{VirtAddr{first * pb}, (end - first) * pb};
  for (std::size_t s = 0; s < gpu_pt_.size(); ++s) {
    gpu_pt_[s].remove_range(covered);
    tlb_[s].invalidate_range(covered);
  }
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
  };
  std::vector<Victim> victims;
  const std::uint64_t seed = machine_.seed();
  space_.for_each([&](const Allocation& a) {
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
      victims.push_back(Victim{heat_key, epoch, mix64(seed ^ p), p});
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
    // Spill: the page leaves HBM for the DDR tier. Its CPU entry stays
    // (the data is intact, just slower), so checksums are unaffected by
    // construction; the GPU translations everywhere are torn down and a
    // later GPU access promotes the page back. Victims are homed here.
    credit(socket, pb);
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
    return;  // a discrete node charges pool footprints, not pages
  }
  const std::uint64_t pb = page_bytes();
  std::vector<std::uint64_t> expected(hbm_used_.size(), 0);
  for_each_hbm_run(0, std::numeric_limits<std::uint64_t>::max(),
                   [&](std::uint64_t lo, std::uint64_t hi) {
                     for_each_home(lo, hi, [&](std::uint64_t l,
                                               std::uint64_t h, int s) {
                       expected.at(static_cast<std::size_t>(s)) +=
                           (h - l) * pb;
                     });
                   });
  for (std::size_t s = 0; s < hbm_used_.size(); ++s) {
    if (expected[s] != hbm_used_[s]) {
      throw std::logic_error(
          "MemorySystem accounting drift: socket " + std::to_string(s) +
          " hbm_used=" + std::to_string(hbm_used_[s]) +
          " but its resident pages hold " + std::to_string(expected[s]));
    }
  }
}

}  // namespace zc::mem

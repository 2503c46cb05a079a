#include "zc/check/analyzer.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "zc/mem/run_set.hpp"

namespace zc::check {
namespace {

[[nodiscard]] std::uint64_t end_of(mem::AddrRange r) {
  return r.base.value + r.bytes;
}

// ---------------------------------------------------------------------------
// Per-buffer reference scanning, shared by the analyzer tiers and the race
// partition. Every verdict below is keyed by the buffer *label*, never by
// addresses, so outputs are bit-identical across stress seeds.
// ---------------------------------------------------------------------------

[[nodiscard]] bool op_is_publish(const IrOp& op) {
  switch (op.kind) {
    case OpKind::DataBegin:
    case OpKind::EnterData:
    case OpKind::Kernel:
    case OpKind::UpdateTo:
      return true;
    default:
      return false;
  }
}

/// Invoke `fn(range)` for every host range the op references.
template <typename Fn>
void for_each_ref(const IrOp& op, Fn&& fn) {
  for (const IrMap& m : op.maps) {
    fn(m.range);
  }
  for (const IrUse& u : op.uses) {
    fn(u.range);
  }
  if (op.range.bytes != 0) {
    fn(op.range);
  }
  if (op.src.bytes != 0) {
    fn(op.src);
  }
}

struct BufRefs {
  const IrBuffer* buf = nullptr;
  std::set<std::string> threads;   ///< referencing thread names
  bool nowait = false;             ///< any nowait op references it
  bool dma_or_migrate = false;     ///< Memcpy / Migrate / DeviceFree touch it
  bool host_free = false;
  bool device_writes = false;      ///< From/ToFrom clause, W/RW use, UpdateFrom
  /// Per thread: last host-write ordinal and first publish ordinal (both
  /// per-thread program order, hence seed-invariant).
  struct PerThread {
    bool has_host_write = false;
    std::uint64_t last_host_write = 0;
    bool has_publish = false;
    std::uint64_t first_publish = 0;
  };
  std::map<std::string, PerThread> per_thread;
};

[[nodiscard]] std::map<std::string, BufRefs> scan_refs(const OffloadIR& ir) {
  std::map<std::string, BufRefs> refs;
  for (const IrBuffer& b : ir.buffers) {
    refs[b.label].buf = &b;
  }
  for (const ThreadStream& t : ir.threads) {
    for (const IrOp& op : t.ops) {
      std::set<const IrBuffer*> touched;
      for_each_ref(op, [&](mem::AddrRange r) {
        if (const IrBuffer* b = ir.find(r.base)) {
          touched.insert(b);
        }
      });
      for (const IrBuffer* b : touched) {
        BufRefs& br = refs[b->label];
        br.threads.insert(t.thread);
        br.nowait |= op.nowait;
        BufRefs::PerThread& pt = br.per_thread[t.thread];
        switch (op.kind) {
          case OpKind::HostTouch:
            pt.has_host_write = true;
            pt.last_host_write = op.ordinal;
            break;
          case OpKind::HostFree:
            br.host_free = true;
            break;
          case OpKind::Memcpy:
          case OpKind::Migrate:
          case OpKind::DeviceFree:
            br.dma_or_migrate = true;
            break;
          case OpKind::UpdateFrom:
            br.device_writes = true;
            break;
          default:
            break;
        }
        for (const IrMap& m : op.maps) {
          if (ir.find(m.range.base) == b && omp::copies_to_host(m.type)) {
            br.device_writes = true;  // d2h copy-back writes host pages
          }
        }
        for (const IrUse& u : op.uses) {
          if (ir.find(u.range.base) == b && u.access != hsa::Access::Read) {
            br.device_writes = true;
          }
        }
        if (op_is_publish(op) && !pt.has_publish) {
          pt.has_publish = true;
          pt.first_publish = op.ordinal;
        }
      }
    }
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Tier B: precise abstract-PresentTable walk for single-owner buffers.
// ---------------------------------------------------------------------------

struct AbsEntry {
  mem::AddrRange range;
  std::uint64_t refcount = 1;
  bool copies_in = false;   ///< established by a to/tofrom clause
  bool copies_out = false;  ///< carries a from/tofrom obligation
};

struct TierB {
  const OffloadIR& ir;
  const IrBuffer& buf;
  omp::RuntimeConfig config;
  std::vector<CheckFinding>& out;

  std::map<int, std::vector<AbsEntry>> tables;  ///< per-device entries
  mem::RunSet device_dirty;  ///< kernel-written, not yet copied back
  mem::RunSet host_dirty;    ///< host-written while a to/tofrom entry was live

  void emit(CheckKind kind, const std::string& thread, const IrOp& op,
            mem::AddrRange range, std::string message) {
    CheckFinding f;
    f.kind = kind;
    f.thread = thread;
    f.op_index = op.ordinal;
    f.buffer = ir.describe(range);
    f.device = op.device;
    f.message = std::move(message);
    out.push_back(std::move(f));
  }

  [[nodiscard]] bool always_present() const {
    return buf.kind != BufKind::Host;
  }

  [[nodiscard]] bool present_on(int device, mem::AddrRange r) const {
    if (always_present()) {
      return true;
    }
    auto it = tables.find(device);
    if (it == tables.end()) {
      return false;
    }
    mem::RunSet u;
    for (const AbsEntry& e : it->second) {
      u.insert(e.range.base.value, end_of(e.range));
    }
    return u.covers(r.base.value, end_of(r));
  }

  [[nodiscard]] bool present_elsewhere(int device, mem::AddrRange r) const {
    for (const auto& [d, entries] : tables) {
      if (d == device) {
        continue;
      }
      mem::RunSet u;
      for (const AbsEntry& e : entries) {
        u.insert(e.range.base.value, end_of(e.range));
      }
      if (u.covers(r.base.value, end_of(r))) {
        return true;
      }
    }
    return false;
  }

  void enter_clause(const std::string& thread, const IrOp& op,
                    const IrMap& m) {
    if (m.range.bytes == 0) {
      emit(CheckKind::InvalidMap, thread, op, m.range,
           "zero-byte map clause");
      return;
    }
    if (omp::exit_only(m.type)) {
      emit(CheckKind::InvalidMap, thread, op, m.range,
           std::string{"'"} + omp::to_string(m.type) +
               "' clause on a data-entry construct");
      return;
    }
    std::vector<AbsEntry>& entries = tables[op.device];
    AbsEntry* covering = nullptr;
    for (AbsEntry& e : entries) {
      const mem::RangeRelation rel = mem::range_relation(e.range, m.range);
      if (rel == mem::RangeRelation::Disjoint) {
        continue;
      }
      if (rel == mem::RangeRelation::Equal ||
          rel == mem::RangeRelation::Contains) {
        covering = &e;  // subset re-map attaches to the live entry
        continue;
      }
      emit(CheckKind::OverlapMap, thread, op, m.range,
           std::string{to_string(rel)} + "-overlap with live mapping " +
               ir.describe(e.range));
      return;
    }
    if (covering != nullptr) {
      ++covering->refcount;
      // A non-`always` re-map of present data transfers nothing; only
      // `always to/tofrom` re-publishes host writes.
      if (m.always && omp::copies_to_device(m.type)) {
        host_dirty.erase(m.range.base.value, end_of(m.range));
      }
      return;
    }
    entries.push_back(AbsEntry{m.range, 1, omp::copies_to_device(m.type),
                               omp::copies_to_host(m.type)});
    if (omp::copies_to_device(m.type)) {
      // The first insert's h2d transfer publishes every host write.
      host_dirty.erase(m.range.base.value, end_of(m.range));
    }
  }

  void exit_clause(const std::string& thread, const IrOp& op,
                   const IrMap& m) {
    if (m.range.bytes == 0) {
      emit(CheckKind::InvalidMap, thread, op, m.range,
           "zero-byte map clause");
      return;
    }
    std::vector<AbsEntry>& entries = tables[op.device];
    for (std::size_t i = 0; i < entries.size(); ++i) {
      AbsEntry& e = entries[i];
      const mem::RangeRelation rel = mem::range_relation(e.range, m.range);
      if (rel == mem::RangeRelation::Disjoint) {
        continue;
      }
      if (rel != mem::RangeRelation::Equal &&
          rel != mem::RangeRelation::Contains) {
        emit(CheckKind::OverlapMap, thread, op, m.range,
             std::string{to_string(rel)} +
                 "-overlap on exit with live mapping " +
                 ir.describe(e.range));
        return;
      }
      if (m.type == omp::MapType::Delete) {
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
        return;  // delete discards all outstanding references at once
      }
      if (omp::copies_to_host(m.type) && (m.always || e.refcount == 1)) {
        // The d2h copy-back materialises the kernel's writes.
        device_dirty.erase(m.range.base.value, end_of(m.range));
      }
      if (--e.refcount == 0) {
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      }
      return;
    }
    if (always_present()) {
      return;  // device-pool / global ranges never go absent
    }
    emit(CheckKind::DoubleRelease, thread, op, m.range,
         std::string{"'"} + omp::to_string(m.type) +
             "' of a range with no live mapping");
  }

  void kernel_uses(const std::string& thread, const IrOp& op) {
    for (const IrUse& u : op.uses) {
      if (ir.find(u.range.base) != &buf) {
        continue;
      }
      if (!present_on(op.device, u.range)) {
        if (present_elsewhere(op.device, u.range)) {
          emit(CheckKind::DeviceMismatch, thread, op, u.range,
               "kernel '" + op.name + "' uses data mapped on another device");
        } else {
          emit(CheckKind::UseBeforeMap, thread, op, u.range,
               "kernel '" + op.name + "' uses data never made present");
        }
      }
      if (u.access != hsa::Access::Write &&
          host_dirty.overlaps(u.range.base.value, end_of(u.range))) {
        emit(CheckKind::ConfigDivergence, thread, op, u.range,
             "kernel '" + op.name +
                 "' reads host bytes written after the to-transfer; correct "
                 "only under coherent zero-copy (config " +
                 std::string{omp::to_string(config)} + " diverges)");
        // One finding per divergent write.
        host_dirty.erase(u.range.base.value, end_of(u.range));
      }
      if (u.access != hsa::Access::Read) {
        device_dirty.insert(u.range.base.value, end_of(u.range));
      }
    }
    // `from`/`tofrom` clauses declare the kernel produces the range; the
    // copy-back at region exit (or its absence) decides staleness.
    for (const IrMap& m : op.maps) {
      if (ir.find(m.range.base) == &buf && omp::copies_to_host(m.type)) {
        device_dirty.insert(m.range.base.value, end_of(m.range));
      }
    }
  }

  void step(const std::string& thread, const IrOp& op) {
    auto mine = [&](mem::AddrRange r) { return ir.find(r.base) == &buf; };
    switch (op.kind) {
      case OpKind::HostTouch: {
        if (!mine(op.range)) {
          return;
        }
        for (const auto& [d, entries] : tables) {
          for (const AbsEntry& e : entries) {
            if (e.copies_in && mem::ranges_overlap(e.range, op.range)) {
              // Record the overlap; the finding fires only if a kernel
              // actually reads it without a fresh transfer.
              const std::uint64_t lo =
                  std::max(e.range.base.value, op.range.base.value);
              const std::uint64_t hi =
                  std::min(end_of(e.range), end_of(op.range));
              host_dirty.insert(lo, hi);
            }
          }
        }
        return;
      }
      case OpKind::HostRead: {
        if (mine(op.range) &&
            device_dirty.overlaps(op.range.base.value, end_of(op.range))) {
          emit(CheckKind::StaleHostRead, thread, op, op.range,
               "host reads kernel-written bytes never copied back (no "
               "'target update from'); stale under " +
                   std::string{omp::to_string(config)} + "-style copying");
          // One finding per stale write.
          device_dirty.erase(op.range.base.value, end_of(op.range));
        }
        return;
      }
      case OpKind::HostFree: {
        if (!mine(op.range)) {
          return;
        }
        for (const auto& [d, entries] : tables) {
          for (const AbsEntry& e : entries) {
            if (mem::ranges_overlap(e.range, op.range)) {
              emit(CheckKind::ConfigDivergence, thread, op, op.range,
                   "host_free of a range still mapped on device " +
                       std::to_string(d) +
                       "; a copying runtime faults here");
              return;
            }
          }
        }
        return;
      }
      case OpKind::DataBegin:
      case OpKind::EnterData:
        for (const IrMap& m : op.maps) {
          if (mine(m.range)) {
            enter_clause(thread, op, m);
          }
        }
        return;
      case OpKind::DataEnd:
      case OpKind::ExitData:
        for (const IrMap& m : op.maps) {
          if (mine(m.range)) {
            exit_clause(thread, op, m);
          }
        }
        return;
      case OpKind::UpdateTo:
      case OpKind::UpdateFrom:
        for (const IrMap& m : op.maps) {
          if (!mine(m.range)) {
            continue;
          }
          if (!present_on(op.device, m.range)) {
            emit(CheckKind::UseBeforeMap, thread, op, m.range,
                 "'target update' of a range with no live mapping");
            continue;
          }
          mem::RunSet& clean =
              op.kind == OpKind::UpdateTo ? host_dirty : device_dirty;
          clean.erase(m.range.base.value, end_of(m.range));
        }
        return;
      case OpKind::Kernel:
        for (const IrMap& m : op.maps) {
          if (mine(m.range)) {
            enter_clause(thread, op, m);
          }
        }
        kernel_uses(thread, op);
        if (!op.nowait) {
          for (const IrMap& m : op.maps) {
            if (mine(m.range)) {
              exit_clause(thread, op, m);
            }
          }
        }
        return;
      case OpKind::KernelWait:
        // The recorder copies the dispatched launch's maps into the wait
        // op, so the data-end half replays here.
        for (const IrMap& m : op.maps) {
          if (mine(m.range)) {
            exit_clause(thread, op, m);
          }
        }
        return;
      case OpKind::DeviceAlloc:
      case OpKind::DeviceFree:
      case OpKind::Memcpy:
      case OpKind::Migrate:
        return;  // pool management / explicit DMA: no mapping obligations
    }
  }
};

// ---------------------------------------------------------------------------
// Tier A: order-free set algebra for buffers referenced by several threads.
// ---------------------------------------------------------------------------

void tier_a(const OffloadIR& ir, const IrBuffer& buf,
            std::vector<CheckFinding>& out) {
  std::map<int, mem::RunSet> ever_mapped;
  std::uint64_t enters = 0;
  std::uint64_t exits = 0;
  bool first_exit = false;
  std::string exit_thread;
  std::uint64_t exit_ordinal = 0;
  int exit_device = 0;
  mem::AddrRange exit_range{};

  auto mine = [&](mem::AddrRange r) { return ir.find(r.base) == &buf; };
  for (const ThreadStream& t : ir.threads) {
    for (const IrOp& op : t.ops) {
      const bool entering = op.kind == OpKind::DataBegin ||
                            op.kind == OpKind::EnterData ||
                            op.kind == OpKind::Kernel;
      const bool exiting =
          op.kind == OpKind::DataEnd || op.kind == OpKind::ExitData;
      for (const IrMap& m : op.maps) {
        if (!mine(m.range)) {
          continue;
        }
        if (entering && !omp::exit_only(m.type)) {
          ever_mapped[op.device].insert(m.range.base.value, end_of(m.range));
          if (op.kind != OpKind::Kernel) {
            ++enters;  // kernel-scope clauses are begin/end balanced
          }
        }
        if (exiting) {
          ++exits;
          if (!first_exit || t.thread < exit_thread ||
              (t.thread == exit_thread && op.ordinal < exit_ordinal)) {
            first_exit = true;
            exit_thread = t.thread;
            exit_ordinal = op.ordinal;
            exit_device = op.device;
            exit_range = m.range;
          }
        }
      }
    }
  }

  if (buf.kind == BufKind::Host) {
    for (const ThreadStream& t : ir.threads) {
      for (const IrOp& op : t.ops) {
        if (op.kind != OpKind::Kernel) {
          continue;
        }
        for (const IrUse& u : op.uses) {
          if (!mine(u.range)) {
            continue;
          }
          auto it = ever_mapped.find(op.device);
          const std::uint64_t lo = u.range.base.value;
          const std::uint64_t hi = end_of(u.range);
          if (it != ever_mapped.end() && it->second.covers(lo, hi)) {
            continue;
          }
          bool elsewhere = false;
          for (const auto& [d, ranges] : ever_mapped) {
            if (d != op.device && ranges.covers(lo, hi)) {
              elsewhere = true;
              break;
            }
          }
          CheckFinding f;
          f.kind = elsewhere ? CheckKind::DeviceMismatch
                             : CheckKind::UseBeforeMap;
          f.thread = t.thread;
          f.op_index = op.ordinal;
          f.buffer = ir.describe(u.range);
          f.device = op.device;
          f.message =
              elsewhere
                  ? "kernel '" + op.name +
                        "' uses data only ever mapped on another device"
                  : "kernel '" + op.name +
                        "' uses data no thread ever maps";
          out.push_back(std::move(f));
        }
      }
    }
  }

  if (exits > enters && first_exit) {
    CheckFinding f;
    f.kind = CheckKind::DoubleRelease;
    f.thread = exit_thread;
    f.op_index = exit_ordinal;
    f.buffer = ir.describe(exit_range);
    f.device = exit_device;
    f.message = std::to_string(exits) + " data-exit clause(s) against " +
                std::to_string(enters) + " data-entry clause(s)";
    out.push_back(std::move(f));
  }
}

void structural_pass(const OffloadIR& ir, std::vector<CheckFinding>& out) {
  for (const ThreadStream& t : ir.threads) {
    for (const IrOp& op : t.ops) {
      for_each_ref(op, [&](mem::AddrRange r) {
        if (r.bytes != 0 && ir.find(r.base) == nullptr) {
          CheckFinding f;
          f.kind = CheckKind::InvalidMap;
          f.thread = t.thread;
          f.op_index = op.ordinal;
          f.buffer = ir.describe(r);
          f.device = op.device;
          f.message = std::string{to_string(op.kind)} +
                      " references an address outside every known allocation";
          out.push_back(std::move(f));
        }
      });
    }
  }
}

[[nodiscard]] std::uint64_t span_pages(mem::AddrRange r,
                                       std::uint64_t page_bytes) {
  if (r.bytes == 0) {
    return 0;
  }
  const std::uint64_t first = r.base.value / page_bytes;
  const std::uint64_t last = (end_of(r) - 1) / page_bytes;
  return last - first + 1;
}

[[nodiscard]] std::uint64_t inner_pages(mem::AddrRange r,
                                        std::uint64_t page_bytes) {
  const std::uint64_t first =
      (r.base.value + page_bytes - 1) / page_bytes;  // round base up
  const std::uint64_t end = end_of(r) / page_bytes;  // round end down
  return end > first ? end - first : 0;
}

}  // namespace

namespace {

[[nodiscard]] RacePartition partition_from(
    const OffloadIR& ir, const std::map<std::string, BufRefs>& refs) {
  RacePartition part;
  for (const auto& [label, br] : refs) {
    part.total_pages += span_pages(br.buf->range, ir.page_bytes);
    if (br.threads.empty()) {
      // Never referenced by any op: no access at all, trivially safe.
      part.safe_buffers.push_back(label);
      part.proven_safe.push_back(br.buf->range);
      part.safe_pages += inner_pages(br.buf->range, ir.page_bytes);
      continue;
    }
    bool safe = false;
    // S1: single-threaded synchronous use — every op on the buffer comes
    // from one thread and none is `nowait`, so program order totally
    // orders all access (DMA stamps land at submit in that same order).
    if (br.threads.size() == 1 && !br.nowait) {
      safe = true;
    }
    // S2: initialise-then-publish read-only sharing — no device-side or
    // DMA write ever touches the buffer, at most one thread host-writes
    // it, and that thread's host writes all precede its own first
    // map/kernel/update op on the buffer. The cross-thread publication
    // edge is assumed from construct structure (DESIGN.md §16 caveat).
    if (!safe && !br.nowait && !br.device_writes && !br.dma_or_migrate &&
        !br.host_free) {
      int writers = 0;
      bool ordered = true;
      for (const auto& [thread, pt] : br.per_thread) {
        if (!pt.has_host_write) {
          continue;
        }
        ++writers;
        if (pt.has_publish && pt.last_host_write > pt.first_publish) {
          ordered = false;
        }
      }
      safe = writers <= 1 && ordered;
    }
    if (safe) {
      part.safe_buffers.push_back(label);
      part.proven_safe.push_back(br.buf->range);
      part.safe_pages += inner_pages(br.buf->range, ir.page_bytes);
    } else {
      part.must_check_buffers.push_back(label);
      part.must_check.push_back(br.buf->range);
    }
  }
  const auto by_base = [](const mem::AddrRange& a, const mem::AddrRange& b) {
    return a.base.value < b.base.value;
  };
  std::sort(part.proven_safe.begin(), part.proven_safe.end(), by_base);
  std::sort(part.must_check.begin(), part.must_check.end(), by_base);
  // Labels come out of a std::map, already sorted.
  return part;
}

}  // namespace

Analysis analyze(const OffloadIR& ir, omp::RuntimeConfig config) {
  Analysis res;
  std::vector<CheckFinding> findings;
  structural_pass(ir, findings);

  const std::map<std::string, BufRefs> refs = scan_refs(ir);
  // Tier B: the whole history of a single-thread buffer is its owner's
  // program order — walk it through the abstract PresentTable. One walker
  // per buffer, but each thread's stream is traversed ONCE, dispatching an
  // op only to the walkers of buffers it references: `step()` is a
  // complete no-op for every other op (each case filters on `mine()`), so
  // the findings are identical to a per-buffer walk at O(ops) instead of
  // O(buffers x ops) — the latter is minutes of host time on workloads
  // with thousands of short-lived per-step buffers.
  std::unordered_map<const IrBuffer*, std::unique_ptr<TierB>> walkers;
  for (const auto& [label, br] : refs) {
    if (br.threads.empty()) {
      continue;
    }
    if (br.threads.size() == 1) {
      walkers.emplace(br.buf, std::unique_ptr<TierB>(new TierB{
                                  ir, *br.buf, config, findings,
                                  {}, {}, {}}));
    } else {
      // Tier A: cross-thread order is not recorded (it varies run to
      // run), so only order-free facts are derived.
      tier_a(ir, *br.buf, findings);
    }
  }
  for (const ThreadStream& t : ir.threads) {
    for (const IrOp& op : t.ops) {
      std::set<const IrBuffer*> touched;
      for_each_ref(op, [&](mem::AddrRange r) {
        if (const IrBuffer* b = ir.find(r.base)) {
          touched.insert(b);
        }
      });
      for (const IrBuffer* b : touched) {
        const auto it = walkers.find(b);
        if (it != walkers.end()) {
          it->second->step(t.thread, op);
        }
      }
    }
  }

  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
  res.trace.findings = std::move(findings);
  res.trace.ops_analyzed = ir.op_count();
  res.trace.buffers_analyzed = ir.buffers.size();
  res.partition = partition_from(ir, refs);
  return res;
}

}  // namespace zc::check

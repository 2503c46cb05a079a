#include "zc/check/analyzer.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "zc/mem/run_set.hpp"

namespace zc::check {
namespace {

[[nodiscard]] std::uint64_t end_of(mem::AddrRange r) {
  return r.base.value + r.bytes;
}

/// No buffer (a range outside every allocation), or no thread yet.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

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

/// Invoke `fn(range)` for every host range the op references, in the order
/// the resolution pass stores their buffers: each map, each use, then
/// `range` and `src` when non-empty.
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

// ---------------------------------------------------------------------------
// The resolution pass: one walk over the IR resolves every range to its
// buffer, gathers each buffer's sharing facts and lists the ops that
// reference it. Both tiers and the race partition then work from buffer
// indices; every verdict names a buffer by its label, never by address, so
// outputs are bit-identical across stress seeds.
// ---------------------------------------------------------------------------

/// One op as the tiers see it: its thread, and the buffer index of every
/// range it names, in `for_each_ref` order.
struct OpRefs {
  const std::string& thread;
  const IrOp& op;
  const std::uint32_t* ids;

  [[nodiscard]] std::uint32_t map(std::size_t i) const { return ids[i]; }
  [[nodiscard]] std::uint32_t use(std::size_t i) const {
    return ids[op.maps.size() + i];
  }
  /// Buffer of `op.range`; kNone when the op names no range.
  [[nodiscard]] std::uint32_t range() const {
    return op.range.bytes != 0 ? ids[op.maps.size() + op.uses.size()]
                               : kNone;
  }
};

/// Call `fn(buffer)` once for each distinct buffer in `ids`.
template <typename Fn>
void for_each_buffer(std::span<const std::uint32_t> ids, Fn&& fn) {
  for (auto it = ids.begin(); it != ids.end(); ++it) {
    if (*it != kNone && std::find(ids.begin(), it, *it) == it) {
      fn(*it);
    }
  }
}

/// What the race partition needs to know about one buffer, gathered in
/// thread-name order and, per thread, in program order (so seed-invariant).
struct BufferFacts {
  std::uint32_t threads = 0;   ///< distinct referencing thread names
  bool nowait = false;         ///< any nowait op references it
  bool dma_or_migrate = false; ///< Memcpy / Migrate / DeviceFree touch it
  bool host_free = false;
  bool device_writes = false;  ///< From/ToFrom clause, W/RW use, UpdateFrom
  std::uint32_t host_writers = 0;  ///< threads that host-write it
  /// Every writer's host writes precede its own first publish op.
  bool writes_precede_publish = true;

  /// The thread being walked: its name ordinal, last host-write ordinal
  /// and first publish ordinal. `close_thread` folds them in above.
  std::uint32_t name = kNone;
  bool has_host_write = false;
  std::uint64_t last_host_write = 0;
  bool has_publish = false;
  std::uint64_t first_publish = 0;

  void note(std::uint32_t thread_name, const OpRefs& r, std::uint32_t self) {
    if (thread_name != name) {
      close_thread();
      name = thread_name;
      ++threads;
    }
    const IrOp& op = r.op;
    nowait |= op.nowait;
    switch (op.kind) {
      case OpKind::HostTouch:
        has_host_write = true;
        last_host_write = op.ordinal;
        break;
      case OpKind::HostFree:
        host_free = true;
        break;
      case OpKind::Memcpy:
      case OpKind::Migrate:
      case OpKind::DeviceFree:
        dma_or_migrate = true;
        break;
      case OpKind::UpdateFrom:
        device_writes = true;
        break;
      default:
        break;
    }
    for (std::size_t i = 0; i < op.maps.size(); ++i) {
      if (r.map(i) == self && omp::copies_to_host(op.maps[i].type)) {
        device_writes = true;  // d2h copy-back writes host pages
      }
    }
    for (std::size_t i = 0; i < op.uses.size(); ++i) {
      if (r.use(i) == self && op.uses[i].access != hsa::Access::Read) {
        device_writes = true;
      }
    }
    if (op_is_publish(op) && !has_publish) {
      has_publish = true;
      first_publish = op.ordinal;
    }
  }

  void close_thread() {
    if (has_host_write) {
      ++host_writers;
      if (has_publish && last_host_write > first_publish) {
        writes_precede_publish = false;
      }
    }
    has_host_write = false;
    has_publish = false;
  }
};

/// An op's position: thread index and index in that thread's stream.
struct OpAt {
  std::uint32_t thread = 0;
  std::uint32_t op = 0;
};

struct Resolution {
  std::vector<std::uint32_t> thread_first;  ///< per thread: first op number
  std::vector<std::uint32_t> op_first;      ///< per op number: first in ids
  std::vector<std::uint32_t> ids;           ///< buffer index per range
  std::vector<BufferFacts> facts;           ///< per buffer
  std::vector<std::uint32_t> buffer_first;  ///< per buffer: first in ops
  std::vector<OpAt> ops;  ///< each buffer's referencing ops, walk order

  [[nodiscard]] OpRefs at(const OffloadIR& ir, OpAt at) const {
    const ThreadStream& t = ir.threads[at.thread];
    return OpRefs{t.thread, t.ops[at.op],
                  ids.data() + op_first[thread_first[at.thread] + at.op]};
  }
  [[nodiscard]] std::span<const std::uint32_t> ids_of(std::uint32_t n) const {
    return {ids.data() + op_first[n], ids.data() + op_first[n + 1]};
  }
  [[nodiscard]] std::span<const OpAt> ops_of(std::uint32_t buffer) const {
    return {ops.data() + buffer_first[buffer],
            ops.data() + buffer_first[buffer + 1]};
  }
};

/// The single pass over the IR. Also reports every range outside all known
/// allocations.
[[nodiscard]] Resolution resolve(const OffloadIR& ir,
                                 std::vector<CheckFinding>& out) {
  // `OffloadIR::find` over the bases alone, a dense array that stays in
  // cache, searched without a branch per step: this pass resolves every
  // range of the IR, tens of thousands per run.
  std::vector<std::uint64_t> bases;
  bases.reserve(ir.buffers.size());
  for (const IrBuffer& b : ir.buffers) {
    bases.push_back(b.range.base.value);
  }
  const auto find = [&](mem::VirtAddr addr) {
    if (bases.empty() || addr.value < bases.front()) {
      return kNone;
    }
    const std::uint64_t* lo = bases.data();
    for (std::size_t n = bases.size(); n > 1; n -= n / 2) {
      lo = lo[n / 2] <= addr.value ? lo + n / 2 : lo;
    }
    const auto b = static_cast<std::uint32_t>(lo - bases.data());
    return ir.buffers[b].range.contains(addr) ? b : kNone;
  };

  Resolution res;
  res.facts.resize(ir.buffers.size());
  res.buffer_first.assign(ir.buffers.size() + 1, 0);
  res.thread_first.reserve(ir.threads.size() + 1);
  res.op_first.reserve(ir.op_count() + 1);
  std::uint32_t name = 0;
  for (std::size_t t = 0; t < ir.threads.size(); ++t) {
    const ThreadStream& ts = ir.threads[t];
    if (t > 0 && ts.thread != ir.threads[t - 1].thread) {
      ++name;  // equal names are adjacent: `threads` is sorted by name
    }
    res.thread_first.push_back(static_cast<std::uint32_t>(res.op_first.size()));
    for (const IrOp& op : ts.ops) {
      const std::size_t first = res.ids.size();
      res.op_first.push_back(static_cast<std::uint32_t>(first));
      for_each_ref(op, [&](mem::AddrRange r) {
        const std::uint32_t b = find(r.base);
        if (b == kNone && r.bytes != 0) {
          CheckFinding f;
          f.kind = CheckKind::InvalidMap;
          f.thread = ts.thread;
          f.op_index = op.ordinal;
          f.buffer = ir.describe(r);
          f.device = op.device;
          f.message = std::string{to_string(op.kind)} +
                      " references an address outside every known allocation";
          out.push_back(std::move(f));
        }
        res.ids.push_back(b);
      });
      const std::span<const std::uint32_t> ids{res.ids.data() + first,
                                               res.ids.size() - first};
      const OpRefs refs{ts.thread, op, ids.data()};
      for_each_buffer(ids, [&](std::uint32_t b) {
        res.facts[b].note(name, refs, b);
        ++res.buffer_first[b + 1];
      });
    }
  }
  res.thread_first.push_back(static_cast<std::uint32_t>(res.op_first.size()));
  res.op_first.push_back(static_cast<std::uint32_t>(res.ids.size()));
  for (BufferFacts& f : res.facts) {
    f.close_thread();
  }

  // Counting sort of (buffer, op) pairs: each buffer's ops keep walk order.
  std::partial_sum(res.buffer_first.begin(), res.buffer_first.end(),
                   res.buffer_first.begin());
  res.ops.resize(res.buffer_first.back());
  std::vector<std::uint32_t> next(res.buffer_first.begin(),
                                  res.buffer_first.end() - 1);
  for (std::uint32_t t = 0; t < ir.threads.size(); ++t) {
    const auto n = static_cast<std::uint32_t>(ir.threads[t].ops.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      for_each_buffer(res.ids_of(res.thread_first[t] + i),
                      [&](std::uint32_t b) {
                        res.ops[next[b]++] = OpAt{t, i};
                      });
    }
  }
  return res;
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
  std::uint32_t self;  ///< index of `buf`
  omp::RuntimeConfig config;
  std::vector<CheckFinding>& out;

  std::map<int, std::vector<AbsEntry>> tables;  ///< per-device entries
  mem::RunSet device_dirty;  ///< kernel-written, not yet copied back
  mem::RunSet host_dirty;    ///< host-written while a to/tofrom entry was live

  void emit(CheckKind kind, const OpRefs& r, mem::AddrRange range,
            std::string message) {
    CheckFinding f;
    f.kind = kind;
    f.thread = r.thread;
    f.op_index = r.op.ordinal;
    f.buffer = ir.describe(range);
    f.device = r.op.device;
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

  void enter_clause(const OpRefs& r, const IrMap& m) {
    if (m.range.bytes == 0) {
      emit(CheckKind::InvalidMap, r, m.range, "zero-byte map clause");
      return;
    }
    if (omp::exit_only(m.type)) {
      emit(CheckKind::InvalidMap, r, m.range,
           std::string{"'"} + omp::to_string(m.type) +
               "' clause on a data-entry construct");
      return;
    }
    std::vector<AbsEntry>& entries = tables[r.op.device];
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
      emit(CheckKind::OverlapMap, r, m.range,
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

  void exit_clause(const OpRefs& r, const IrMap& m) {
    if (m.range.bytes == 0) {
      emit(CheckKind::InvalidMap, r, m.range, "zero-byte map clause");
      return;
    }
    std::vector<AbsEntry>& entries = tables[r.op.device];
    for (std::size_t i = 0; i < entries.size(); ++i) {
      AbsEntry& e = entries[i];
      const mem::RangeRelation rel = mem::range_relation(e.range, m.range);
      if (rel == mem::RangeRelation::Disjoint) {
        continue;
      }
      if (rel != mem::RangeRelation::Equal &&
          rel != mem::RangeRelation::Contains) {
        emit(CheckKind::OverlapMap, r, m.range,
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
    emit(CheckKind::DoubleRelease, r, m.range,
         std::string{"'"} + omp::to_string(m.type) +
             "' of a range with no live mapping");
  }

  /// Apply `fn` to each of the op's map clauses on this buffer.
  template <typename Fn>
  void my_maps(const OpRefs& r, Fn&& fn) {
    for (std::size_t i = 0; i < r.op.maps.size(); ++i) {
      if (r.map(i) == self) {
        fn(r.op.maps[i]);
      }
    }
  }

  void kernel_uses(const OpRefs& r) {
    const IrOp& op = r.op;
    for (std::size_t i = 0; i < op.uses.size(); ++i) {
      if (r.use(i) != self) {
        continue;
      }
      const IrUse& u = op.uses[i];
      if (!present_on(op.device, u.range)) {
        if (present_elsewhere(op.device, u.range)) {
          emit(CheckKind::DeviceMismatch, r, u.range,
               "kernel '" + op.name + "' uses data mapped on another device");
        } else {
          emit(CheckKind::UseBeforeMap, r, u.range,
               "kernel '" + op.name + "' uses data never made present");
        }
      }
      if (u.access != hsa::Access::Write &&
          host_dirty.overlaps(u.range.base.value, end_of(u.range))) {
        emit(CheckKind::ConfigDivergence, r, u.range,
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
    my_maps(r, [&](const IrMap& m) {
      if (omp::copies_to_host(m.type)) {
        device_dirty.insert(m.range.base.value, end_of(m.range));
      }
    });
  }

  void step(const OpRefs& r) {
    const IrOp& op = r.op;
    switch (op.kind) {
      case OpKind::HostTouch: {
        if (r.range() != self) {
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
        if (r.range() == self &&
            device_dirty.overlaps(op.range.base.value, end_of(op.range))) {
          emit(CheckKind::StaleHostRead, r, op.range,
               "host reads kernel-written bytes never copied back (no "
               "'target update from'); stale under " +
                   std::string{omp::to_string(config)} + "-style copying");
          // One finding per stale write.
          device_dirty.erase(op.range.base.value, end_of(op.range));
        }
        return;
      }
      case OpKind::HostFree: {
        if (r.range() != self) {
          return;
        }
        for (const auto& [d, entries] : tables) {
          for (const AbsEntry& e : entries) {
            if (mem::ranges_overlap(e.range, op.range)) {
              emit(CheckKind::ConfigDivergence, r, op.range,
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
        my_maps(r, [&](const IrMap& m) { enter_clause(r, m); });
        return;
      case OpKind::DataEnd:
      case OpKind::ExitData:
        my_maps(r, [&](const IrMap& m) { exit_clause(r, m); });
        return;
      case OpKind::UpdateTo:
      case OpKind::UpdateFrom:
        my_maps(r, [&](const IrMap& m) {
          if (!present_on(op.device, m.range)) {
            emit(CheckKind::UseBeforeMap, r, m.range,
                 "'target update' of a range with no live mapping");
            return;
          }
          mem::RunSet& clean =
              op.kind == OpKind::UpdateTo ? host_dirty : device_dirty;
          clean.erase(m.range.base.value, end_of(m.range));
        });
        return;
      case OpKind::Kernel:
        my_maps(r, [&](const IrMap& m) { enter_clause(r, m); });
        kernel_uses(r);
        if (!op.nowait) {
          my_maps(r, [&](const IrMap& m) { exit_clause(r, m); });
        }
        return;
      case OpKind::KernelWait:
        // The recorder copies the dispatched launch's maps into the wait
        // op, so the data-end half replays here.
        my_maps(r, [&](const IrMap& m) { exit_clause(r, m); });
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

void tier_a(const OffloadIR& ir, const Resolution& res, std::uint32_t self,
            std::vector<CheckFinding>& out) {
  std::map<int, mem::RunSet> ever_mapped;
  std::uint64_t enters = 0;
  std::uint64_t exits = 0;
  const std::string* exit_thread = nullptr;
  std::uint64_t exit_ordinal = 0;
  int exit_device = 0;
  mem::AddrRange exit_range{};

  for (const OpAt at : res.ops_of(self)) {
    const OpRefs r = res.at(ir, at);
    const IrOp& op = r.op;
    const bool entering = op.kind == OpKind::DataBegin ||
                          op.kind == OpKind::EnterData ||
                          op.kind == OpKind::Kernel;
    const bool exiting =
        op.kind == OpKind::DataEnd || op.kind == OpKind::ExitData;
    for (std::size_t i = 0; i < op.maps.size(); ++i) {
      if (r.map(i) != self) {
        continue;
      }
      const IrMap& m = op.maps[i];
      if (entering && !omp::exit_only(m.type)) {
        ever_mapped[op.device].insert(m.range.base.value, end_of(m.range));
        if (op.kind != OpKind::Kernel) {
          ++enters;  // kernel-scope clauses are begin/end balanced
        }
      }
      if (exiting) {
        ++exits;
        if (exit_thread == nullptr || r.thread < *exit_thread ||
            (r.thread == *exit_thread && op.ordinal < exit_ordinal)) {
          exit_thread = &r.thread;
          exit_ordinal = op.ordinal;
          exit_device = op.device;
          exit_range = m.range;
        }
      }
    }
  }

  if (ir.buffers[self].kind == BufKind::Host) {
    for (const OpAt at : res.ops_of(self)) {
      const OpRefs r = res.at(ir, at);
      const IrOp& op = r.op;
      if (op.kind != OpKind::Kernel) {
        continue;
      }
      for (std::size_t i = 0; i < op.uses.size(); ++i) {
        if (r.use(i) != self) {
          continue;
        }
        const IrUse& u = op.uses[i];
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
        f.thread = r.thread;
        f.op_index = op.ordinal;
        f.buffer = ir.describe(u.range);
        f.device = op.device;
        f.message =
            elsewhere
                ? "kernel '" + op.name +
                      "' uses data only ever mapped on another device"
                : "kernel '" + op.name + "' uses data no thread ever maps";
        out.push_back(std::move(f));
      }
    }
  }

  if (exits > enters && exit_thread != nullptr) {
    CheckFinding f;
    f.kind = CheckKind::DoubleRelease;
    f.thread = *exit_thread;
    f.op_index = exit_ordinal;
    f.buffer = ir.describe(exit_range);
    f.device = exit_device;
    f.message = std::to_string(exits) + " data-exit clause(s) against " +
                std::to_string(enters) + " data-entry clause(s)";
    out.push_back(std::move(f));
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

[[nodiscard]] bool proven_safe(const BufferFacts& f) {
  // Never referenced by any op: no access at all, trivially safe.
  if (f.threads == 0) {
    return true;
  }
  // S1: single-threaded synchronous use — every op on the buffer comes
  // from one thread and none is `nowait`, so program order totally
  // orders all access (DMA stamps land at submit in that same order).
  if (f.threads == 1 && !f.nowait) {
    return true;
  }
  // S2: initialise-then-publish read-only sharing — no device-side or
  // DMA write ever touches the buffer, at most one thread host-writes
  // it, and that thread's host writes all precede its own first
  // map/kernel/update op on the buffer. The cross-thread publication
  // edge is assumed from construct structure (DESIGN.md §16 caveat).
  return !f.nowait && !f.device_writes && !f.dma_or_migrate &&
         !f.host_free && f.host_writers <= 1 && f.writes_precede_publish;
}

[[nodiscard]] RacePartition partition_from(
    const OffloadIR& ir, const std::vector<BufferFacts>& facts) {
  RacePartition part;
  // `buffers` is sorted by base, so the ranges come out sorted too.
  std::vector<std::pair<std::string_view, bool>> labels;
  labels.reserve(ir.buffers.size());
  for (std::size_t b = 0; b < ir.buffers.size(); ++b) {
    const mem::AddrRange range = ir.buffers[b].range;
    part.total_pages += span_pages(range, ir.page_bytes);
    const bool safe = proven_safe(facts[b]);
    if (safe) {
      part.proven_safe.push_back(range);
      part.safe_pages += inner_pages(range, ir.page_bytes);
    } else {
      part.must_check.push_back(range);
    }
    labels.emplace_back(ir.buffers[b].label, safe);
  }
  std::sort(labels.begin(), labels.end());
  for (const auto& [label, is_safe] : labels) {
    (is_safe ? part.safe_buffers : part.must_check_buffers)
        .emplace_back(label);
  }
  return part;
}

}  // namespace

Analysis analyze(const OffloadIR& ir, omp::RuntimeConfig config) {
  Analysis res;
  std::vector<CheckFinding> findings;
  const Resolution refs = resolve(ir, findings);
  // Tier B walks a single-thread buffer's whole history, its owner's
  // program order, through the abstract PresentTable; Tier A derives only
  // order-free facts for a buffer several threads share, because
  // cross-thread order is not recorded (it varies run to run). Each walks
  // just the ops that reference its buffer.
  for (std::uint32_t b = 0; b < ir.buffers.size(); ++b) {
    const std::uint32_t threads = refs.facts[b].threads;
    if (threads == 1) {
      TierB walk{ir, ir.buffers[b], b, config, findings, {}, {}, {}};
      for (const OpAt at : refs.ops_of(b)) {
        walk.step(refs.at(ir, at));
      }
    } else if (threads > 1) {
      tier_a(ir, refs, b, findings);
    }
  }

  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
  res.trace.findings = std::move(findings);
  res.trace.ops_analyzed = ir.op_count();
  res.trace.buffers_analyzed = ir.buffers.size();
  res.partition = partition_from(ir, refs.facts);
  return res;
}

}  // namespace zc::check

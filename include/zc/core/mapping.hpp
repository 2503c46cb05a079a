#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "zc/hsa/signal.hpp"
#include "zc/mem/address.hpp"

namespace zc::omp {

/// OpenMP map-type modifiers. `Release` and `Delete` are exit-only (used
/// with `target exit data`): release decrements the reference count without
/// a transfer; delete drops the mapping regardless of the count.
enum class MapType {
  To,      ///< host-to-device on entry
  From,    ///< device-to-host on exit
  ToFrom,  ///< both
  Alloc,   ///< presence only; no transfers
  Release, ///< exit: decrement refcount, no transfer
  Delete,  ///< exit: force removal, no transfer
};

[[nodiscard]] constexpr const char* to_string(MapType t) {
  switch (t) {
    case MapType::To:
      return "to";
    case MapType::From:
      return "from";
    case MapType::ToFrom:
      return "tofrom";
    case MapType::Alloc:
      return "alloc";
    case MapType::Release:
      return "release";
    case MapType::Delete:
      return "delete";
  }
  return "?";
}

[[nodiscard]] constexpr bool copies_to_device(MapType t) {
  return t == MapType::To || t == MapType::ToFrom;
}
[[nodiscard]] constexpr bool copies_to_host(MapType t) {
  return t == MapType::From || t == MapType::ToFrom;
}
/// Map types only meaningful on `target exit data`.
[[nodiscard]] constexpr bool exit_only(MapType t) {
  return t == MapType::Release || t == MapType::Delete;
}

/// One map clause instance: `map(<always,>? <type>: ptr[:bytes])`.
struct MapEntry {
  mem::VirtAddr host_ptr;
  std::uint64_t bytes = 0;
  MapType type = MapType::ToFrom;
  bool always = false;

  [[nodiscard]] mem::AddrRange host_range() const {
    return mem::AddrRange{host_ptr, bytes};
  }

  [[nodiscard]] static MapEntry to(mem::VirtAddr p, std::uint64_t n) {
    return MapEntry{p, n, MapType::To, false};
  }
  [[nodiscard]] static MapEntry from(mem::VirtAddr p, std::uint64_t n) {
    return MapEntry{p, n, MapType::From, false};
  }
  [[nodiscard]] static MapEntry tofrom(mem::VirtAddr p, std::uint64_t n) {
    return MapEntry{p, n, MapType::ToFrom, false};
  }
  [[nodiscard]] static MapEntry alloc(mem::VirtAddr p, std::uint64_t n) {
    return MapEntry{p, n, MapType::Alloc, false};
  }
  [[nodiscard]] static MapEntry always_to(mem::VirtAddr p, std::uint64_t n) {
    return MapEntry{p, n, MapType::To, true};
  }
  [[nodiscard]] static MapEntry always_tofrom(mem::VirtAddr p,
                                              std::uint64_t n) {
    return MapEntry{p, n, MapType::ToFrom, true};
  }
  [[nodiscard]] static MapEntry release(mem::VirtAddr p, std::uint64_t n) {
    return MapEntry{p, n, MapType::Release, false};
  }
  [[nodiscard]] static MapEntry del(mem::VirtAddr p, std::uint64_t n) {
    return MapEntry{p, n, MapType::Delete, false};
  }
};

/// An entry of the runtime's present table: one mapped host range and the
/// device storage backing it.
struct PresentEntry {
  mem::AddrRange host;
  mem::VirtAddr device_base;  ///< == host.base under zero-copy
  std::uint64_t refcount = 0;
  bool pinned = false;  ///< never deleted (declare-target globals)
  /// Entry created by the OOM degradation path: `device_base == host.base`
  /// (zero-copy semantics inside a Copy-managed configuration), so no
  /// transfers are issued for it and no pool storage is freed with it.
  bool degraded = false;
  /// The host-to-device transfer that filled a fresh entry and the thread
  /// that issued it: other threads' hits wait for it (libomptarget's entry
  /// event). An error means the creating region failed.
  std::optional<hsa::Signal> fill;
  int filled_by = -1;

  [[nodiscard]] mem::VirtAddr device_addr(mem::VirtAddr host_addr) const {
    return device_base + (host_addr - host.base);
  }
};

/// libomptarget-style host->device mapping table with reference counts.
///
/// Lookups resolve any address inside a mapped range (the OpenMP rules for
/// contained array sections); overlapping-but-not-contained ranges are
/// rejected as they would be by a conforming program.
class PresentTable {
 public:
  /// Insert a new range (must not partially overlap an existing one).
  PresentEntry& insert(mem::AddrRange host, mem::VirtAddr device_base,
                       bool pinned = false);

  /// Entry whose host range contains `addr`, or nullptr.
  [[nodiscard]] PresentEntry* lookup(mem::VirtAddr addr);
  [[nodiscard]] const PresentEntry* lookup(mem::VirtAddr addr) const;

  /// Entry containing the whole `range`; throws std::invalid_argument if
  /// `range` straddles the mapped range's end.
  [[nodiscard]] PresentEntry* lookup_range(mem::AddrRange range);

  /// Remove the entry with this host base.
  void erase(mem::VirtAddr host_base);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::uint64_t, PresentEntry> entries_;  // keyed by host base
};

}  // namespace zc::omp

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "zc/mem/address.hpp"

namespace zc::check {

/// Finding categories of the static mapping verifier.
enum class CheckKind {
  InvalidMap,        ///< structurally bad clause (zero-byte map, ...)
  UseBeforeMap,      ///< kernel uses a buffer no map ever made present
  StaleHostRead,     ///< host reads data a kernel wrote, no `update from`
  DoubleRelease,     ///< more releases/deletes than map entries
  OverlapMap,        ///< two live map clauses share bytes on one device
  DeviceMismatch,    ///< buffer mapped on device A, kernel uses it on B
  ConfigDivergence,  ///< correct only because zero-copy is coherent
};

[[nodiscard]] constexpr const char* to_string(CheckKind k) {
  switch (k) {
    case CheckKind::InvalidMap:
      return "invalid-map";
    case CheckKind::UseBeforeMap:
      return "use-before-map";
    case CheckKind::StaleHostRead:
      return "stale-host-read";
    case CheckKind::DoubleRelease:
      return "double-release";
    case CheckKind::OverlapMap:
      return "overlap-map";
    case CheckKind::DeviceMismatch:
      return "device-mismatch";
    case CheckKind::ConfigDivergence:
      return "config-divergence";
  }
  return "?";
}

/// One static finding. Identified entirely by symbolic, seed-invariant
/// coordinates: thread name + per-thread op ordinal + buffer label — never
/// raw addresses, which differ across stress seeds.
struct CheckFinding {
  CheckKind kind = CheckKind::InvalidMap;
  std::string thread;        ///< thread whose op triggered the finding
  std::uint64_t op_index = 0;///< ordinal of that op in its thread's stream
  std::string buffer;        ///< symbolic buffer/range description
  int device = 0;
  std::string message;

  [[nodiscard]] std::string to_string() const;

  /// Canonical report order: (kind, thread, op_index, buffer, message).
  [[nodiscard]] bool operator<(const CheckFinding& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (thread != o.thread) return thread < o.thread;
    if (op_index != o.op_index) return op_index < o.op_index;
    if (buffer != o.buffer) return buffer < o.buffer;
    return message < o.message;
  }
  [[nodiscard]] bool operator==(const CheckFinding& o) const {
    return kind == o.kind && thread == o.thread && op_index == o.op_index &&
           buffer == o.buffer && device == o.device && message == o.message;
  }
};

/// All findings of one analysis, canonically ordered (so two analyses of
/// the same program — regardless of stress seed — compare bit-identical).
struct CheckTrace {
  std::vector<CheckFinding> findings;
  std::uint64_t ops_analyzed = 0;
  std::uint64_t buffers_analyzed = 0;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Result of the static may-race pass (`Analysis::partition`): host-address
/// ranges proven free of unordered concurrent access, plus bookkeeping
/// about how much of the program that covers. The race detector skips
/// page-stamp bookkeeping for pages holding only `proven_safe` bytes
/// ("report:pruned"); every page a `must_check` range touches stays fully
/// instrumented, so no dynamic report inside the must-check set is lost.
///
/// A buffer is *proven safe* when either
///  * **S1**: every op that touches it is issued by one thread and none of
///    those ops is `nowait` (single-threaded, synchronous use), or
///  * **S2**: all kernel/DMA access to it is read-only (only `to`/`alloc`
///    map clauses and `Read` kernel uses) and at most one thread writes it
///    on the host, with all of that thread's host writes preceding that
///    thread's own first map/kernel op on the buffer (initialise-then-
///    publish; the cross-thread publication edge is assumed from the
///    program's construct structure — see DESIGN.md §16 for the caveat).
/// Any `nowait` involvement, host free, device-pool aliasing, or failure
/// of both rules leaves the buffer in the must-check set.
struct RacePartition {
  std::vector<mem::AddrRange> proven_safe;  ///< sorted by base, disjoint
  std::vector<mem::AddrRange> must_check;   ///< sorted by base, disjoint
  std::vector<std::string> safe_buffers;       ///< labels, sorted
  std::vector<std::string> must_check_buffers; ///< labels, sorted
  std::uint64_t total_pages = 0;
  std::uint64_t safe_pages = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Output of `analyze`: the mapping findings plus the race partition.
struct Analysis {
  CheckTrace trace;
  RacePartition partition;
};

}  // namespace zc::check

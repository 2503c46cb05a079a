#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "zc/mem/address.hpp"
#include "zc/mem/run_set.hpp"

namespace zc::mem {

/// NUMA placement policy for an allocation's physical pages.
///
///  * `FixedHome`  — every page homed on one socket, chosen at allocation
///                   time (the pre-fabric behavior, and what pool
///                   allocations always use);
///  * `FirstTouch` — the home is undecided until the first materializing
///                   access (host touch, GPU fault, prefault) resolves it
///                   to the toucher's socket — Linux first-touch policy;
///  * `Interleaved` — page homes stripe round-robin across all sockets
///                   (numactl --interleave).
enum class Placement {
  FixedHome,
  FirstTouch,
  Interleaved,
};

[[nodiscard]] constexpr const char* to_string(Placement p) {
  switch (p) {
    case Placement::FixedHome:
      return "fixed";
    case Placement::FirstTouch:
      return "first-touch";
    case Placement::Interleaved:
      return "interleaved";
  }
  return "?";
}

/// A byte range [lo, hi) relative to an allocation's base.
using Extent = RunSet::Run;

/// Frees an allocation's backing block: `munmap` for a mapping, `delete[]`
/// for a heap block.
struct BackingFree {
  std::uint64_t mapped_bytes = 0;  ///< mapping length; 0 for a heap block
  void operator()(std::byte* p) const;
};

/// One live allocation: simulated address range plus real backing bytes.
///
/// Backing storage is created lazily on the first functional access: an
/// anonymous private mapping (a heap block below one host page) whose
/// untouched pages are demand-zero, so GB-scale simulated buffers that a
/// program only ever *times* cost no real memory. The allocation also keeps
/// its written extents: the sorted, coalesced byte ranges that may hold
/// non-zero data, usually one or two. Every byte outside them reads as
/// zero, and `AddressSpace::copy` moves only the source's written extents,
/// so an SDMA copy of a 1 GB buffer that a kernel computed 64 doubles of
/// moves 512 bytes.
class Allocation {
 public:
  Allocation(VirtAddr base, std::uint64_t bytes, MemKind kind, std::string name);

  [[nodiscard]] VirtAddr base() const { return base_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] AddrRange range() const { return AddrRange{base_, bytes_}; }
  [[nodiscard]] MemKind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// NUMA home: which socket's HBM backs this allocation (the owning
  /// device for pool memory). For `Placement::Interleaved` this is only
  /// the stripe origin — use `page_home` for per-page homes; for a pending
  /// `FirstTouch` it is the provisional answer until `resolve_home`.
  [[nodiscard]] int home_socket() const { return home_socket_; }
  void set_home_socket(int socket) { home_socket_ = socket; }

  [[nodiscard]] Placement placement() const { return placement_; }
  /// Configure the placement policy (allocation time only). `sockets` is
  /// the stripe width for `Interleaved` and ignored otherwise.
  void set_placement(Placement p, int sockets) {
    placement_ = p;
    placement_sockets_ = sockets > 0 ? sockets : 1;
    home_resolved_ = p != Placement::FirstTouch;
  }
  /// True while a `FirstTouch` home is still undecided.
  [[nodiscard]] bool home_pending() const { return !home_resolved_; }
  /// First materializing access decides the home (first-touch semantics).
  void resolve_home(int socket) {
    home_socket_ = socket;
    home_resolved_ = true;
  }

  /// Home socket of the page containing `a`: a partial-migration override
  /// if one exists, else the per-page stripe for `Interleaved`, else the
  /// allocation home.
  [[nodiscard]] int page_home(VirtAddr a, std::uint64_t page_bytes) const {
    const std::uint64_t rel =
        a.value / page_bytes - base_.value / page_bytes;
    if (!home_overrides_.empty()) {
      if (auto it = home_overrides_.find(rel); it != home_overrides_.end()) {
        return it->second;
      }
    }
    return policy_home(rel);
  }

  /// Home socket the placement policy alone would assign to relative page
  /// `rel` — what `page_home` answers when no override is installed.
  [[nodiscard]] int policy_home(std::uint64_t rel) const {
    if (placement_ != Placement::Interleaved) {
      return home_socket_;
    }
    return static_cast<int>(
        rel % static_cast<std::uint64_t>(placement_sockets_));
  }

  /// Partial-migration home overrides: relative page index -> socket.
  /// Installed by `MemorySystem::migrate_pages` on a subrange move and
  /// cleared when a whole-allocation migration collapses the placement.
  [[nodiscard]] const std::map<std::uint64_t, int>& home_overrides() const {
    return home_overrides_;
  }
  void set_home_override(std::uint64_t rel, int socket) {
    if (policy_home(rel) == socket) {
      home_overrides_.erase(rel);  // override became redundant
    } else {
      home_overrides_[rel] = socket;
    }
  }
  void clear_home_overrides() { home_overrides_.clear(); }

  /// Pages of `range` (clamped to this allocation) whose home is NOT
  /// `socket`. A pending first-touch counts as local everywhere — whoever
  /// touches first will home it.
  [[nodiscard]] std::uint64_t remote_pages(AddrRange range, int socket,
                                           std::uint64_t page_bytes) const;

  /// Extents that may hold non-zero data, sorted and coalesced (touching
  /// extents merge). Empty means the whole allocation reads as zero.
  [[nodiscard]] const std::vector<Extent>& written() const {
    return written_.runs();
  }

  /// Real pointer to the `n` bytes at `a`, which must lie inside this
  /// allocation (std::out_of_range otherwise). Marks them written: the
  /// caller may store anywhere in [a, a+n), and nowhere else.
  [[nodiscard]] std::byte* translate(VirtAddr a, std::uint64_t n);

  /// Uncounted form: marks [a, end), the conservative answer for a caller
  /// that does not say how far it writes.
  [[nodiscard]] std::byte* translate(VirtAddr a);

  /// The whole backing; marks the whole allocation written.
  [[nodiscard]] std::span<std::byte> data() {
    return {translate(base_), static_cast<std::size_t>(bytes_)};
  }

 private:
  friend class AddressSpace;  // `copy` reads and writes extents directly

  std::byte* backing();

  VirtAddr base_;
  std::uint64_t bytes_;
  MemKind kind_;
  std::string name_;
  int home_socket_ = 0;
  Placement placement_ = Placement::FixedHome;
  int placement_sockets_ = 1;  ///< stripe width for Interleaved
  bool home_resolved_ = true;  ///< false while FirstTouch is pending
  std::map<std::uint64_t, int> home_overrides_;  ///< partial-migration homes
  std::unique_ptr<std::byte, BackingFree> backing_;
  RunSet written_;  ///< byte offsets that may hold non-zero data
};

/// The single simulated virtual address space of a node.
///
/// On an APU this mirrors reality: host and "device" allocations are ranges
/// of one address space over one physical storage. Addresses are handed out
/// by a page-aligned bump allocator and never reused, which both simplifies
/// reasoning and faithfully models the paper's spC/bt observation that
/// stack-allocated host buffers occupy fresh addresses on every function
/// invocation (and therefore fault anew on the GPU each time).
class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t page_bytes);

  /// Allocate `bytes` (rounded up to page alignment for the range, exact
  /// for the backing). Returns a stable reference owned by the space.
  Allocation& allocate(std::uint64_t bytes, MemKind kind, std::string name);

  /// Free by base address. Throws std::invalid_argument for unknown bases.
  void free(VirtAddr base);

  /// The allocation whose range contains `a`, or nullptr.
  [[nodiscard]] Allocation* find(VirtAddr a);
  [[nodiscard]] const Allocation* find(VirtAddr a) const;

  /// Real pointer for the `n` bytes at simulated address `a`, marked
  /// written (see `Allocation::translate`); throws std::out_of_range if
  /// they are not inside one allocation.
  [[nodiscard]] std::byte* translate(VirtAddr a, std::uint64_t n);
  /// Uncounted form: marks from `a` to the end of its allocation.
  [[nodiscard]] std::byte* translate(VirtAddr a);

  /// Typed convenience over `translate`: `count` elements of T at `a`.
  template <typename T>
  [[nodiscard]] T* translate_as(VirtAddr a, std::uint64_t count) {
    if (count > std::numeric_limits<std::uint64_t>::max() / sizeof(T)) {
      throw std::out_of_range("AddressSpace::translate_as: " +
                              std::to_string(count) + " elements overflow");
    }
    return reinterpret_cast<T*>(translate(a, count * sizeof(T)));
  }
  template <typename T>
  [[nodiscard]] T* translate_as(VirtAddr a) {
    return reinterpret_cast<T*>(translate(a));
  }

  /// The functional half of an SDMA copy: afterwards [dst, dst+bytes)
  /// reads exactly as [src, src+bytes) read before, as with `memmove`
  /// (overlapping ranges included). Only written extents move: the
  /// destination's written bytes in range are cleared, then the source's
  /// are copied over and marked written on the destination. Throws
  /// std::out_of_range unless each range lies inside one allocation.
  void copy(VirtAddr dst, VirtAddr src, std::uint64_t bytes);

  /// Visit every live allocation in address order (reclaim's victim
  /// scan). The callback must not allocate or free.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [base, alloc] : allocs_) {
      fn(*alloc);
    }
  }

  [[nodiscard]] std::uint64_t page_bytes() const { return page_bytes_; }
  [[nodiscard]] std::size_t live_allocations() const { return allocs_.size(); }
  [[nodiscard]] std::uint64_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] std::uint64_t total_allocated_bytes() const {
    return total_bytes_;
  }

 private:
  /// The allocation holding all `n` bytes at `a`; std::out_of_range
  /// naming `what` otherwise.
  Allocation& holder(VirtAddr a, std::uint64_t n, const char* what);

  std::uint64_t page_bytes_;
  std::uint64_t next_ = 0;  // next base offset (page-aligned)
  std::map<std::uint64_t, std::unique_ptr<Allocation>> allocs_;  // by base
  /// Recently-found allocations: a kernel launch cycles through a handful
  /// of buffers (positions, psi, gradients, ...), so a few slots catch
  /// nearly every `find` before the O(log n) map walk. The range bounds
  /// are stored inline so a probe never dereferences the Allocation
  /// (pure cache-local scan); a hit transposes one slot toward the front
  /// so hot buffers drift to the first probes. Slots are invalidated on
  /// `free`.
  struct FindSlot {
    std::uint64_t base = 0;
    std::uint64_t end = 0;  // base == end: empty slot
    Allocation* alloc = nullptr;
  };
  static constexpr std::size_t kFindCacheSlots = 8;
  std::array<FindSlot, kFindCacheSlots> find_cache_{};
  std::uint64_t live_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace zc::mem

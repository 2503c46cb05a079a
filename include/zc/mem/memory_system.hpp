#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "zc/apu/machine.hpp"
#include "zc/mem/address_space.hpp"
#include "zc/mem/page_table.hpp"
#include "zc/mem/run_set.hpp"
#include "zc/mem/tlb.hpp"

namespace zc::mem {

/// Counts returned by a host-issued prefault (`svm_attributes_set`).
struct PrefaultOutcome {
  std::uint64_t inserted = 0;      ///< pages newly added to the GPU page table
  std::uint64_t materialized = 0;  ///< of those, pages that were not yet
                                   ///< CPU-resident (bulk-created first)
  std::uint64_t present = 0;       ///< pages merely verified present
  std::uint64_t promoted = 0;      ///< DDR-spilled pages promoted back to HBM
  std::uint64_t collapsed = 0;     ///< split THP spans collapsed back to 2 MB
};

/// Counts returned by GPU-side demand fault-in (XNACK-replay).
struct FaultOutcome {
  std::uint64_t faulted = 0;       ///< pages inserted into the GPU page table
  std::uint64_t non_resident = 0;  ///< of those, pages that also had to be
                                   ///< materialized (not yet CPU-resident)
  std::uint64_t promoted = 0;      ///< DDR-spilled pages promoted back to HBM
  std::uint64_t split_faulted = 0; ///< faulted pages inside split THP spans
  [[nodiscard]] std::uint64_t resident() const {
    return faulted - non_resident;
  }
};

/// Counts returned by one watermark reclaim pass.
struct ReclaimOutcome {
  std::uint64_t evicted = 0;  ///< pages spilled from HBM to the DDR tier
  std::uint64_t split = 0;    ///< THP spans the eviction split (dynamic mode)
};

/// One access-counter migration decision: move `page` to `to_socket`.
struct MigrationCandidate {
  std::uint64_t page = 0;  ///< absolute page index
  int to_socket = 0;
  bool valid = false;
};

/// The node's memory state: address space, CPU/GPU page tables, GPU TLB.
///
/// `MemorySystem` is deliberately *pure state*: it mutates tables and
/// reports page counts, but never advances virtual time or reserves
/// resource timelines — the HSA layer above owns timing and instrumentation
/// so that every modeled cost is attributable to an API call (which is how
/// the paper's Table I accounts for time). The protocol semantics live
/// here:
///
///  * OS allocations create no page-table entries; CPU pages materialize on
///    host touch, GPU pages via XNACK fault-in or host prefault.
///  * ROCr pool allocations create CPU and GPU entries in bulk at
///    allocation time (the paper's "XNACK-disabled" bulk prefault path);
///    on a discrete node pool memory is device-only (no CPU entries).
///  * Frees drop page-table entries and invalidate TLB translations, so
///    re-allocated addresses fault again — though the bump address space
///    never reuses addresses anyway, matching the paper's stack-buffer
///    observation for 457.spC / 470.bt.
///
/// The system also accounts *physical* HBM occupancy per socket — the
/// finite shared store that is the paper's whole premise. On an APU one
/// rule holds: `hbm_used(s)` counts the CPU-present, unspilled pages whose
/// `Allocation::page_home` is `s`, and a page outside every allocation
/// counts on socket 0. A page is charged when it materializes (host touch,
/// GPU demand fault, prefault, bulk population) and credited or recharged
/// by its home when it spills, promotes, migrates or is freed. On a
/// discrete node pool allocations charge their full footprint against the
/// device memory. Capacity is *enforced* only on the pool-allocation path
/// (`try_pool_alloc` returns nullptr): real drivers fail allocations
/// first, while host page overcommit OOM-kills the process — a failure
/// mode outside this model.
class MemorySystem {
 public:
  explicit MemorySystem(apu::Machine& machine);

  /// malloc/mmap-style host allocation. `home_socket` records the NUMA
  /// placement the first-touching thread would produce.
  Allocation& os_alloc(std::uint64_t bytes, std::string name,
                       int home_socket = 0);
  /// Placement-policy variant: `FirstTouch` defers the home decision to
  /// the first materializing access (host touch, GPU fault, prefault);
  /// `Interleaved` stripes page homes round-robin across all sockets;
  /// `FixedHome` behaves like plain `os_alloc(bytes, name, home_socket)`.
  Allocation& os_alloc_placed(std::uint64_t bytes, std::string name,
                              Placement placement, int home_socket = 0);
  void os_free(VirtAddr base);

  /// ROCr memory-pool ("device") allocation owned by one socket's GPU.
  /// Throws std::runtime_error when the socket's HBM capacity is exhausted.
  Allocation& pool_alloc(std::uint64_t bytes, std::string name,
                         int socket = 0);
  /// Error-carrying variant: nullptr when the socket's HBM cannot hold the
  /// page-rounded footprint (the caller decides how to degrade).
  [[nodiscard]] Allocation* try_pool_alloc(std::uint64_t bytes,
                                           std::string name, int socket = 0);
  /// Whether a pool allocation of `bytes` would fit right now.
  [[nodiscard]] bool pool_fits(std::uint64_t bytes, int socket = 0) const;
  void pool_free(VirtAddr base);

  /// CPU first touch: materialize CPU pages; returns newly created count.
  /// `toucher_socket` is the socket of the touching thread — it resolves a
  /// pending `Placement::FirstTouch` home.
  std::uint64_t host_touch(AddrRange range, int toucher_socket = 0);

  /// Pages of `range` the GPU of `socket` cannot currently translate.
  [[nodiscard]] std::uint64_t gpu_absent_pages(AddrRange range,
                                               int socket = 0) const;

  /// Pages of `range` the CPU has materialized (host first touch or bulk
  /// population). Pure state read — feeds the Adaptive Maps policy.
  [[nodiscard]] std::uint64_t cpu_resident_pages(AddrRange range) const;

  /// Pages of `range` homed on a socket other than `device` — the pages a
  /// kernel on `device` reaches over the fabric. Page-granular for
  /// interleaved allocations; zero for addresses outside any allocation or
  /// for a still-pending first-touch home. Pure state read — feeds the
  /// Adaptive Maps policy and the kernel cost model.
  [[nodiscard]] std::uint64_t remote_pages(AddrRange range, int device) const;

  /// Migrate pages of `range` to `to_socket`. A range covering the whole
  /// allocation moves every CPU-resident page, collapses the placement to
  /// `FixedHome` on `to_socket`, clears partial-migration overrides, and
  /// tears down every socket's GPU translations of the allocation (they
  /// re-fault or re-prefault afterwards — a migration remaps physical
  /// pages). A subrange moves only the covered pages: per-page home
  /// overrides record the new homes, pages already homed on `to_socket`
  /// are skipped idempotently, DDR-spilled pages promote into the new
  /// home, and only the covered range's translations are torn down. Under
  /// `THP=dynamic` a partial move splits the moved spans. Returns the
  /// number of resident pages that physically moved; zero when everything
  /// was already homed there. Throws for unknown addresses or pool
  /// allocations (only SVM memory migrates). Pure state: the HSA layer
  /// prices the operation.
  std::uint64_t migrate_pages(AddrRange range, int to_socket);

  /// GPU-side fault-in (XNACK-replay) of all absent pages in `range` on
  /// one socket's GPU; also materializes the CPU pages backing them,
  /// reporting how many needed materialization (they fault expensively).
  FaultOutcome gpu_fault_in(AddrRange range, int socket = 0);

  /// Host-side prefault (`svm_attributes_set` semantics) of `range` into
  /// one socket's GPU page table.
  PrefaultOutcome prefault(AddrRange range, int socket = 0);

  /// Stream `range` through one socket's GPU TLB.
  TlbAccessResult tlb_access(AddrRange range, int socket = 0);

  [[nodiscard]] AddressSpace& space() { return space_; }
  [[nodiscard]] const AddressSpace& space() const { return space_; }
  [[nodiscard]] PageTable& cpu_pt() { return cpu_pt_; }
  [[nodiscard]] PageTable& gpu_pt(int socket = 0) {
    return gpu_pt_.at(static_cast<std::size_t>(socket));
  }
  [[nodiscard]] Tlb& tlb(int socket = 0) {
    return tlb_.at(static_cast<std::size_t>(socket));
  }
  [[nodiscard]] int sockets() const { return static_cast<int>(gpu_pt_.size()); }
  [[nodiscard]] std::uint64_t page_bytes() const {
    return space_.page_bytes();
  }

  /// Physical HBM occupancy of one socket / the per-socket capacity.
  [[nodiscard]] std::uint64_t hbm_used(int socket = 0) const {
    return hbm_used_.at(static_cast<std::size_t>(socket));
  }
  [[nodiscard]] std::uint64_t hbm_capacity() const { return hbm_capacity_; }

  // -- memory pressure: DDR spill tier, access counters, THP dynamics ------

  /// Bytes currently spilled to the DDR tier (node-wide): the spilled-page
  /// set is the one DDR ledger.
  [[nodiscard]] std::uint64_t ddr_used() const {
    return ddr_pages_.size() * page_bytes();
  }
  /// Spilled pages inside `range` (feeds Adaptive promotion pricing).
  [[nodiscard]] std::uint64_t ddr_pages(AddrRange range) const;
  /// Split THP spans inside `range` (feeds TLB and fault pricing).
  [[nodiscard]] std::uint64_t split_spans(AddrRange range) const;

  /// Watermark reclaim: spill the coldest eligible pages homed on `socket`
  /// (SVM, CPU-resident, not already spilled; pool pages are pinned) until
  /// `hbm_used(socket) <= target_bytes`, at most `max_pages` this pass.
  /// Victims order by (access-counter heat, recency, seeded tie-break);
  /// evicted pages lose their GPU translations everywhere but keep their
  /// CPU entries — the data is untouched, only slower to reach. Under
  /// `THP=dynamic` each evicted span splits. Pure state: the HSA layer
  /// prices driver work and SDMA writeback.
  ReclaimOutcome reclaim(int socket, std::uint64_t target_bytes,
                         std::uint64_t max_pages);

  /// Pop one page whose remote-touch counter crossed `threshold`, or an
  /// invalid candidate. The caller migrates it (`migrate_pages` on the
  /// page's range) and prices the move.
  [[nodiscard]] MigrationCandidate take_migration_candidate(int threshold);

  /// Fault injection: the driver lost its access-counter state — every
  /// page reads as cold again.
  void counter_loss() { heat_.clear(); }

  /// Fault injection: spuriously split every CPU-resident huge span in
  /// `range` (THP=dynamic only). Returns spans newly split.
  std::uint64_t thp_split_range(AddrRange range);

  /// Throws std::logic_error when a socket's HBM counter disagrees with
  /// its occupancy recomputed from page state (the rule in the class
  /// comment). O(page-table runs); a no-op on a discrete node.
  void check_accounting() const;

 private:
  void release(VirtAddr base, MemKind expected);
  void charge(int socket, std::uint64_t bytes);
  void credit(int socket, std::uint64_t bytes);
  /// Call `f(lo, hi, socket)` for runs of pages [lo, hi) covering
  /// [first, end) that all have home `socket`: one step per allocation
  /// with one home, page by page under stripes or partial-migration
  /// overrides. A page outside every allocation is homed on socket 0.
  template <typename F>
  void for_each_home(std::uint64_t first, std::uint64_t end, F&& f) const;
  /// Call `f(lo, hi)` for each run of HBM-resident pages in [first, end):
  /// CPU-present and not spilled to DDR.
  template <typename F>
  void for_each_hbm_run(std::uint64_t first, std::uint64_t end,
                        F&& f) const;
  /// Charge (`sign` > 0) or credit every page of [first, end) to its home.
  void account(std::uint64_t first, std::uint64_t end, int sign);
  /// `account` over the HBM-resident pages of [first, end) only.
  void account_resident(std::uint64_t first, std::uint64_t end, int sign);
  /// The one way pages enter HBM: resolve the pending first-touch home of
  /// every allocation in [first, end) to `socket`, insert the CPU pages
  /// and, on an APU, charge the new ones to their homes. Returns how many
  /// were new.
  std::uint64_t materialize(std::uint64_t first, std::uint64_t end,
                            int socket);
  /// Promote the DDR-spilled pages of [first, end) back to HBM (GPU fault
  /// or prefault touched them); returns the promoted count.
  std::uint64_t promote_range(std::uint64_t first, std::uint64_t end);
  /// Access-counter sampling (no-op unless automigrate or pressure is on).
  void note_touch(AddrRange range, int socket);
  /// True when the THP split/collapse state machine is active.
  [[nodiscard]] bool thp_dynamic() const {
    return machine_.env().thp == apu::ThpMode::Dynamic;
  }

  apu::Machine& machine_;
  AddressSpace space_;
  PageTable cpu_pt_;
  std::vector<PageTable> gpu_pt_;
  std::vector<Tlb> tlb_;
  /// HBM bytes per socket: a counter, not a sum over page state, because
  /// `pool_fits` and every reclaim step read it.
  std::vector<std::uint64_t> hbm_used_;
  std::uint64_t hbm_capacity_ = 0;
  RunSet ddr_pages_;    ///< spilled absolute page indices
  RunSet split_spans_;  ///< 4 KB-fragmented huge spans
  /// Per-page access-counter shadow: remote-touch streak and recency.
  struct Heat {
    int socket = 0;            ///< the remote socket doing the touching
    std::uint32_t count = 0;   ///< consecutive remote touches
    std::uint64_t epoch = 0;   ///< recency for victim selection
  };
  std::map<std::uint64_t, Heat> heat_;
  std::uint64_t heat_epoch_ = 0;
  bool sample_counters_ = false;  ///< automigrate or pressure enabled
  /// Where `host_touch` renders its race-hook site, reused so that a
  /// pruned stamp allocates nothing (the detector reads only checked ones).
  std::string race_site_;
};

}  // namespace zc::mem

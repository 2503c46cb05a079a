#pragma once

#include <cstdint>
#include <vector>

#include "zc/mem/address.hpp"
#include "zc/mem/run_set.hpp"

namespace zc::race {

/// Page-granularity skip-set for `OMPX_APU_RACE_CHECK=...:pruned`: the
/// pages of host-address ranges the `zc::check` static may-race pass proved
/// free of unordered concurrent access. The detector consults it on every
/// page stamp and skips shadow-state bookkeeping for covered pages — clocks,
/// sync edges, and every uncovered page keep full instrumentation, so no
/// report outside the proven-safe set can be lost.
///
/// A page is covered iff it holds bytes of at least one proven-safe range
/// and bytes of NO must-check range. Page stamps originate exclusively
/// from accesses to recorded allocations (the detector spans each access's
/// byte range outward to page granularity), so every stamp on a covered
/// page comes from a proven-safe buffer — skipping it cannot lose a true
/// report, even when the safe buffer only partially occupies the page.
/// A page shared with any must-check range stays fully instrumented.
///
/// Page numbers are intra-run coordinates. The two phases of a pruned run
/// share them by construction: the bump allocator hands out identical
/// addresses for identical (seed, config) runs, which the pruned-mode
/// benchmark gate re-verifies via checksum and wall-time identity.
class PruneFilter {
 public:
  PruneFilter() = default;

  /// Build from the static partition: outward page spans of `safe` minus
  /// outward page spans of `must_check` (either in any order, may touch).
  [[nodiscard]] static PruneFilter from_partition(
      const std::vector<mem::AddrRange>& safe,
      const std::vector<mem::AddrRange>& must_check,
      std::uint64_t page_bytes) {
    PruneFilter f;
    for (const mem::AddrRange& r : safe) {
      f.pages_.insert(r.first_page(page_bytes), r.end_page(page_bytes));
    }
    for (const mem::AddrRange& r : must_check) {
      f.pages_.erase(r.first_page(page_bytes), r.end_page(page_bytes));
    }
    return f;
  }

  [[nodiscard]] bool empty() const { return pages_.empty(); }
  [[nodiscard]] std::uint64_t page_count() const { return pages_.size(); }

  /// Whether every page of [first, end) is proven safe. The detector calls
  /// this once per access before falling back to the per-page walk: a
  /// proven-safe buffer's whole page span lies inside one run here, so a
  /// multi-thousand-page access prunes in a single lookup. That lookup is
  /// `RunSet::covers` without a branch per search step: it runs for every
  /// kernel buffer, and the runs (one per safe buffer) number thousands.
  [[nodiscard]] bool covers_range(std::uint64_t first,
                                  std::uint64_t end) const {
    const std::vector<mem::RunSet::Run>& runs = pages_.runs();
    if (first >= end) {
      return true;
    }
    if (runs.empty() || first < runs.front().lo) {
      return false;
    }
    // The last run starting at or before `first` is the only candidate.
    const mem::RunSet::Run* run = runs.data();
    for (std::size_t n = runs.size(); n > 1; n -= n / 2) {
      run = run[n / 2].lo <= first ? run + n / 2 : run;
    }
    return end <= run->hi;
  }

  /// Whether `page` is proven safe (skip its shadow-state stamp).
  [[nodiscard]] bool covers(std::uint64_t page) const {
    return pages_.contains(page);
  }

 private:
  mem::RunSet pages_;  ///< proven-safe page indices
};

}  // namespace zc::race

#pragma once

#include <cstdint>
#include <stdexcept>

#include "zc/mem/address.hpp"
#include "zc/mem/run_set.hpp"

namespace zc::mem {

/// A page table as a presence set over page indices.
///
/// Used for both the CPU page table (which pages of an OS allocation have
/// been materialized) and the GPU page table (which pages the GPU can
/// translate without an XNACK fault). Only presence matters to the paper's
/// protocols; permissions and physical frames are out of scope. The pages
/// are one `RunSet`, so every query and mutation costs O(log runs + runs
/// touched) however many pages the range spans; this class only rounds
/// byte ranges outward to pages.
class PageTable {
 public:
  explicit PageTable(std::uint64_t page_bytes) : page_bytes_{page_bytes} {
    if (page_bytes_ == 0 || (page_bytes_ & (page_bytes_ - 1)) != 0) {
      throw std::invalid_argument(
          "PageTable: page size must be a power of two");
    }
  }

  [[nodiscard]] std::uint64_t page_bytes() const { return page_bytes_; }

  [[nodiscard]] bool present(std::uint64_t page_index) const {
    return pages_.contains(page_index);
  }
  [[nodiscard]] bool present_addr(VirtAddr a) const {
    return present(a.value / page_bytes_);
  }

  /// Insert one page; returns true if it was newly inserted.
  bool insert(std::uint64_t page_index) {
    return insert_pages(page_index, page_index + 1) == 1;
  }

  /// Insert every page of the range; returns how many were new.
  std::uint64_t insert_range(AddrRange range) {
    return insert_pages(range.first_page(page_bytes_),
                        range.end_page(page_bytes_));
  }

  /// Remove every page of the range; returns how many were present.
  std::uint64_t remove_range(AddrRange range) {
    return pages_.erase(range.first_page(page_bytes_),
                        range.end_page(page_bytes_));
  }

  /// How many pages of the range are absent.
  [[nodiscard]] std::uint64_t count_absent(AddrRange range) const {
    return range.page_count(page_bytes_) - count_present(range);
  }

  /// How many pages of the range are present.
  [[nodiscard]] std::uint64_t count_present(AddrRange range) const {
    return pages_.count(range.first_page(page_bytes_),
                        range.end_page(page_bytes_));
  }

  /// Insert pages [first, end); returns how many were new.
  std::uint64_t insert_pages(std::uint64_t first, std::uint64_t end) {
    return pages_.insert(first, end);
  }

  /// Call `f(a, b)` for each maximal run of *absent* pages within
  /// [first, end), in ascending order. `f` must not mutate this table.
  template <typename F>
  void for_each_absent_run(std::uint64_t first, std::uint64_t end,
                           F&& f) const {
    pages_.for_each_gap(first, end, f);
  }

  /// The present pages.
  [[nodiscard]] const RunSet& pages() const { return pages_; }

  [[nodiscard]] std::uint64_t size() const { return pages_.size(); }
  void clear() { pages_.clear(); }

 private:
  std::uint64_t page_bytes_;
  RunSet pages_;
};

}  // namespace zc::mem

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace zc::mem {

/// A set of `std::uint64_t` held as sorted, disjoint, coalesced runs
/// [lo, hi) in one vector: runs never touch, so a covered interval is
/// always one run. Every interval set in `mem`, `race` and `check` is one
/// of these: page-table presence and the DDR and split-span page sets
/// (page indices), an allocation's written extents (byte offsets), the
/// race prune filter (pages) and the analyzer's dirty and mapped sets
/// (addresses).
///
/// Queries binary-search to the first run that can matter, so they cost
/// O(log runs + runs touched) whatever the width of the range. A mutation
/// adds the cost of shifting the vector tail, which is O(1) for the
/// common append at the end (the bump allocator hands out ascending
/// addresses). An empty range (lo >= hi) is a no-op for every call.
class RunSet {
 public:
  /// One covered run [lo, hi).
  struct Run {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend bool operator==(const Run&, const Run&) = default;
  };

  /// Add [lo, hi); returns how many values were newly covered.
  std::uint64_t insert(std::uint64_t lo, std::uint64_t hi);

  /// Remove [lo, hi); returns how many values were covered.
  std::uint64_t erase(std::uint64_t lo, std::uint64_t hi);

  /// How many values of [lo, hi) are covered.
  [[nodiscard]] std::uint64_t count(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t n = 0;
    for_each_run(lo, hi, [&](std::uint64_t a, std::uint64_t b) { n += b - a; });
    return n;
  }

  [[nodiscard]] bool contains(std::uint64_t x) const {
    const auto it = first_ending_after(x);
    return it != runs_.end() && it->lo <= x;
  }

  /// Whether every value of [lo, hi) is covered (true for an empty range).
  [[nodiscard]] bool covers(std::uint64_t lo, std::uint64_t hi) const {
    if (lo >= hi) {
      return true;
    }
    const auto it = first_ending_after(lo);
    return it != runs_.end() && it->lo <= lo && hi <= it->hi;
  }

  /// Whether any value of [lo, hi) is covered (false for an empty range).
  [[nodiscard]] bool overlaps(std::uint64_t lo, std::uint64_t hi) const {
    if (lo >= hi) {
      return false;
    }
    const auto it = first_ending_after(lo);
    return it != runs_.end() && it->lo < hi;
  }

  /// Call `f(a, b)` for each covered run clipped to [lo, hi), ascending.
  /// `f` must not mutate this set.
  template <typename F>
  void for_each_run(std::uint64_t lo, std::uint64_t hi, F&& f) const {
    if (lo >= hi) {
      return;
    }
    for (auto it = first_ending_after(lo); it != runs_.end() && it->lo < hi;
         ++it) {
      f(std::max(it->lo, lo), std::min(it->hi, hi));
    }
  }

  /// Call `f(a, b)` for each maximal uncovered run within [lo, hi),
  /// ascending. `f` must not mutate this set.
  template <typename F>
  void for_each_gap(std::uint64_t lo, std::uint64_t hi, F&& f) const {
    std::uint64_t at = lo;
    for_each_run(lo, hi, [&](std::uint64_t a, std::uint64_t b) {
      if (at < a) {
        f(at, a);
      }
      at = b;
    });
    if (at < hi) {
      f(at, hi);
    }
  }

  /// The covered total.
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return runs_.empty(); }
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }
  void clear() {
    runs_.clear();
    size_ = 0;
  }

 private:
  /// The first run with `hi > x`: the only run that can hold `x`, and the
  /// first that can overlap a range starting at `x`.
  [[nodiscard]] std::vector<Run>::const_iterator first_ending_after(
      std::uint64_t x) const {
    return std::upper_bound(
        runs_.begin(), runs_.end(), x,
        [](std::uint64_t v, const Run& r) { return v < r.hi; });
  }

  std::vector<Run> runs_;  ///< sorted, disjoint, never touching
  std::uint64_t size_ = 0;
};

}  // namespace zc::mem

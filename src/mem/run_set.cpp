#include "zc/mem/run_set.hpp"

#include <algorithm>
#include <iterator>

namespace zc::mem {

namespace {

/// Values of [lo, hi) inside run `r`, which overlaps or touches it.
std::uint64_t shared(const RunSet::Run& r, std::uint64_t lo,
                     std::uint64_t hi) {
  return std::min(r.hi, hi) - std::max(r.lo, lo);
}

}  // namespace

std::uint64_t RunSet::insert(std::uint64_t lo, std::uint64_t hi) {
  if (lo >= hi) {
    return 0;
  }
  // [first, last) are the runs that overlap or touch [lo, hi); they merge
  // with it into one run.
  const auto first = std::lower_bound(
      runs_.begin(), runs_.end(), lo,
      [](const Run& r, std::uint64_t v) { return r.hi < v; });
  const auto last = std::upper_bound(
      first, runs_.end(), hi,
      [](std::uint64_t v, const Run& r) { return v < r.lo; });
  std::uint64_t added = hi - lo;
  if (first == last) {
    runs_.insert(first, Run{lo, hi});
  } else {
    for (auto it = first; it != last; ++it) {
      added -= shared(*it, lo, hi);
    }
    first->lo = std::min(first->lo, lo);
    first->hi = std::max(std::prev(last)->hi, hi);
    runs_.erase(std::next(first), last);
  }
  size_ += added;
  return added;
}

std::uint64_t RunSet::erase(std::uint64_t lo, std::uint64_t hi) {
  if (lo >= hi) {
    return 0;
  }
  // [first, last) are the runs that overlap [lo, hi).
  const auto first = std::upper_bound(
      runs_.begin(), runs_.end(), lo,
      [](std::uint64_t v, const Run& r) { return v < r.hi; });
  const auto last = std::lower_bound(
      first, runs_.end(), hi,
      [](const Run& r, std::uint64_t v) { return r.lo < v; });
  if (first == last) {
    return 0;
  }
  std::uint64_t removed = 0;
  for (auto it = first; it != last; ++it) {
    removed += shared(*it, lo, hi);
  }
  // What survives of the outer runs, on either side of [lo, hi).
  const Run left{first->lo, lo};
  const Run right{hi, std::prev(last)->hi};
  if (left.lo < left.hi && right.lo < right.hi && std::next(first) == last) {
    first->hi = lo;  // [lo, hi) lies inside one run: split it
    runs_.insert(last, right);
  } else {
    auto out = first;
    if (left.lo < left.hi) {
      *out++ = left;
    }
    if (right.lo < right.hi) {
      *out++ = right;
    }
    runs_.erase(out, last);
  }
  size_ -= removed;
  return removed;
}

}  // namespace zc::mem

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace zc::race {

/// One component of a vector clock: actor `slot` at logical time `value`.
/// FastTrack's "epoch" — the O(1) representation of a single access when no
/// concurrent readers exist.
struct Epoch {
  int slot = -1;  ///< -1 = no access recorded yet
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const { return slot >= 0; }
};

/// A sparse vector clock over actor slots (virtual threads and logical
/// device tasks). Components never decrease; absent components are zero.
///
/// Stored as a sorted flat vector: clocks stay small (slot GC bounds them),
/// and the detector joins/copies them on every sync edge — contiguous
/// storage makes the common join (whose component sets already match) a
/// pure in-place max with zero allocation, where a node-based map pays a
/// tree walk plus an allocation per component.
class VectorClock {
 public:
  [[nodiscard]] std::uint64_t of(int slot) const {
    const auto it = find(slot);
    return it != clock_.end() && it->first == slot ? it->second : 0;
  }

  void set(int slot, std::uint64_t value) {
    const auto it = find(slot);
    if (it != clock_.end() && it->first == slot) {
      if (value > it->second) {
        it->second = value;
      }
      return;
    }
    clock_.insert(it, {slot, value});
  }

  void tick(int slot) {
    const auto it = find(slot);
    if (it != clock_.end() && it->first == slot) {
      ++it->second;
      return;
    }
    clock_.insert(it, {slot, 1});
  }

  /// Componentwise maximum (the join of two happens-before frontiers).
  void join(const VectorClock& other) {
    if (other.clock_.empty()) {
      return;
    }
    if (clock_.empty()) {
      clock_ = other.clock_;  // reuses this clock's storage
      return;
    }
    // Fast path: every slot of `other` already exists here — max in place.
    std::size_t i = 0;
    bool subset = true;
    for (const auto& [slot, value] : other.clock_) {
      while (i < clock_.size() && clock_[i].first < slot) {
        ++i;
      }
      if (i == clock_.size() || clock_[i].first != slot) {
        subset = false;
        break;
      }
      if (value > clock_[i].second) {
        clock_[i].second = value;
      }
    }
    if (subset) {
      return;
    }
    std::vector<std::pair<int, std::uint64_t>> merged;
    merged.reserve(clock_.size() + other.clock_.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < clock_.size() || b < other.clock_.size()) {
      if (b == other.clock_.size() ||
          (a < clock_.size() && clock_[a].first < other.clock_[b].first)) {
        merged.push_back(clock_[a++]);
      } else if (a == clock_.size() ||
                 other.clock_[b].first < clock_[a].first) {
        merged.push_back(other.clock_[b++]);
      } else {
        merged.push_back({clock_[a].first,
                          std::max(clock_[a].second, other.clock_[b].second)});
        ++a;
        ++b;
      }
    }
    clock_ = std::move(merged);
  }

  /// Whether every component of *this is <= the matching one in `other`
  /// (i.e. everything known here happened-before `other`'s frontier).
  [[nodiscard]] bool leq(const VectorClock& other) const {
    for (const auto& [slot, value] : clock_) {
      if (value > other.of(slot)) {
        return false;
      }
    }
    return true;
  }

  /// Whether the access stamped `e` happened-before this frontier.
  [[nodiscard]] bool covers(Epoch e) const {
    return e.valid() && e.value <= of(e.slot);
  }

  [[nodiscard]] bool empty() const { return clock_.empty(); }
  /// Forget every component, keeping the storage for the next joins.
  void clear() { clock_.clear(); }
  [[nodiscard]] std::size_t size() const { return clock_.size(); }

  /// Render as "{0:3, 2:7}" for race reports.
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [slot, value] : clock_) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += std::to_string(slot) + ":" + std::to_string(value);
    }
    out += "}";
    return out;
  }

  [[nodiscard]] const std::vector<std::pair<int, std::uint64_t>>& components()
      const {
    return clock_;
  }

  /// Drop every component whose slot satisfies `dead`. Used by the
  /// detector's slot garbage collection: once no shadow epoch references a
  /// retired device task's slot, that component can never influence a
  /// covers() check again and only bloats joins/copies.
  template <typename Pred>
  std::size_t prune(Pred dead) {
    return std::erase_if(clock_,
                         [&dead](const auto& kv) { return dead(kv.first); });
  }

 private:
  using Iter = std::vector<std::pair<int, std::uint64_t>>::iterator;
  using ConstIter = std::vector<std::pair<int, std::uint64_t>>::const_iterator;

  [[nodiscard]] Iter find(int slot) {
    return std::lower_bound(
        clock_.begin(), clock_.end(), slot,
        [](const std::pair<int, std::uint64_t>& e, int s) {
          return e.first < s;
        });
  }
  [[nodiscard]] ConstIter find(int slot) const {
    return std::lower_bound(
        clock_.begin(), clock_.end(), slot,
        [](const std::pair<int, std::uint64_t>& e, int s) {
          return e.first < s;
        });
  }

  std::vector<std::pair<int, std::uint64_t>> clock_;  ///< sorted by slot
};

}  // namespace zc::race

#include "zc/core/mapping.hpp"

#include <stdexcept>
#include <utility>

namespace zc::omp {

PresentEntry& PresentTable::insert(mem::AddrRange host,
                                   mem::VirtAddr device_base, bool pinned) {
  if (host.empty()) {
    throw std::invalid_argument("PresentTable::insert: empty range");
  }
  // Reject any overlap with neighbours (the shared range-relation helper
  // keeps this byte-for-byte consistent with the zc::check overlap pass:
  // adjacency is legal, sharing bytes is not).
  auto next = entries_.lower_bound(host.base.value);
  if (next != entries_.end() && mem::ranges_overlap(next->second.host, host)) {
    throw std::invalid_argument(
        "PresentTable::insert: range overlaps existing mapping at " +
        next->second.host.base.to_string());
  }
  if (next != entries_.begin()) {
    auto prev = std::prev(next);
    if (mem::ranges_overlap(prev->second.host, host)) {
      throw std::invalid_argument(
          "PresentTable::insert: range overlaps existing mapping at " +
          prev->second.host.base.to_string());
    }
  }
  PresentEntry entry{host, device_base, 0, pinned};
  auto [it, ok] = entries_.emplace(host.base.value, entry);
  (void)ok;
  return it->second;
}

const PresentEntry* PresentTable::lookup(mem::VirtAddr addr) const {
  auto it = entries_.upper_bound(addr.value);
  if (it == entries_.begin()) {
    return nullptr;
  }
  --it;
  return it->second.host.contains(addr) ? &it->second : nullptr;
}

PresentEntry* PresentTable::lookup(mem::VirtAddr addr) {
  return const_cast<PresentEntry*>(std::as_const(*this).lookup(addr));
}

PresentEntry* PresentTable::lookup_range(mem::AddrRange range) {
  PresentEntry* e = lookup(range.base);
  if (e == nullptr) {
    return nullptr;
  }
  if (!mem::range_covers(e->host, range)) {
    throw std::invalid_argument(
        "PresentTable::lookup_range: range extends past mapped range of '" +
        e->host.base.to_string() + "'");
  }
  return e;
}

void PresentTable::erase(mem::VirtAddr host_base) {
  auto it = entries_.find(host_base.value);
  if (it == entries_.end()) {
    throw std::invalid_argument("PresentTable::erase: unknown base " +
                                host_base.to_string());
  }
  entries_.erase(it);
}

}  // namespace zc::omp

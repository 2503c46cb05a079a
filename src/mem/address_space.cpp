#include "zc/mem/address_space.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

namespace zc::mem {

namespace {

/// Below one host page a heap block costs no more RSS than a mapping and
/// saves the system calls.
std::uint64_t host_page_bytes() {
  static const auto bytes = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

}  // namespace

std::string VirtAddr::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(value));
  return buf;
}

Allocation::Allocation(VirtAddr base, std::uint64_t bytes, MemKind kind,
                       std::string name)
    : base_{base}, bytes_{bytes}, kind_{kind}, name_{std::move(name)} {}

void BackingFree::operator()(std::byte* p) const {
  if (mapped_bytes > 0) {
    munmap(p, mapped_bytes);
  } else {
    delete[] p;
  }
}

std::byte* Allocation::backing() {
  if (backing_ == nullptr) {
    if (bytes_ < host_page_bytes()) {
      backing_ = {new std::byte[bytes_](), BackingFree{}};
    } else {
      void* const p =
          mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (p == MAP_FAILED) {
        throw std::bad_alloc();
      }
      backing_ = {static_cast<std::byte*>(p), BackingFree{bytes_}};
    }
  }
  return backing_.get();
}

std::uint64_t Allocation::remote_pages(AddrRange range, int socket,
                                       std::uint64_t page_bytes) const {
  if (home_pending()) {
    return 0;
  }
  // Clamp to this allocation before counting.
  const std::uint64_t lo =
      range.base.value < base_.value ? base_.value : range.base.value;
  const std::uint64_t alloc_end = base_.value + bytes_;
  std::uint64_t hi = range.base.value + range.bytes;
  hi = hi > alloc_end ? alloc_end : hi;
  if (lo >= hi) {
    return 0;
  }
  const std::uint64_t first = lo / page_bytes;
  const std::uint64_t end = (hi + page_bytes - 1) / page_bytes;
  const std::uint64_t total = end - first;
  const std::uint64_t origin = base_.value / page_bytes;
  // Closed form first; partial-migration overrides (rare) adjust it below.
  std::uint64_t remote = 0;
  if (placement_ != Placement::Interleaved) {
    remote = home_socket_ == socket ? 0 : total;
  } else {
    const std::uint64_t k = static_cast<std::uint64_t>(placement_sockets_);
    if (socket < 0 || static_cast<std::uint64_t>(socket) >= k) {
      remote = total;
    } else {
      // Count pages of [first, end) whose stripe residue equals `socket`,
      // where residues are relative to the allocation's first page.
      const std::uint64_t r = static_cast<std::uint64_t>(socket);
      auto locals_below = [&](std::uint64_t page) {
        const std::uint64_t rel = page - origin;  // page >= origin by clamping
        return rel > r ? (rel - r + k - 1) / k : 0;
      };
      remote = total - (locals_below(end) - locals_below(first));
    }
  }
  if (!home_overrides_.empty()) {
    auto it = home_overrides_.lower_bound(first - origin);
    const std::uint64_t rel_end = end - origin;
    for (; it != home_overrides_.end() && it->first < rel_end; ++it) {
      const bool policy_local = policy_home(it->first) == socket;
      const bool actual_local = it->second == socket;
      if (policy_local && !actual_local) {
        ++remote;
      } else if (!policy_local && actual_local) {
        --remote;
      }
    }
  }
  return remote;
}

std::byte* Allocation::translate(VirtAddr a, std::uint64_t n) {
  if (!range().contains(a) || n > range().end() - a) {
    throw std::out_of_range("Allocation::translate: " + std::to_string(n) +
                            " bytes at " + a.to_string() +
                            " outside allocation '" + name_ + "'");
  }
  const std::uint64_t off = a - base_;
  std::byte* const p = backing() + off;
  written_.insert(off, off + n);
  return p;
}

std::byte* Allocation::translate(VirtAddr a) {
  return translate(a, range().contains(a) ? range().end() - a : 0);
}

AddressSpace::AddressSpace(std::uint64_t page_bytes) : page_bytes_{page_bytes} {
  if (page_bytes_ == 0 || (page_bytes_ & (page_bytes_ - 1)) != 0) {
    throw std::invalid_argument("AddressSpace: page size must be a power of two");
  }
  next_ = page_bytes_;  // keep address 0 unmapped so VirtAddr::null stays invalid
}

Allocation& AddressSpace::allocate(std::uint64_t bytes, MemKind kind,
                                   std::string name) {
  if (bytes == 0) {
    throw std::invalid_argument("AddressSpace::allocate: zero-byte allocation");
  }
  const VirtAddr base{next_};
  const std::uint64_t span = (bytes + page_bytes_ - 1) / page_bytes_ * page_bytes_;
  next_ += span + page_bytes_;  // one guard page between allocations
  auto alloc =
      std::make_unique<Allocation>(base, bytes, kind, std::move(name));
  Allocation& ref = *alloc;
  // Bump allocation: `base` is strictly larger than every existing key,
  // so hinting at end() makes the tree insert amortized O(1).
  allocs_.emplace_hint(allocs_.end(), base.value, std::move(alloc));
  live_bytes_ += bytes;
  total_bytes_ += bytes;
  return ref;
}

void AddressSpace::free(VirtAddr base) {
  auto it = allocs_.find(base.value);
  if (it == allocs_.end()) {
    throw std::invalid_argument("AddressSpace::free: unknown base " +
                                base.to_string());
  }
  for (FindSlot& slot : find_cache_) {
    if (slot.alloc == it->second.get()) {
      slot = FindSlot{};
    }
  }
  live_bytes_ -= it->second->bytes();
  allocs_.erase(it);
}

Allocation* AddressSpace::find(VirtAddr a) {
  const std::uint64_t v = a.value;
  for (std::size_t i = 0; i < kFindCacheSlots; ++i) {
    const FindSlot s = find_cache_[i];
    if (v >= s.base && v < s.end) {
      if (i > 0) {
        // Transpose one step toward the front: O(1), and hot buffers
        // still converge to the first probes.
        std::swap(find_cache_[i], find_cache_[i - 1]);
      }
      return s.alloc;
    }
  }
  if (allocs_.empty()) {
    return nullptr;
  }
  auto it = allocs_.upper_bound(v);
  if (it == allocs_.begin()) {
    return nullptr;
  }
  --it;
  Allocation* alloc = it->second.get();
  if (!alloc->range().contains(a)) {
    return nullptr;
  }
  for (std::size_t j = kFindCacheSlots - 1; j > 0; --j) {
    find_cache_[j] = find_cache_[j - 1];
  }
  find_cache_[0] =
      FindSlot{alloc->base().value, alloc->base().value + alloc->bytes(), alloc};
  return alloc;
}

const Allocation* AddressSpace::find(VirtAddr a) const {
  return const_cast<AddressSpace*>(this)->find(a);
}

Allocation& AddressSpace::holder(VirtAddr a, std::uint64_t n,
                                 const char* what) {
  Allocation* alloc = find(a);
  if (alloc == nullptr || n > alloc->range().end() - a) {
    throw std::out_of_range(std::string{what} + ": " + std::to_string(n) +
                            " bytes at " + a.to_string() +
                            " are not inside one allocation");
  }
  return *alloc;
}

std::byte* AddressSpace::translate(VirtAddr a, std::uint64_t n) {
  return holder(a, n, "AddressSpace::translate").translate(a, n);
}

std::byte* AddressSpace::translate(VirtAddr a) {
  return holder(a, 0, "AddressSpace::translate").translate(a);
}

void AddressSpace::copy(VirtAddr dst, VirtAddr src, std::uint64_t bytes) {
  Allocation& to = holder(dst, bytes, "AddressSpace::copy destination");
  Allocation& from = holder(src, bytes, "AddressSpace::copy source");
  const std::uint64_t s0 = src - from.base();
  const std::uint64_t d0 = dst - to.base();

  // The source's written bytes in range, as offsets into the range.
  std::vector<Extent> pieces;
  from.written_.for_each_run(s0, s0 + bytes,
                             [&](std::uint64_t lo, std::uint64_t hi) {
                               pieces.push_back(Extent{lo - s0, hi - s0});
                             });
  const std::byte* const in =
      pieces.empty() ? nullptr : from.backing_.get() + s0;
  // Within one allocation, stage the source first: clearing the
  // destination must not clobber bytes still to be read.
  std::vector<std::byte> staged;
  if (&to == &from) {
    for (const Extent& p : pieces) {
      staged.insert(staged.end(), in + p.lo, in + p.hi);
    }
  }
  // Destination bytes the source has not written must read as zero.
  to.written_.for_each_run(d0, d0 + bytes,
                           [&](std::uint64_t lo, std::uint64_t hi) {
                             std::memset(to.backing_.get() + lo, 0, hi - lo);
                           });
  if (pieces.empty()) {
    return;
  }
  std::byte* const out = to.backing() + d0;
  std::size_t at = 0;
  for (const Extent& p : pieces) {
    const std::byte* const piece =
        staged.empty() ? in + p.lo : staged.data() + at;
    std::memcpy(out + p.lo, piece, p.hi - p.lo);
    at += p.hi - p.lo;
    to.written_.insert(d0 + p.lo, d0 + p.hi);
  }
}

}  // namespace zc::mem

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "zc/core/offload_runtime.hpp"

namespace zc::omp {

/// Typed host allocation bound to an OffloadRuntime — the moral equivalent
/// of `new T[n]` in an OpenMP program. Construction and `release()` are
/// timed (they model malloc/free on a virtual host thread and must run
/// inside one); the destructor only reclaims simulator state.
template <typename T>
class HostArray {
 public:
  HostArray(OffloadRuntime& rt, std::size_t count, std::string name,
            int home_socket = 0)
      : rt_{&rt},
        count_{count},
        addr_{rt.host_alloc(count * sizeof(T), std::move(name), home_socket)} {}

  HostArray(const HostArray&) = delete;
  HostArray& operator=(const HostArray&) = delete;
  HostArray(HostArray&& o) noexcept
      : rt_{o.rt_}, count_{o.count_}, addr_{std::exchange(o.addr_, {})} {}
  HostArray& operator=(HostArray&& o) noexcept {
    if (this != &o) {
      reclaim();
      rt_ = o.rt_;
      count_ = o.count_;
      addr_ = std::exchange(o.addr_, {});
    }
    return *this;
  }

  ~HostArray() { reclaim(); }

  /// Timed free (must run on a virtual thread).
  void release() {
    if (!addr_.is_null()) {
      rt_->host_free(std::exchange(addr_, {}));
    }
  }

  [[nodiscard]] mem::VirtAddr addr() const { return addr_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t bytes() const { return count_ * sizeof(T); }
  [[nodiscard]] mem::AddrRange range() const {
    return mem::AddrRange{addr_, bytes()};
  }

  /// Element `i` (host view); marks only it written. Throws
  /// std::out_of_range for `i >= size()`.
  [[nodiscard]] T& operator[](std::size_t i) {
    if (i >= count_) {  // also keeps `i * sizeof(T)` from wrapping
      throw std::out_of_range("HostArray: index " + std::to_string(i) +
                              " past size " + std::to_string(count_));
    }
    return *rt_->hsa().memory().space().translate_as<T>(addr_ + i * sizeof(T),
                                                        1);
  }

  /// Timed CPU first touch of the whole array.
  void first_touch() { rt_->host_first_touch(range()); }

  /// Map-clause builders.
  [[nodiscard]] MapEntry to() const { return MapEntry::to(addr_, bytes()); }
  [[nodiscard]] MapEntry from() const {
    return MapEntry::from(addr_, bytes());
  }
  [[nodiscard]] MapEntry tofrom() const {
    return MapEntry::tofrom(addr_, bytes());
  }
  [[nodiscard]] MapEntry alloc() const {
    return MapEntry::alloc(addr_, bytes());
  }
  [[nodiscard]] MapEntry always_to() const {
    return MapEntry::always_to(addr_, bytes());
  }
  [[nodiscard]] MapEntry always_tofrom() const {
    return MapEntry::always_tofrom(addr_, bytes());
  }

 private:
  void reclaim() {
    if (!addr_.is_null()) {
      // Untimed state reclamation (destructor may run outside any fiber).
      rt_->hsa().memory().os_free(std::exchange(addr_, {}));
    }
  }

  OffloadRuntime* rt_;
  std::size_t count_ = 0;
  mem::VirtAddr addr_;
};

}  // namespace zc::omp

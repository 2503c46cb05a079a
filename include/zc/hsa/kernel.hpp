#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "zc/mem/address_space.hpp"
#include "zc/sim/time.hpp"

namespace zc::hsa {

/// How a kernel uses one of its buffer arguments.
enum class Access {
  Read,
  Write,
  ReadWrite,
};

/// One buffer argument of a kernel: the (simulated) device-visible address
/// range the kernel streams through, used for fault and TLB accounting.
struct BufferAccess {
  mem::VirtAddr addr;
  std::uint64_t bytes = 0;
  Access access = Access::ReadWrite;

  [[nodiscard]] mem::AddrRange range() const {
    return mem::AddrRange{addr, bytes};
  }
};

/// Functional execution context handed to a kernel body: translates
/// simulated addresses to real backing pointers.
class KernelContext {
 public:
  explicit KernelContext(mem::AddressSpace& space) : space_{space} {}

  /// The `count` elements at `a`, which the body may read and write; only
  /// those are marked written, so only those travel in later SDMA copies.
  /// Throws std::out_of_range past the end of the allocation.
  template <typename T>
  [[nodiscard]] T* ptr(mem::VirtAddr a, std::uint64_t count) {
    return space_.translate_as<T>(a, count);
  }
  /// Uncounted form: marks from `a` to the end of its allocation.
  template <typename T>
  [[nodiscard]] T* ptr(mem::VirtAddr a) {
    return space_.translate_as<T>(a);
  }

  [[nodiscard]] mem::AddressSpace& space() { return space_; }

 private:
  mem::AddressSpace& space_;
};

/// A kernel dispatch request.
///
/// `compute` is the modeled GPU-resident compute time (what the kernel
/// would take with a warm TLB and no page faults); the runtime adds launch
/// latency, TLB walks, and XNACK fault stalls on top. `body`, when set, is
/// executed functionally so the simulation produces real numerical results.
struct KernelLaunch {
  std::string name;
  std::vector<BufferAccess> buffers;
  sim::Duration compute;
  std::function<void(KernelContext&)> body;
  /// Which socket's GPU executes the kernel (OpenMP device number).
  int device = 0;
};

}  // namespace zc::hsa

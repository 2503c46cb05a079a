#pragma once

#include <cstdint>

#include "zc/sim/time.hpp"

namespace zc::trace {

/// One SDMA transfer, as the async-copy path sees it.
struct CopyRecord {
  int device = 0;       ///< socket whose SDMA engine carried the copy
  int src_socket = 0;   ///< home of the source allocation
  int dst_socket = 0;   ///< home of the destination allocation
  sim::TimePoint submit;  ///< CPU issued the copy
  sim::TimePoint start;   ///< engine began the transfer
  sim::TimePoint end;     ///< completion signal fired
  std::uint64_t bytes = 0;

  [[nodiscard]] bool cross_socket() const { return src_socket != dst_socket; }
  [[nodiscard]] sim::Duration duration() const { return end - start; }
};

}  // namespace zc::trace

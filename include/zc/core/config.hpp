#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "zc/apu/env.hpp"
#include "zc/apu/params.hpp"

namespace zc::omp {

/// The four runtime configurations the paper studies (§IV), plus the
/// simulator's own Adaptive Maps extension. All are equivalent from an
/// OpenMP semantics viewpoint; they differ in how the runtime realizes
/// data environments on the machine.
enum class RuntimeConfig {
  /// Map = device pool allocation + DMA copies (discrete-GPU behaviour,
  /// runs unchanged on the APU; copies become HBM-to-HBM).
  LegacyCopy,
  /// Program built with `#pragma omp requires unified_shared_memory`:
  /// maps are no-ops, kernels receive host pointers, globals are accessed
  /// through double indirection. Requires unified-memory (XNACK) support.
  UnifiedSharedMemory,
  /// Same zero-copy behaviour selected automatically by the runtime on an
  /// APU with XNACK enabled (or opted into on discrete GPUs with
  /// OMPX_APU_MAPS=1), for programs NOT built with the requires pragma.
  /// Globals keep the Copy behaviour (device copy + transfers on map).
  ImplicitZeroCopy,
  /// Implicit zero-copy plus a GPU page-table prefault on every map
  /// (`svm_attributes_set`), trading a host syscall per map for fault-free
  /// first-touch kernels. Does not require XNACK.
  EagerMaps,
  /// Online profile-guided handling (`OMPX_APU_MAPS=adaptive`): the
  /// `zc::adapt` policy engine classifies each mapped region as DMA-copy,
  /// XNACK zero-copy, or eager host prefault from observed behavior, with
  /// hysteresis and a per-range decision cache. Globals keep the Copy
  /// behaviour, like the other non-USM configurations.
  AdaptiveMaps,
};

[[nodiscard]] constexpr const char* to_string(RuntimeConfig c) {
  switch (c) {
    case RuntimeConfig::LegacyCopy:
      return "Legacy Copy";
    case RuntimeConfig::UnifiedSharedMemory:
      return "Unified Shared Memory";
    case RuntimeConfig::ImplicitZeroCopy:
      return "Implicit Zero-Copy";
    case RuntimeConfig::EagerMaps:
      return "Eager Maps";
    case RuntimeConfig::AdaptiveMaps:
      return "Adaptive Maps";
  }
  return "?";
}

/// The configuration a command-line name selects: `copy`, `usm`,
/// `zerocopy` (or `zc`), `eager` or `adaptive`; nullopt for any other name.
[[nodiscard]] constexpr std::optional<RuntimeConfig> parse_config_name(
    std::string_view name) {
  if (name == "copy") {
    return RuntimeConfig::LegacyCopy;
  }
  if (name == "usm") {
    return RuntimeConfig::UnifiedSharedMemory;
  }
  if (name == "zerocopy" || name == "zc") {
    return RuntimeConfig::ImplicitZeroCopy;
  }
  if (name == "eager") {
    return RuntimeConfig::EagerMaps;
  }
  if (name == "adaptive") {
    return RuntimeConfig::AdaptiveMaps;
  }
  return std::nullopt;
}

/// True for the configurations that can pass host pointers to kernels
/// (Adaptive Maps does so for every region its policy keeps zero-copy).
[[nodiscard]] constexpr bool is_zero_copy(RuntimeConfig c) {
  return c != RuntimeConfig::LegacyCopy;
}

/// True for the configurations that keep separate device copies of
/// declare-target globals and transfer them on map (§IV-C: everything
/// except Unified Shared Memory's double indirection).
[[nodiscard]] constexpr bool globals_use_device_copy(RuntimeConfig c) {
  return c != RuntimeConfig::UnifiedSharedMemory;
}

/// Raised when the deployment environment cannot satisfy the program's
/// requirements (e.g. `requires unified_shared_memory` without XNACK).
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The automatic configuration-selection logic the paper contributes
/// (§IV-B/C/D, including footnote 1):
///
///  1. a program built with `requires unified_shared_memory` always runs as
///     Unified Shared Memory and demands XNACK — it cannot fall back;
///  2. otherwise, `OMPX_APU_MAPS=adaptive` on an APU selects Adaptive Maps
///     (works with XNACK on or off — the policy simply never chooses
///     zero-copy without XNACK);
///  3. otherwise, `OMPX_EAGER_ZERO_COPY_MAPS=1` on an APU selects Eager
///     Maps (works with XNACK on or off);
///  4. otherwise, an APU with XNACK enabled — or a discrete GPU with both
///     `OMPX_APU_MAPS` enabled (any non-off value) and XNACK — selects
///     Implicit Zero-Copy;
///  5. otherwise the runtime behaves as on discrete GPUs: Legacy Copy.
[[nodiscard]] RuntimeConfig resolve_config(apu::MachineKind kind,
                                           const apu::RunEnvironment& env,
                                           bool requires_usm);

}  // namespace zc::omp

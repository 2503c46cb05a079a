#pragma once

#include "zc/sim/rng.hpp"
#include "zc/sim/time.hpp"

namespace zc::sim {

/// Multiplicative noise applied to modeled operation costs.
///
/// Real measurements vary run to run; the paper reports Coefficient-of-
/// Variation (CoV) statistics and attributes two Eager-Maps outliers to OS
/// interference on the prefault syscall and to TLB thrashing. The jitter
/// model reproduces both mechanisms:
///
///  * baseline log-normal noise with unit mean and parameter `sigma`
///    (sigma = 0 disables noise entirely -> fully analytic runs);
///  * rare outliers: with probability `outlier_prob` a cost is multiplied
///    by `outlier_factor` (e.g. a syscall descheduled by the OS).
struct JitterParams {
  double sigma = 0.0;
  double outlier_prob = 0.0;
  double outlier_factor = 1.0;
};

class JitterModel {
 public:
  JitterModel() : JitterModel{JitterParams{}, 0} {}
  JitterModel(JitterParams params, std::uint64_t seed)
      : params_{params}, rng_{seed} {}

  /// Apply noise to a cost. Deterministic given construction seed and
  /// call sequence; identity when sigma == 0 and outlier_prob == 0.
  /// The disabled case consumes no RNG state, so taking it inline keeps
  /// the stream bit-identical with the out-of-line path.
  [[nodiscard]] Duration apply(Duration d) {
    if (d.is_zero() ||
        (params_.sigma <= 0.0 && params_.outlier_prob <= 0.0)) {
      return d;
    }
    return apply_noise(d);
  }

 private:
  [[nodiscard]] Duration apply_noise(Duration d);

  JitterParams params_;
  Rng rng_;
};

}  // namespace zc::sim

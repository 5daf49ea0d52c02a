#ifndef ISLA_CORE_OPTIONS_H_
#define ISLA_CORE_OPTIONS_H_

#include <cstdint>

#include "common/status.h"

namespace isla {
namespace core {

/// Tunables of the ISLA aggregation engine. Field names and defaults follow
/// the paper's Table I and the experiment section (§VIII "Parameters").
struct IslaOptions {
  /// Desired precision e: the confidence-interval half-width the user asks
  /// for in `WHERE desired precision`.
  double precision = 0.1;

  /// Confidence β of the interval (Definition 1).
  double confidence = 0.95;

  /// Relaxed-precision multiplier t_e (> 1) for the sketch estimator:
  /// sketch0 is computed with precision t_e·e (§III-B).
  double sketch_relaxation = 3.0;

  /// Data-boundary parameters 0 < p1 < p2 (§IV-A1). Defaults per §VIII.
  double p1 = 0.5;
  double p2 = 2.0;

  /// Step-length factor λ in (0, 1): the smaller of |kδα| and δsketch is
  /// λ times the larger (§V-D). Default per §VIII.
  double step_length_factor = 0.8;

  /// Convergence rate η in (0, 1): D shrinks to ηD each iteration (§V-D).
  double convergence_rate = 0.5;

  /// Iteration threshold thr > 0: iterate until |D| <= thr (§V-D). When 0,
  /// derived as `threshold_fraction * precision`.
  double threshold = 0.0;
  double threshold_fraction = 0.01;

  /// Case-5 window: dev = |S|/|L| inside (lo, hi) means sketch0 is already
  /// good and is returned directly (§IV-A4, §V-C Case 5).
  double dev_balanced_lo = 0.99;
  double dev_balanced_hi = 1.01;

  /// q' tiers (§IV-A4 and §VIII "Parameters"): the mild band uses
  /// q' = q_prime_mild, the severe band q' = q_prime_severe; inside
  /// (dev_mild_lo, dev_mild_hi) q stays 1.
  double dev_mild_lo = 0.97;
  double dev_mild_hi = 1.03;
  double dev_severe_lo = 0.94;
  double dev_severe_hi = 1.06;
  double q_prime_mild = 5.0;
  double q_prime_severe = 10.0;

  /// Modulation boundary (§VII-B): clamp each block's answer to sketch0's
  /// relaxed confidence interval sketch0 ± t_e·e. On symmetric data the
  /// clamp never binds; on skewed/asymmetric data it stops the
  /// unbalanced-sampling cases (1 and 4) from extrapolating outside the
  /// interval that provably contains µ.
  bool clamp_to_sketch_interval = true;

  /// Pilot sample size used to estimate σ (system-specified; §III-A).
  uint64_t sigma_pilot_size = 1000;

  /// PRNG seed: every run is reproducible from this value.
  uint64_t seed = 0x15a15a15aULL;

  /// Threads for the per-block pilot rounds and Calculation phase (and the
  /// coordinator's fan-out of every round in distributed mode). 0 = all
  /// hardware threads. Any value yields bit-identical answers: each block
  /// samples from its own RNG stream per phase, derived as
  /// SplitMix64::Hash(phase seed, block_index), and partials merge in block
  /// order regardless of completion order.
  uint32_t parallelism = 0;

  /// Scale factor applied to the Eq. (1) sampling rate. 1.0 reproduces the
  /// paper's default; Table V sets it to 1/3 to show ISLA matching US/STS
  /// with a third of the samples.
  double sampling_rate_scale = 1.0;

  /// Validates ranges; returns InvalidArgument describing the first bad
  /// field.
  Status Validate() const;

  /// The effective iteration threshold (resolves threshold == 0).
  double EffectiveThreshold() const {
    return threshold > 0.0 ? threshold : threshold_fraction * precision;
  }
};

}  // namespace core
}  // namespace isla

#endif  // ISLA_CORE_OPTIONS_H_

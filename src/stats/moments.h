#ifndef ISLA_STATS_MOMENTS_H_
#define ISLA_STATS_MOMENTS_H_

#include <cmath>
#include <cstdint>

namespace isla {
namespace stats {

/// Neumaier (improved Kahan) compensated accumulator. Streaming the paper's
/// power sums Σa, Σa², Σa³ over hundreds of thousands of doubles loses
/// precision with naive accumulation; the compensation keeps the objective
/// function coefficients k, c stable.
class CompensatedSum {
 public:
  CompensatedSum() = default;

  /// Adds one term.
  void Add(double v) {
    double t = sum_ + v;
    if (std::abs(sum_) >= std::abs(v)) {
      comp_ += (sum_ - t) + v;
    } else {
      comp_ += (v - t) + sum_;
    }
    sum_ = t;
  }

  /// Merges another accumulator (for distributed partials).
  void Merge(const CompensatedSum& other) {
    Add(other.sum_);
    comp_ += other.comp_;
  }

  /// The compensated total.
  double Total() const { return sum_ + comp_; }

  /// Resets to zero.
  void Reset() {
    sum_ = 0.0;
    comp_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Welford's mergeable moments (n, mean, M2): the one add + Chan-merge +
/// variance type. It carries no compensated power sums, so the exact same
/// state crosses the distributed wire — merging decoded partials is
/// bit-identical to merging local ones.
struct WelfordMoments {
  uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations from the mean

  void Add(double v) {
    ++n;
    double delta = v - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (v - mean);
  }

  /// Chan's parallel combination. Merge order must be deterministic (block
  /// order) for bit-identical results.
  void Merge(const WelfordMoments& other) {
    if (other.n == 0) return;
    if (n == 0) {
      *this = other;
      return;
    }
    double na = static_cast<double>(n);
    double nb = static_cast<double>(other.n);
    double delta = other.mean - mean;
    mean += delta * nb / (na + nb);
    m2 += other.m2 + delta * delta * na * nb / (na + nb);
    n += other.n;
  }

  /// Unbiased sample variance; 0 when n < 2.
  double Variance() const {
    if (n < 2) return 0.0;
    double var = m2 / static_cast<double>(n - 1);
    return var < 0.0 ? 0.0 : var;
  }
};

/// The per-region streaming state of Algorithm 1: `paramS` / `paramL` in the
/// paper. Records count, Σa, Σa², Σa³ without storing samples, which makes
/// the scheme insensitive to sampling order (§V-A) and enables the online
/// continuation mode (§VII-A).
class StreamingMoments {
 public:
  StreamingMoments() = default;

  /// Folds one sample into the running sums (updateParams in Algorithm 1).
  void Add(double a) {
    sum_.Add(a);
    sum2_.Add(a * a);
    sum3_.Add(a * a * a);
    // Welford update: keeps Variance() stable even when the data sit on a
    // huge offset (where the power-sum formula cancels catastrophically).
    welford_.Add(a);
  }

  /// Merges moments from another worker/round (online & distributed modes).
  void Merge(const StreamingMoments& other) {
    if (other.count() == 0) return;
    welford_.Merge(other.welford_);
    sum_.Merge(other.sum_);
    sum2_.Merge(other.sum2_);
    sum3_.Merge(other.sum3_);
  }

  /// Clears all state.
  void Reset() {
    welford_ = {};
    sum_.Reset();
    sum2_.Reset();
    sum3_.Reset();
  }

  uint64_t count() const { return welford_.n; }
  double sum() const { return sum_.Total(); }
  double sum_squares() const { return sum2_.Total(); }
  double sum_cubes() const { return sum3_.Total(); }

  /// Sample mean; 0 when empty.
  double Mean() const { return count() == 0 ? 0.0 : sum() / count(); }

  /// Unbiased sample variance via Welford's M2; 0 when count < 2.
  double Variance() const { return welford_.Variance(); }

 private:
  WelfordMoments welford_;  // count, running mean and M2
  CompensatedSum sum_;
  CompensatedSum sum2_;
  CompensatedSum sum3_;
};

}  // namespace stats
}  // namespace isla

#endif  // ISLA_STATS_MOMENTS_H_

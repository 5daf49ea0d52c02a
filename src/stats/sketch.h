#ifndef ISLA_STATS_SKETCH_H_
#define ISLA_STATS_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace isla {
namespace stats {

/// Deterministic mergeable quantile sketch (MRL/KLL family). Values live
/// in per-level buffers where a level-l item represents 2^l input rows;
/// when a level fills to `capacity`, it is sorted and every other element
/// is promoted to the next level (the survivor pass runs through the
/// kernels::compact_stride2 dispatch table). The classic KLL coin flip is
/// replaced by a per-level alternating parity, so the sketch is a pure
/// function of its insertion/merge sequence: per-block sketches merged in
/// block order give bit-identical answers at any parallelism, the
/// invariant the rest of the engine pins against.
///
/// Error contract: Query(q) returns a value whose rank in the inserted
/// multiset is within ±error_weight() rows of q·count(), deterministically
/// (each compaction of a level with item weight w adds at most w). NaNs
/// are dropped on Add — the SQL rule the predicate kernels and
/// stats::Median follow. ±inf and -0.0 rank normally (±0.0 ties broken
/// sign-aware, -0.0 first, so ordering never depends on std::sort
/// internals).
class QuantileSketch {
 public:
  /// Per-level buffer capacity: rank error fraction is roughly
  /// log2(n/capacity)/capacity, so 256 keeps the sketch term near 1-4%
  /// for typical per-group sample counts at ~2 KB/level.
  static constexpr size_t kDefaultCapacity = 256;

  explicit QuantileSketch(size_t capacity = kDefaultCapacity);

  /// Inserts one value; NaN is dropped (does not count toward count()).
  void Add(double v);

  /// Folds `other` into this sketch. Deterministic: the same merge order
  /// always yields the same state. Fails on capacity mismatch.
  Status Merge(const QuantileSketch& other);

  /// Number of non-NaN values inserted (equal to the total item weight).
  uint64_t count() const { return count_; }

  /// Exact extremes of the inserted values; +inf/-inf when empty.
  double min() const { return min_; }
  double max() const { return max_; }

  size_t capacity() const { return capacity_; }

  /// Maximum absolute rank error of Query, in rows.
  uint64_t error_weight() const { return error_weight_; }

  /// error_weight()/count(); 0 when empty.
  double RankErrorFraction() const;

  /// Worst-case RankErrorFraction() of a sketch of `capacity` that has
  /// taken `n` rows under any sequence of Adds and Merges:
  /// (⌊log₂(n/(k−1))⌋ + 1)/(k−1) with k the (clamped) capacity, 0 while
  /// n < k − 1. Each level-l compaction consumes at least (k−1)·2^l weight
  /// and adds 2^l error, and the weight that ever reaches one level is at
  /// most n, so a level adds at most n/(k−1) error, and only levels with
  /// (k−1)·2^l ≤ n compact at all. Pure, so a scan can be sized from it.
  static double RankErrorBound(uint64_t n,
                               size_t capacity = kDefaultCapacity);

  /// Value at quantile q (clamped to [0,1]): the smallest stored value
  /// whose cumulative weight exceeds q·count(). 0 when empty.
  double Query(double q) const;

  /// Equal-width histogram over [min(), max()]: estimated row weight per
  /// bin, summing to count(). A degenerate range (min == max) puts all
  /// mass in bin 0. Empty when bins == 0.
  std::vector<double> Histogram(size_t bins) const;

  // Serialization access (distributed/message.cc frames the state; the
  // parities must travel too or a deserialized merge would diverge from
  // its local equivalent).
  size_t num_levels() const { return levels_.size(); }
  const std::vector<double>& level(size_t l) const { return levels_[l]; }
  uint8_t level_parity(size_t l) const { return parities_[l]; }

  /// Rebuilds a sketch from serialized state, validating shape: capacity
  /// in [2, 65536], every level smaller than capacity, parities 0/1, and
  /// total item weight equal to `count`.
  static Result<QuantileSketch> FromParts(
      size_t capacity, uint64_t count, double min_v, double max_v,
      uint64_t error_weight, std::vector<std::vector<double>> levels,
      std::vector<uint8_t> parities);

 private:
  /// Sorts level l and promotes every other element to level l+1; call
  /// only when levels_[l].size() >= capacity_.
  void CompactLevel(size_t l);

  /// Compacts any over-full level, bottom up.
  void Compress();

  size_t capacity_;
  uint64_t count_ = 0;
  uint64_t error_weight_ = 0;
  double min_;
  double max_;
  std::vector<std::vector<double>> levels_;
  std::vector<uint8_t> parities_;
};

}  // namespace stats
}  // namespace isla

#endif  // ISLA_STATS_SKETCH_H_

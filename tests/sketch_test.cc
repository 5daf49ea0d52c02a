// Unit tests for stats/sketch.h — the deterministic mergeable quantile
// sketch behind MEDIAN/QUANTILE/HISTOGRAM. The load-bearing contracts:
// rank error within the reported bound, merge-in-order ≡ sequential insert
// (bit-identical state, the determinism-for-any-parallelism invariant),
// NaN/±0.0/±inf handling, and FromParts round-trip + validation (the wire
// format depends on it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "stats/sketch.h"
#include "util/rng.h"

namespace isla {
namespace stats {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool BitEqual(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (auto& x : v) x = 1000.0 * rng.NextDouble() - 500.0;
  return v;
}

/// |true_rank(value)/n − q|, with true_rank the count of values < `value`.
double ObservedRankError(const std::vector<double>& sorted, double value,
                         double q) {
  auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
  double rank = static_cast<double>(lo - sorted.begin());
  return std::fabs(rank / static_cast<double>(sorted.size()) - q);
}

TEST(QuantileSketch, EmptySketch) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.error_weight(), 0u);
  EXPECT_DOUBLE_EQ(s.RankErrorFraction(), 0.0);
  EXPECT_DOUBLE_EQ(s.Query(0.5), 0.0);
  EXPECT_TRUE(s.Histogram(4).empty() || s.Histogram(4).size() == 4);
  EXPECT_EQ(s.min(), kInf);
  EXPECT_EQ(s.max(), -kInf);
}

TEST(QuantileSketch, ExactWhileUnderCapacity) {
  QuantileSketch s(64);
  for (int i = 63; i >= 1; --i) s.Add(static_cast<double>(i));
  // 63 values, no compaction yet: every quantile is exact.
  EXPECT_EQ(s.error_weight(), 0u);
  EXPECT_DOUBLE_EQ(s.Query(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Query(0.5), 32.0);
  EXPECT_DOUBLE_EQ(s.Query(1.0), 63.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 63.0);
}

TEST(QuantileSketch, RankErrorWithinReportedBound) {
  const size_t n = 200000;
  std::vector<double> values = RandomValues(n, 2024);
  QuantileSketch s;
  for (double v : values) s.Add(v);
  EXPECT_EQ(s.count(), n);
  EXPECT_GT(s.error_weight(), 0u);
  EXPECT_LT(s.RankErrorFraction(), 0.05) << "default capacity too coarse";

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double err = ObservedRankError(sorted, s.Query(q), q);
    // +1/n slack: the deterministic bound is in rows, the check in ranks.
    EXPECT_LE(err, s.RankErrorFraction() + 1.0 / static_cast<double>(n))
        << "q=" << q;
  }
}

TEST(QuantileSketch, MergeInBlockOrderIsDeterministic) {
  // The engine's invariant: a fixed block decomposition, per-block
  // sketches built in ANY order (that's what parallelism changes), merged
  // in block order, must reach bit-identical state. Build the per-chunk
  // sketches forward and backward and fold both in chunk order.
  const size_t n = 50000;
  std::vector<double> values = RandomValues(n, 7);
  for (size_t chunks : {2, 3, 8, 17}) {
    const size_t per = (n + chunks - 1) / chunks;
    auto build_chunk = [&](size_t c) {
      QuantileSketch part;
      const size_t lo = c * per;
      const size_t hi = std::min(n, lo + per);
      for (size_t i = lo; i < hi; ++i) part.Add(values[i]);
      return part;
    };
    std::vector<QuantileSketch> forward, backward(chunks, QuantileSketch());
    for (size_t c = 0; c < chunks; ++c) forward.push_back(build_chunk(c));
    for (size_t c = chunks; c-- > 0;) backward[c] = build_chunk(c);

    QuantileSketch a, b;
    for (size_t c = 0; c < chunks; ++c) {
      ASSERT_TRUE(a.Merge(forward[c]).ok());
      ASSERT_TRUE(b.Merge(backward[c]).ok());
    }
    ASSERT_EQ(a.count(), n);
    ASSERT_EQ(a.count(), b.count()) << chunks;
    ASSERT_EQ(a.error_weight(), b.error_weight()) << chunks;
    ASSERT_PRED2(BitEqual, a.min(), b.min()) << chunks;
    ASSERT_PRED2(BitEqual, a.max(), b.max()) << chunks;
    ASSERT_EQ(a.num_levels(), b.num_levels()) << chunks;
    for (size_t l = 0; l < a.num_levels(); ++l) {
      ASSERT_EQ(a.level_parity(l), b.level_parity(l)) << chunks;
      ASSERT_EQ(a.level(l).size(), b.level(l).size()) << chunks;
      for (size_t i = 0; i < a.level(l).size(); ++i) {
        ASSERT_PRED2(BitEqual, a.level(l)[i], b.level(l)[i])
            << "chunks=" << chunks << " l=" << l << " i=" << i;
      }
    }
  }
}

TEST(QuantileSketch, MergedSketchStillMeetsErrorBound) {
  const size_t n = 100000;
  std::vector<double> values = RandomValues(n, 13);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (size_t chunks : {4, 32}) {
    QuantileSketch merged;
    const size_t per = (n + chunks - 1) / chunks;
    for (size_t c = 0; c < chunks; ++c) {
      QuantileSketch part;
      const size_t lo = c * per;
      const size_t hi = std::min(n, lo + per);
      for (size_t i = lo; i < hi; ++i) part.Add(values[i]);
      ASSERT_TRUE(merged.Merge(part).ok());
    }
    ASSERT_EQ(merged.count(), n);
    for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
      const double err = ObservedRankError(sorted, merged.Query(q), q);
      EXPECT_LE(err,
                merged.RankErrorFraction() + 1.0 / static_cast<double>(n))
          << "chunks=" << chunks << " q=" << q;
    }
  }
}

TEST(QuantileSketch, MergeRejectsCapacityMismatch) {
  QuantileSketch a(64);
  QuantileSketch b(128);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(QuantileSketch, NanIsDropped) {
  QuantileSketch s;
  s.Add(1.0);
  s.Add(kNan);
  s.Add(3.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(QuantileSketch, InfinitiesRankNormally) {
  QuantileSketch s;
  s.Add(-kInf);
  s.Add(0.0);
  s.Add(kInf);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.Query(0.0), -kInf);
  EXPECT_DOUBLE_EQ(s.Query(0.5), 0.0);
  EXPECT_EQ(s.Query(1.0), kInf);
}

TEST(QuantileSketch, SignedZeroOrderIsDeterministic) {
  // -0.0 < +0.0 by bit-pattern tie-break: insertion order cannot change
  // which zero a quantile returns.
  QuantileSketch a, b;
  a.Add(0.0);
  a.Add(-0.0);
  b.Add(-0.0);
  b.Add(0.0);
  EXPECT_PRED2(BitEqual, a.Query(0.25), b.Query(0.25));
  EXPECT_PRED2(BitEqual, a.Query(0.25), -0.0);
  EXPECT_PRED2(BitEqual, a.Query(1.0), 0.0);
}

TEST(QuantileSketch, HistogramWeightsSumToCount) {
  const size_t n = 30000;
  QuantileSketch s;
  for (double v : RandomValues(n, 99)) s.Add(v);
  for (size_t bins : {1, 2, 7, 64}) {
    std::vector<double> h = s.Histogram(bins);
    ASSERT_EQ(h.size(), bins);
    double total = 0.0;
    for (double w : h) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_DOUBLE_EQ(total, static_cast<double>(s.count())) << bins;
  }
  EXPECT_TRUE(s.Histogram(0).empty());
}

TEST(QuantileSketch, HistogramDegenerateRange) {
  QuantileSketch s;
  for (int i = 0; i < 100; ++i) s.Add(5.0);
  std::vector<double> h = s.Histogram(4);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_DOUBLE_EQ(h[0], 100.0);
  EXPECT_DOUBLE_EQ(h[1] + h[2] + h[3], 0.0);
}

TEST(QuantileSketch, FromPartsRoundTrip) {
  const size_t n = 40000;
  std::vector<double> values = RandomValues(n, 1234);
  QuantileSketch s(128);
  for (double v : values) s.Add(v);

  std::vector<std::vector<double>> levels;
  std::vector<uint8_t> parities;
  for (size_t l = 0; l < s.num_levels(); ++l) {
    levels.push_back(s.level(l));
    parities.push_back(s.level_parity(l));
  }
  Result<QuantileSketch> rt = QuantileSketch::FromParts(
      s.capacity(), s.count(), s.min(), s.max(), s.error_weight(),
      std::move(levels), std::move(parities));
  ASSERT_TRUE(rt.ok()) << rt.status().message();
  EXPECT_EQ(rt->count(), s.count());
  EXPECT_EQ(rt->error_weight(), s.error_weight());
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_PRED2(BitEqual, rt->Query(q), s.Query(q)) << q;
  }

  // A deserialized sketch must keep merging identically to the original —
  // this is what forces the parities onto the wire.
  QuantileSketch more_a = std::move(rt).value();
  QuantileSketch more_b = s;
  QuantileSketch extra(128);
  for (double v : RandomValues(10000, 4321)) extra.Add(v);
  ASSERT_TRUE(more_a.Merge(extra).ok());
  ASSERT_TRUE(more_b.Merge(extra).ok());
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_PRED2(BitEqual, more_a.Query(q), more_b.Query(q)) << q;
  }
}

TEST(QuantileSketch, FromPartsValidation) {
  // Bad capacity.
  EXPECT_FALSE(QuantileSketch::FromParts(1, 0, kInf, -kInf, 0, {}, {}).ok());
  EXPECT_FALSE(
      QuantileSketch::FromParts(1 << 20, 0, kInf, -kInf, 0, {}, {}).ok());
  // Parity without a matching level (and vice versa).
  EXPECT_FALSE(
      QuantileSketch::FromParts(64, 0, kInf, -kInf, 0, {}, {1}).ok());
  // Level at/over capacity.
  EXPECT_FALSE(QuantileSketch::FromParts(2, 2, 1.0, 2.0, 0, {{1.0, 2.0}},
                                         {0})
                   .ok());
  // Non-boolean parity.
  EXPECT_FALSE(
      QuantileSketch::FromParts(64, 1, 1.0, 1.0, 0, {{1.0}}, {2}).ok());
  // NaN stored in a level.
  EXPECT_FALSE(
      QuantileSketch::FromParts(64, 1, 1.0, 1.0, 0, {{kNan}}, {0}).ok());
  // Total weight disagrees with count.
  EXPECT_FALSE(
      QuantileSketch::FromParts(64, 5, 1.0, 1.0, 0, {{1.0}}, {0}).ok());
  // A well-formed single-value sketch passes.
  EXPECT_TRUE(
      QuantileSketch::FromParts(64, 1, 1.0, 1.0, 0, {{1.0}}, {0}).ok());
}

TEST(QuantileSketch, ErrorGrowsSlowly) {
  // The bound should stay logarithmic-ish in n: 10× the data must not 10×
  // the error fraction.
  QuantileSketch small_s, large_s;
  for (double v : RandomValues(20000, 5)) small_s.Add(v);
  for (double v : RandomValues(200000, 5)) large_s.Add(v);
  EXPECT_LT(large_s.RankErrorFraction(),
            4.0 * small_s.RankErrorFraction() + 1e-9);
}

TEST(QuantileSketch, RankErrorBoundHoldsForRandomInsertMergeTrees) {
  // The static bound the scan planner sizes from must hold for every
  // history: uneven blocks (some empty) merged pairwise in random order,
  // over data mixing ±0.0 and ±inf into finite values. Checked as
  // RankErrorFraction() ≤ RankErrorBound(count()), the same inequality as
  // error_weight() ≤ count()·RankErrorBound(count()) without a rounded
  // product.
  auto expect_within_bound = [](const QuantileSketch& s, size_t capacity) {
    EXPECT_LE(s.RankErrorFraction(),
              QuantileSketch::RankErrorBound(s.count(), capacity))
        << "capacity " << capacity << ": error_weight " << s.error_weight()
        << " over count " << s.count();
  };
  for (size_t capacity : {size_t{2}, size_t{64}, size_t{256}}) {
    for (uint64_t trial = 0; trial < 20; ++trial) {
      Xoshiro256 rng(SplitMix64::Hash(capacity, trial));
      std::vector<QuantileSketch> pool;
      const uint64_t blocks = 1 + rng.NextBounded(12);
      for (uint64_t b = 0; b < blocks; ++b) {
        QuantileSketch s(capacity);
        const uint64_t rows = rng.NextBounded(uint64_t{1}
                                              << rng.NextBounded(17));
        for (uint64_t i = 0; i < rows; ++i) {
          switch (rng.NextBounded(16)) {
            case 0:
              s.Add(0.0);
              break;
            case 1:
              s.Add(-0.0);
              break;
            case 2:
              s.Add(kInf);
              break;
            case 3:
              s.Add(-kInf);
              break;
            default:
              s.Add(1000.0 * rng.NextDouble() - 500.0);
          }
        }
        expect_within_bound(s, capacity);
        pool.push_back(std::move(s));
      }
      while (pool.size() > 1) {
        const size_t a = rng.NextBounded(pool.size());
        size_t b = rng.NextBounded(pool.size() - 1);
        if (b >= a) ++b;
        ASSERT_TRUE(pool[a].Merge(pool[b]).ok());
        expect_within_bound(pool[a], capacity);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(b));
      }
    }
  }
  // The closed form at the default capacity: levels 0..2 compact by 1262
  // rows ((k−1)·2² = 1020 ≤ 1262 < 2040), none below k − 1.
  EXPECT_EQ(QuantileSketch::RankErrorBound(0), 0.0);
  EXPECT_EQ(QuantileSketch::RankErrorBound(254), 0.0);
  EXPECT_DOUBLE_EQ(QuantileSketch::RankErrorBound(255), 1.0 / 255.0);
  EXPECT_DOUBLE_EQ(QuantileSketch::RankErrorBound(1262), 3.0 / 255.0);
}

}  // namespace
}  // namespace stats
}  // namespace isla

// Unit tests for stats/moments.h: compensated summation and the streaming
// power sums of Algorithm 1.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/moments.h"
#include "util/rng.h"

namespace isla {
namespace stats {
namespace {

TEST(CompensatedSum, SimpleTotal) {
  CompensatedSum s;
  s.Add(1.0);
  s.Add(2.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.Total(), 6.0);
}

TEST(CompensatedSum, RecoversCatastrophicCancellation) {
  // 1 + 1e100 - 1e100 must still be 1; naive summation returns 0.
  CompensatedSum s;
  s.Add(1.0);
  s.Add(1e100);
  s.Add(-1e100);
  EXPECT_DOUBLE_EQ(s.Total(), 1.0);
}

TEST(CompensatedSum, TinyIncrementsOnHugeBase) {
  CompensatedSum s;
  s.Add(1e16);
  for (int i = 0; i < 1000; ++i) s.Add(0.1);
  EXPECT_NEAR(s.Total() - 1e16, 100.0, 1e-6);
}

TEST(CompensatedSum, MergeEqualsSequential) {
  CompensatedSum a, b, all;
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble() * 1e8 - 5e7;
    (i % 2 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_NEAR(a.Total(), all.Total(), std::abs(all.Total()) * 1e-14 + 1e-9);
}

TEST(CompensatedSum, ResetClears) {
  CompensatedSum s;
  s.Add(5.0);
  s.Reset();
  EXPECT_DOUBLE_EQ(s.Total(), 0.0);
}

TEST(StreamingMoments, EmptyState) {
  StreamingMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.Variance(), 0.0);
}

TEST(StreamingMoments, PowerSumsMatchDefinition) {
  StreamingMoments m;
  for (double v : {2.0, 3.0, 5.0}) m.Add(v);
  EXPECT_EQ(m.count(), 3u);
  EXPECT_DOUBLE_EQ(m.sum(), 10.0);
  EXPECT_DOUBLE_EQ(m.sum_squares(), 4.0 + 9.0 + 25.0);
  EXPECT_DOUBLE_EQ(m.sum_cubes(), 8.0 + 27.0 + 125.0);
}

TEST(StreamingMoments, MeanAndVariance) {
  StreamingMoments m;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) m.Add(v);
  EXPECT_DOUBLE_EQ(m.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(m.Variance(), 2.5);  // Unbiased.
}

TEST(StreamingMoments, SingleValueHasZeroVariance) {
  StreamingMoments m;
  m.Add(7.0);
  EXPECT_DOUBLE_EQ(m.Variance(), 0.0);
}

TEST(StreamingMoments, VarianceNeverNegative) {
  // Identical values on a huge offset: the naive power-sum formula cancels
  // catastrophically here; Welford must return ~0.
  StreamingMoments m;
  for (int i = 0; i < 1000; ++i) m.Add(1e9 + 1e-3);
  EXPECT_GE(m.Variance(), 0.0);
  EXPECT_NEAR(m.Variance(), 0.0, 1e-6);
}

TEST(StreamingMoments, VarianceStableOnHugeOffset) {
  // Small spread on a huge offset: Welford recovers the true variance.
  StreamingMoments m;
  for (int i = 0; i < 1000; ++i) m.Add(1e9 + (i % 2));
  EXPECT_NEAR(m.Variance(), 0.25, 0.01);
}

TEST(StreamingMoments, MergeIsOrderInsensitive) {
  // The paper's claim (§V-A): the objective's inputs are order-insensitive.
  StreamingMoments forward, backward;
  std::vector<double> values;
  Xoshiro256 rng(2);
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextDouble() * 100);
  for (double v : values) forward.Add(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.Add(*it);
  }
  EXPECT_NEAR(forward.sum(), backward.sum(), 1e-9);
  EXPECT_NEAR(forward.sum_squares(), backward.sum_squares(), 1e-6);
  EXPECT_NEAR(forward.sum_cubes(), backward.sum_cubes(), 1e-3);
}

TEST(StreamingMoments, MergeMatchesSingleStream) {
  StreamingMoments a, b, all;
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble() * 50 + 75;
    (i < 400 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.sum(), all.sum(), 1e-8);
  EXPECT_NEAR(a.sum_squares(), all.sum_squares(), 1e-4);
  EXPECT_NEAR(a.sum_cubes(), all.sum_cubes(), 1e-1);
}

TEST(StreamingMoments, ResetClearsEverything) {
  StreamingMoments m;
  m.Add(4.0);
  m.Reset();
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.sum(), 0.0);
  EXPECT_DOUBLE_EQ(m.sum_cubes(), 0.0);
}

TEST(StreamingMoments, LargeStreamPrecision) {
  // Σa over 700k values near 100 (cycle length divides n, so the exact
  // mean is 100.003): compensation keeps ~1e-12 error; naive accumulation
  // would drift well past that.
  StreamingMoments m;
  const int n = 700000;
  for (int i = 0; i < n; ++i) m.Add(100.0 + (i % 7) * 1e-3);
  double mean_expected = 100.0 + 3e-3;
  EXPECT_NEAR(m.Mean(), mean_expected, 1e-9);
}

TEST(WelfordMoments, StreamingMomentsVarianceIsTheWelfordState) {
  // StreamingMoments keeps its (n, mean, M2) in a WelfordMoments, so across
  // adds and a Chan merge (including one into an empty state) its variance
  // is bit-identical to the plain type's.
  StreamingMoments sa, sb, s_empty;
  WelfordMoments wa, wb, w_empty;
  Xoshiro256 rng(4);
  for (int i = 0; i < 700; ++i) {
    double v = rng.NextDouble() * 30 - 10;
    if (i % 3 == 0) {
      sa.Add(v);
      wa.Add(v);
    } else {
      sb.Add(v);
      wb.Add(v);
    }
  }
  sa.Merge(sb);
  wa.Merge(wb);
  s_empty.Merge(sa);
  w_empty.Merge(wa);
  EXPECT_EQ(sa.count(), wa.n);
  EXPECT_EQ(sa.Variance(), wa.Variance());
  EXPECT_EQ(s_empty.count(), w_empty.n);
  EXPECT_EQ(s_empty.Variance(), w_empty.Variance());
  EXPECT_EQ(s_empty.Variance(), sa.Variance());
}

}  // namespace
}  // namespace stats
}  // namespace isla

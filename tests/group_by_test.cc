// Unit tests for core/group_by.h — the predicated GROUP BY engine: reduced
// moment merging, predicate semantics, multi-column gather alignment,
// estimator correctness, and the bit-identical-for-any-parallelism
// invariant.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "core/group_by.h"
#include "storage/block.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(EvalPredicate, TruthTable) {
  EXPECT_TRUE(EvalPredicate(PredicateOp::kEq, 3.0, 3.0));
  EXPECT_FALSE(EvalPredicate(PredicateOp::kEq, 3.0, 4.0));
  EXPECT_TRUE(EvalPredicate(PredicateOp::kNe, 3.0, 4.0));
  EXPECT_FALSE(EvalPredicate(PredicateOp::kNe, 3.0, 3.0));
  EXPECT_TRUE(EvalPredicate(PredicateOp::kLt, 2.0, 3.0));
  EXPECT_FALSE(EvalPredicate(PredicateOp::kLt, 3.0, 3.0));
  EXPECT_TRUE(EvalPredicate(PredicateOp::kLe, 3.0, 3.0));
  EXPECT_TRUE(EvalPredicate(PredicateOp::kGt, 4.0, 3.0));
  EXPECT_FALSE(EvalPredicate(PredicateOp::kGt, 3.0, 3.0));
  EXPECT_TRUE(EvalPredicate(PredicateOp::kGe, 3.0, 3.0));
}

TEST(EvalPredicate, NanIsNeverTrue) {
  for (PredicateOp op : {PredicateOp::kEq, PredicateOp::kNe, PredicateOp::kLt,
                         PredicateOp::kLe, PredicateOp::kGt,
                         PredicateOp::kGe}) {
    EXPECT_FALSE(EvalPredicate(op, kNaN, 1.0));
    EXPECT_FALSE(EvalPredicate(op, 1.0, kNaN));
  }
}

TEST(EvalPredicateMask, MatchesScalarEvaluatorOnNanData) {
  // The branchless mask and the scalar evaluator are two implementations
  // of the same SQL semantics; sweep all operators over a vector mixing
  // NaN, infinities, signed zeros and ordinary values, against NaN and
  // ordinary literals.
  const std::vector<double> lhs = {
      kNaN, 1.0,  -1.0, 0.0,  -0.0, 3.5, kNaN,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 3.5};
  const double literals[] = {3.5, 0.0, kNaN,
                             std::numeric_limits<double>::infinity()};
  std::vector<uint8_t> mask(lhs.size());
  for (PredicateOp op : {PredicateOp::kEq, PredicateOp::kNe, PredicateOp::kLt,
                         PredicateOp::kLe, PredicateOp::kGt,
                         PredicateOp::kGe}) {
    for (double lit : literals) {
      EvalPredicateMask(op, lhs, lit, mask.data());
      for (size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(mask[i] != 0, EvalPredicate(op, lhs[i], lit))
            << PredicateOpName(op) << " lhs[" << i << "]=" << lhs[i]
            << " lit=" << lit;
      }
    }
  }
}

TEST(RouteGroupedBatch, AgreesWithScalarRouterOnNanData) {
  // Same rows through the mask/batch router and the scalar row router —
  // group contents must match exactly, including NaN-pred and NaN-key
  // drops (values stay finite so moment equality is checkable with ==).
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<double> preds = {0.5, kNaN, 2.0, 2.0, -1.0, 3.0};
  const std::vector<double> keys = {0.0, 1.0, 0.0, kNaN, 1.0, 0.0};
  const double literal = 1.0;
  const PredicateOp op = PredicateOp::kGe;

  GroupMoments scalar_all;
  GroupMap scalar_groups;
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(RouteGroupedRow(&preds[i], op, literal, &keys[i], values[i],
                                &scalar_all, &scalar_groups)
                    .ok());
  }

  std::vector<uint8_t> mask(values.size());
  EvalPredicateMask(op, preds, literal, mask.data());
  GroupMoments batch_all;
  GroupMap batch_groups;
  ASSERT_TRUE(RouteGroupedBatch(values, mask.data(), keys.data(), &batch_all,
                                &batch_groups)
                  .ok());

  EXPECT_EQ(batch_all.n, scalar_all.n);
  EXPECT_EQ(batch_all.mean, scalar_all.mean);
  EXPECT_EQ(batch_all.m2, scalar_all.m2);
  ASSERT_EQ(batch_groups.size(), scalar_groups.size());
  for (const auto& [key, moments] : scalar_groups) {
    auto it = batch_groups.find(key);
    ASSERT_NE(it, batch_groups.end()) << key;
    EXPECT_EQ(it->second.n, moments.n);
    EXPECT_EQ(it->second.mean, moments.mean);
    EXPECT_EQ(it->second.m2, moments.m2);
  }

  // Null mask means "no predicate"; null keys mean the implicit group.
  GroupMap all_rows;
  ASSERT_TRUE(
      RouteGroupedBatch(values, nullptr, nullptr, nullptr, &all_rows).ok());
  ASSERT_EQ(all_rows.size(), 1u);
  EXPECT_EQ(all_rows.begin()->second.n, values.size());
}

TEST(GroupMoments, MatchesDirectComputation) {
  GroupMoments m;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) m.Add(v);
  EXPECT_EQ(m.n, 5u);
  EXPECT_DOUBLE_EQ(m.mean, 3.0);
  EXPECT_DOUBLE_EQ(m.Variance(), 2.5);
}

TEST(GroupMoments, MergeEqualsSequentialAdd) {
  GroupMoments left, right, all;
  for (double v : {1.0, 7.0, 2.0}) {
    left.Add(v);
    all.Add(v);
  }
  for (double v : {9.0, 4.0}) {
    right.Add(v);
    all.Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.n, all.n);
  EXPECT_NEAR(left.mean, all.mean, 1e-12);
  EXPECT_NEAR(left.m2, all.m2, 1e-10);
}

TEST(GroupMoments, MergeIntoEmptyIsBitExactCopy) {
  GroupMoments src;
  for (double v : {0.1, 0.2, 0.7}) src.Add(v);
  GroupMoments dst;
  dst.Merge(src);
  EXPECT_EQ(dst.n, src.n);
  EXPECT_EQ(dst.mean, src.mean);
  EXPECT_EQ(dst.m2, src.m2);
}

storage::BlockPtr Mem(std::vector<double> values) {
  return std::make_shared<storage::MemoryBlock>(std::move(values));
}

TEST(GatherRowsAt, ResolvesAllColumnsAtTheSamePositions) {
  auto values = Mem({10, 11, 12, 13});
  auto keys = Mem({0, 1, 0, 1});
  const storage::Block* cols[] = {values.get(), nullptr, keys.get()};
  std::vector<uint64_t> indices = {3, 0, 3};
  std::vector<std::vector<double>> out;
  ASSERT_TRUE(storage::GatherRowsAt(cols, indices, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (std::vector<double>{13, 10, 13}));
  EXPECT_TRUE(out[1].empty());  // null column slot stays empty
  EXPECT_EQ(out[2], (std::vector<double>{1, 0, 1}));
}

TEST(GatherRowsAt, RejectsMisalignedBlocks) {
  auto a = Mem({1, 2, 3});
  auto b = Mem({1, 2});
  const storage::Block* cols[] = {a.get(), b.get()};
  std::vector<uint64_t> indices = {0};
  std::vector<std::vector<double>> out;
  EXPECT_TRUE(storage::GatherRowsAt(cols, indices, &out)
                  .IsFailedPrecondition());
}

/// Builds three row-aligned columns over `blocks` MemoryBlocks:
///   value[i] = base mean of its group + noise, key in {0..keys-1},
///   pred[i] = i-th value of a deterministic ramp used for filtering.
struct AlignedData {
  storage::Column values{"v"};
  storage::Column preds{"p"};
  storage::Column keys{"k"};
  std::map<double, std::pair<double, uint64_t>> exact;  // key -> (sum, count)
};

std::unique_ptr<AlignedData> MakeAligned(uint64_t rows, uint64_t blocks,
                                         uint64_t key_count, uint64_t seed) {
  auto data = std::make_unique<AlignedData>();
  Xoshiro256 rng(seed);
  uint64_t per_block = rows / blocks;
  for (uint64_t b = 0; b < blocks; ++b) {
    std::vector<double> vals, preds, keys;
    for (uint64_t i = 0; i < per_block; ++i) {
      double key = static_cast<double>(rng.NextBounded(key_count));
      // Group g is centred at 10·(g+1); noise keeps σ_g > 0.
      double value = 10.0 * (key + 1.0) + (rng.NextDouble() - 0.5);
      double pred = rng.NextDouble();
      vals.push_back(value);
      preds.push_back(pred);
      keys.push_back(key);
      if (pred >= 0.25) {
        auto& [sum, count] = data->exact[key];
        sum += value;
        ++count;
      }
    }
    EXPECT_TRUE(data->values.AppendBlock(Mem(std::move(vals))).ok());
    EXPECT_TRUE(data->preds.AppendBlock(Mem(std::move(preds))).ok());
    EXPECT_TRUE(data->keys.AppendBlock(Mem(std::move(keys))).ok());
  }
  return data;
}

GroupedSpec SpecOf(const AlignedData& data) {
  GroupedSpec spec;
  spec.values = &data.values;
  spec.predicate = &data.preds;
  spec.op = PredicateOp::kGe;
  spec.literal = 0.25;
  spec.keys = &data.keys;
  return spec;
}

TEST(ValidateGroupedSpec, RejectsMisalignedColumns) {
  auto data = MakeAligned(4000, 4, 3, 1);
  storage::Column short_keys{"k2"};
  ASSERT_TRUE(short_keys.AppendBlock(Mem({0, 1})).ok());
  GroupedSpec spec = SpecOf(*data);
  spec.keys = &short_keys;
  EXPECT_TRUE(ValidateGroupedSpec(spec).IsFailedPrecondition());
}

TEST(GroupByEngine, EstimatesEveryGroupWithinContract) {
  auto data = MakeAligned(120'000, 4, 4, 7);
  IslaOptions options;
  options.precision = 0.02;  // group σ ≈ 0.29 → m_g ≈ 800 matching samples
  GroupByEngine engine(options);
  auto r = engine.Aggregate(SpecOf(*data));
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->groups.size(), 4u);
  EXPECT_EQ(r->data_size, 120'000u);
  for (const GroupResult& g : r->groups) {
    const auto& [sum, count] = data->exact.at(g.key);
    double exact_avg = sum / static_cast<double>(count);
    // 2× the contract half-widths gives comfortable non-flaky margins while
    // still binding the estimates to their reported CIs.
    EXPECT_NEAR(g.average, exact_avg, 2.0 * options.precision)
        << "key " << g.key;
    EXPECT_GT(g.count_ci_half_width, 0.0);
    EXPECT_NEAR(g.count_estimate, static_cast<double>(count),
                2.0 * g.count_ci_half_width)
        << "key " << g.key;
    EXPECT_GT(g.samples, 0u);
    EXPECT_GT(g.ci_half_width, 0.0);
    EXPECT_DOUBLE_EQ(g.sum, g.average * g.count_estimate);
  }
}

TEST(GroupByEngine, NoPredicateNoGroupIsOneExactCountGroup) {
  auto data = MakeAligned(50'000, 5, 3, 9);
  GroupedSpec spec;
  spec.values = &data->values;
  IslaOptions options;
  options.precision = 0.1;
  GroupByEngine engine(options);
  auto r = engine.Aggregate(spec);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->groups.size(), 1u);
  // Without a predicate every scanned row matches: the cardinality
  // "estimate" is exactly M.
  EXPECT_DOUBLE_EQ(r->groups[0].count_estimate, 50'000.0);
}

TEST(GroupByEngine, ImpossiblePredicateYieldsNoGroups) {
  auto data = MakeAligned(20'000, 4, 3, 11);
  GroupedSpec spec = SpecOf(*data);
  spec.literal = 2.0;  // preds are in [0, 1)
  GroupByEngine engine(IslaOptions{});
  auto r = engine.Aggregate(spec);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->groups.empty());
}

TEST(GroupByEngine, BitIdenticalAcrossParallelism) {
  auto data = MakeAligned(100'000, 8, 5, 13);
  IslaOptions base;
  base.precision = 0.1;
  std::vector<GroupedAggregateResult> results;
  for (uint32_t parallelism : {1u, 2u, 8u}) {
    IslaOptions options = base;
    options.parallelism = parallelism;
    GroupByEngine engine(options);
    auto r = engine.Aggregate(SpecOf(*data));
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*std::move(r));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].groups.size(), results[0].groups.size());
    EXPECT_EQ(results[i].scanned_samples, results[0].scanned_samples);
    for (size_t g = 0; g < results[0].groups.size(); ++g) {
      // Bit-identical, not just close.
      EXPECT_EQ(results[i].groups[g].key, results[0].groups[g].key);
      EXPECT_EQ(results[i].groups[g].average, results[0].groups[g].average);
      EXPECT_EQ(results[i].groups[g].sum, results[0].groups[g].sum);
      EXPECT_EQ(results[i].groups[g].count_estimate,
                results[0].groups[g].count_estimate);
      EXPECT_EQ(results[i].groups[g].ci_half_width,
                results[0].groups[g].ci_half_width);
      EXPECT_EQ(results[i].groups[g].samples, results[0].groups[g].samples);
    }
  }
}

TEST(GroupByEngine, SketchResultsBitIdenticalAcrossParallelism) {
  // The quantile surface rides the same fixed-block-decomposition
  // invariant as the moments: per-block sketches merge in block order no
  // matter which thread built them, so every derived field must be
  // bit-identical at any parallelism.
  auto data = MakeAligned(100'000, 8, 5, 13);
  std::vector<GroupedAggregateResult> results;
  for (uint32_t parallelism : {1u, 3u, 8u}) {
    IslaOptions options;
    options.precision = 0.1;
    options.parallelism = parallelism;
    GroupedSpec spec = SpecOf(*data);
    spec.want_sketch = true;
    spec.summary.quantile_q = 0.9;
    spec.summary.histogram_bins = 8;
    GroupByEngine engine(options);
    auto r = engine.Aggregate(spec);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*std::move(r));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].groups.size(), results[0].groups.size());
    for (size_t g = 0; g < results[0].groups.size(); ++g) {
      const GroupResult& a = results[0].groups[g];
      const GroupResult& b = results[i].groups[g];
      EXPECT_EQ(b.key, a.key);
      EXPECT_EQ(b.quantile_value, a.quantile_value);
      EXPECT_EQ(b.rank_error, a.rank_error);
      EXPECT_EQ(b.quantile_lo, a.quantile_lo);
      EXPECT_EQ(b.quantile_hi, a.quantile_hi);
      EXPECT_EQ(b.sketch_samples, a.sketch_samples);
      EXPECT_EQ(b.histogram, a.histogram);
      EXPECT_EQ(b.histogram_lo, a.histogram_lo);
      EXPECT_EQ(b.histogram_hi, a.histogram_hi);
    }
  }
  // And the sketch surface is actually populated: quantile near the
  // heaviest group centres, bands ordered, histogram mass positive.
  for (const GroupResult& g : results[0].groups) {
    EXPECT_GT(g.sketch_samples, 0u);
    EXPECT_GT(g.rank_error, 0.0);
    EXPECT_LE(g.quantile_lo, g.quantile_value);
    EXPECT_LE(g.quantile_value, g.quantile_hi);
    ASSERT_EQ(g.histogram.size(), 8u);
    double mass = 0.0;
    for (double b : g.histogram) mass += b;
    EXPECT_NEAR(mass, g.count_estimate, 1e-6 * (1.0 + g.count_estimate));
  }
}

TEST(ApplyTopK, KeepsLargestGroupsAndRecordsTotal) {
  GroupedAggregateResult r;
  for (int i = 0; i < 5; ++i) {
    GroupResult g;
    g.key = static_cast<double>(i);
    g.count_estimate = (i == 2) ? 90.0 : 10.0 * (i + 1);
    r.groups.push_back(g);
  }
  ApplyTopK(2, &r);
  EXPECT_EQ(r.total_groups, 5u);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.groups[0].key, 2.0);  // count 90
  EXPECT_EQ(r.groups[1].key, 4.0);  // count 50
}

TEST(ApplyTopK, TieBreaksOnSmallerKey) {
  GroupedAggregateResult r;
  for (double key : {3.0, 1.0, 2.0}) {
    GroupResult g;
    g.key = key;
    g.count_estimate = 7.0;
    r.groups.push_back(g);
  }
  ApplyTopK(2, &r);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.groups[0].key, 1.0);
  EXPECT_EQ(r.groups[1].key, 2.0);
  EXPECT_EQ(r.total_groups, 3u);
}

TEST(ApplyTopK, ZeroOrOversizedKIsANoOp) {
  GroupedAggregateResult r;
  GroupResult g;
  g.key = 1.0;
  g.count_estimate = 5.0;
  r.groups.push_back(g);
  ApplyTopK(0, &r);
  EXPECT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.total_groups, 1u);
  ApplyTopK(10, &r);
  EXPECT_EQ(r.groups.size(), 1u);
}

TEST(GroupByEngine, SeedSaltDecorrelatesRuns) {
  auto data = MakeAligned(50'000, 4, 3, 17);
  IslaOptions options;
  options.precision = 0.1;
  GroupByEngine engine(options);
  auto a = engine.Aggregate(SpecOf(*data), /*seed_salt=*/1);
  auto b = engine.Aggregate(SpecOf(*data), /*seed_salt=*/2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_FALSE(a->groups.empty());
  EXPECT_NE(a->groups[0].average, b->groups[0].average);
}

TEST(RunGroupedBlockPass, NanKeysAreDropped) {
  auto values = Mem({1, 2, 3, 4});
  auto keys = Mem({0, kNaN, 0, kNaN});
  Xoshiro256 rng(1);
  GroupedBlockPartial out;
  ASSERT_TRUE(RunGroupedBlockPass(*values, nullptr, PredicateOp::kGe, 0.0,
                                  keys.get(), 1000, &rng, &out)
                  .ok());
  ASSERT_EQ(out.groups.size(), 1u);
  EXPECT_EQ(out.groups.begin()->first, 0.0);
  // Roughly half the draws land on NaN keys and are dropped.
  EXPECT_LT(out.all.n, 1000u);
  EXPECT_GT(out.all.n, 300u);
}

TEST(RunGroupedBlockPass, GroupExplosionIsRejected) {
  std::vector<double> keys(2 * kMaxGroups);
  std::vector<double> vals(2 * kMaxGroups);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<double>(i);
    vals[i] = 1.0;
  }
  auto value_block = Mem(std::move(vals));
  auto key_block = Mem(std::move(keys));
  Xoshiro256 rng(3);
  GroupedBlockPartial out;
  Status s =
      RunGroupedBlockPass(*value_block, nullptr, PredicateOp::kGe, 0.0,
                          key_block.get(), 8 * kMaxGroups, &rng, &out);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
}

TEST(PlanGroupedScan, SizesForTheWeakestGroup) {
  GroupedPilot pilot;
  pilot.pilot_samples = 1000;
  // Group 0: common and noisy. Group 1: rare and quiet.
  for (int i = 0; i < 900; ++i) {
    pilot.groups[0.0].Add(i % 2 == 0 ? 90.0 : 110.0);
  }
  for (int i = 0; i < 100; ++i) {
    pilot.groups[1.0].Add(50.0 + 0.01 * (i % 2));
  }
  pilot.all = pilot.groups[0.0];
  pilot.all.Merge(pilot.groups[1.0]);
  IslaOptions options;
  options.precision = 1.0;
  auto scan = PlanGroupedScan(pilot, options, 100'000'000);
  ASSERT_TRUE(scan.ok());
  // Group 0 needs u²σ²/e² ≈ 385 matching samples at selectivity 0.9 → ~428
  // scans; the plan must be at least that and far below M.
  EXPECT_GE(*scan, 400u);
  EXPECT_LT(*scan, 1'000'000u);
}

TEST(PlanGroupedScan, ZeroMatchPilotPlansFallbackScan) {
  // A pilot that matched nothing only bounds selectivity by ~1/pilot; the
  // plan must probe deeper (100x the pilot, clamped to M) instead of
  // silently reporting the predicate as empty.
  GroupedPilot pilot;
  pilot.pilot_samples = 500;  // scanned, but nothing matched
  auto scan = PlanGroupedScan(pilot, IslaOptions{}, 1'000'000);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(*scan, 50'000u);
  auto clamped = PlanGroupedScan(pilot, IslaOptions{}, 1000);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(*clamped, 1000u);  // never past M
}

TEST(PlanGroupedScan, UnscannedPilotPlansNothing) {
  GroupedPilot pilot;  // no pilot ran at all
  auto scan = PlanGroupedScan(pilot, IslaOptions{}, 1000);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(*scan, 0u);
}

TEST(GroupByEngine, RarePredicateSurvivesEmptyPilot) {
  // 20 matching rows in 200k (selectivity 1e-4): the 1000-row pilot will
  // usually match nothing, but the fallback scan must still find the group
  // with high probability instead of returning an empty result.
  std::vector<double> vals(200'000, 1.0), preds(200'000, 0.0);
  for (int i = 0; i < 20; ++i) preds[i * 10'000 + 17] = 1.0;
  storage::Column values{"v"}, predicates{"p"};
  ASSERT_TRUE(values.AppendBlock(Mem(std::move(vals))).ok());
  ASSERT_TRUE(predicates.AppendBlock(Mem(std::move(preds))).ok());
  GroupedSpec spec;
  spec.values = &values;
  spec.predicate = &predicates;
  spec.op = PredicateOp::kGe;
  spec.literal = 1.0;
  GroupByEngine engine(IslaOptions{});
  int found = 0;
  for (uint64_t salt = 0; salt < 10; ++salt) {
    auto r = engine.Aggregate(spec, salt);
    ASSERT_TRUE(r.ok()) << r.status();
    if (!r->groups.empty()) ++found;
  }
  // 100k-row fallback scans hit a 1e-4-selectivity predicate w.p. ~1-e^-10
  // each; all ten missing would mean the fallback never ran.
  EXPECT_GE(found, 5);
}

/// A pilot of `n` rows that all match and fall in one group, valued
/// scale·(i mod 7) so σ̂ grows with `scale`.
GroupedPilot UniformPilot(uint64_t n, double scale) {
  GroupedPilot pilot;
  pilot.pilot_samples = n;
  for (uint64_t i = 0; i < n; ++i) {
    pilot.groups[0.0].Add(scale * static_cast<double>(i % 7));
  }
  pilot.all = pilot.groups[0.0];
  return pilot;
}

TEST(PlanGroupedScan, SketchPlanDoesNotDependOnSigma) {
  // A rank contract has no value scale: multiplying every pilot value by
  // 1000 moves σ̂ 1000× but must leave the sketch plan where it was.
  IslaOptions options;
  options.precision = 0.05;
  for (uint64_t data_size : {uint64_t{5000}, uint64_t{100'000'000}}) {
    auto narrow = PlanGroupedScan(UniformPilot(1000, 1.0), options, data_size,
                                  /*want_sketch=*/true);
    auto wide = PlanGroupedScan(UniformPilot(1000, 1000.0), options,
                                data_size, /*want_sketch=*/true);
    ASSERT_TRUE(narrow.ok() && wide.ok());
    EXPECT_EQ(*narrow, *wide) << "data size " << data_size;
  }
}

TEST(PlanGroupedScan, SketchPlanIsSizedByTheRankBand) {
  // At e = 0.05, β = 0.95 and selectivity 1, DKW alone needs 738 rows and
  // the sketch bound adds 3/255 at 1262: the plan must stay in that range,
  // far below the AVG plan of a σ = 20 column (~615k rows).
  IslaOptions options;
  options.precision = 0.05;
  options.confidence = 0.95;
  auto plan = PlanGroupedScan(UniformPilot(1000, 20.0), options,
                              100'000'000, /*want_sketch=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(*plan, 738u);
  EXPECT_LE(*plan, 1300u);

  // An ungrouped, unfiltered MEDIAN run scans exactly that plan and
  // reports a rank band inside the requested e.
  auto data = MakeAligned(200'000, 4, 1, 11);
  GroupedSpec spec;
  spec.values = &data->values;
  spec.want_sketch = true;
  spec.summary.quantile_q = 0.5;
  GroupByEngine engine(options);
  auto r = engine.Aggregate(spec);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->scanned_samples, *plan);
  ASSERT_EQ(r->groups.size(), 1u);
  EXPECT_EQ(r->groups[0].sketch_samples, *plan);
  EXPECT_GT(r->groups[0].rank_error, 0.0);
  EXPECT_LE(r->groups[0].rank_error, options.precision);
  EXPECT_TRUE(r->groups[0].meets_precision);
}

}  // namespace
}  // namespace core
}  // namespace isla

// Unit coverage of engine::ScanScheduler: single-flight dedup of concurrent
// identical queries, pilot/result cache behavior, content-fingerprint
// keying (including the cross-table generator-block positive case), and the
// stats counters the query server surfaces through SHOW STATS.
// Bit-identity against the standalone engine is pinned at scale by
// differential_test; here the focus is the scheduler's own mechanics.

#include "engine/scan_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/group_by.h"
#include "core/options.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace engine {
namespace {

core::IslaOptions TestOptions() {
  core::IslaOptions options;
  options.precision = 0.3;
  options.parallelism = 1;
  return options;
}

std::unique_ptr<storage::Column> MemoryColumn(uint64_t seed) {
  auto col = std::make_unique<storage::Column>("v");
  Xoshiro256 rng(seed);
  for (int b = 0; b < 3; ++b) {
    std::vector<double> vals(10'000);
    for (auto& v : vals) v = 50.0 + 25.0 * rng.NextDouble();
    EXPECT_TRUE(
        col->AppendBlock(
               std::make_shared<storage::MemoryBlock>(std::move(vals)))
            .ok());
  }
  return col;
}

/// A generator-backed column: content fingerprints derive from the
/// distribution parameters + seed, so two independently built columns with
/// the same recipe are provably byte-identical.
std::unique_ptr<storage::Column> GeneratorColumn(uint64_t seed) {
  auto col = std::make_unique<storage::Column>("v");
  auto dist = std::make_shared<stats::NormalDistribution>(100.0, 20.0);
  for (uint64_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(col->AppendBlock(std::make_shared<storage::GeneratorBlock>(
                                     dist, 10'000,
                                     SplitMix64::Hash(seed, j)))
                    .ok());
  }
  return col;
}

/// A memory block whose gathers wait until `scheduler` reports
/// `joiners` callers joined an in-flight run: a deterministic rendezvous
/// that holds the first caller's run open until every other caller is
/// waiting on it.
class RendezvousBlock : public storage::Block {
 public:
  RendezvousBlock(std::vector<double> values, const ScanScheduler* scheduler,
                  uint64_t joiners)
      : values_(std::move(values)), scheduler_(scheduler), joiners_(joiners) {}

  uint64_t size() const override { return values_.size(); }
  double ValueAt(uint64_t index) const override { return values_[index]; }
  Status GatherAt(std::span<const uint64_t> indices,
                  double* out) const override {
    while (scheduler_->stats().batched_queries < joiners_) {
      std::this_thread::yield();
    }
    for (size_t i = 0; i < indices.size(); ++i) {
      if (indices[i] >= values_.size()) {
        return Status::OutOfRange("rendezvous gather index out of range");
      }
      out[i] = values_[indices[i]];
    }
    return Status::OK();
  }
  std::string DebugString() const override { return "rendezvous"; }

 private:
  std::vector<double> values_;
  const ScanScheduler* scheduler_;
  uint64_t joiners_;
};

void ExpectSameResult(const core::GroupedAggregateResult& a,
                      const core::GroupedAggregateResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_EQ(a.scanned_samples, b.scanned_samples);
  EXPECT_EQ(a.pilot_samples, b.pilot_samples);
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].average, b.groups[g].average);
    EXPECT_EQ(a.groups[g].sum, b.groups[g].sum);
    EXPECT_EQ(a.groups[g].ci_half_width, b.groups[g].ci_half_width);
    EXPECT_EQ(a.groups[g].samples, b.groups[g].samples);
  }
}

TEST(ScanSchedulerTest, SoloExecutionMatchesStandaloneEngine) {
  auto col = MemoryColumn(1);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanSchedulerOptions sopts;
  sopts.enable_pilot_cache = false;
  sopts.enable_result_cache = false;
  ScanScheduler scheduler(sopts);
  auto got = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(got.ok()) << got.status();

  core::GroupByEngine engine(TestOptions());
  auto want = engine.Aggregate(spec, 0);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameResult(*got, *want);
}

TEST(ScanSchedulerTest, ConcurrentIdenticalQueriesCoalesceAndDedup) {
  constexpr int kThreads = 8;
  ScanSchedulerOptions sopts;
  sopts.enable_pilot_cache = false;
  sopts.enable_result_cache = false;
  ScanScheduler scheduler(sopts);

  // The first caller's gathers block until the other seven have joined its
  // run, so all eight share exactly one execution.
  auto col = std::make_unique<storage::Column>("v");
  Xoshiro256 rng(2);
  for (int b = 0; b < 3; ++b) {
    std::vector<double> vals(10'000);
    for (auto& v : vals) v = 50.0 + 25.0 * rng.NextDouble();
    ASSERT_TRUE(col->AppendBlock(std::make_shared<RendezvousBlock>(
                                     std::move(vals), &scheduler,
                                     kThreads - 1))
                    .ok());
  }
  core::GroupedSpec spec;
  spec.values = col.get();

  std::vector<Result<core::GroupedAggregateResult>> results(
      kThreads, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = scheduler.Execute(spec, TestOptions(), 0);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status();
    ExpectSameResult(*results[t], *results[0]);
  }
  core::GroupByEngine engine(TestOptions());
  auto want = engine.Aggregate(spec, 0);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameResult(*results[0], *want);

  ScanSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.shared_batches, 1u);
  EXPECT_EQ(stats.batched_queries, static_cast<uint64_t>(kThreads - 1));
  // One run served all eight callers.
  EXPECT_LT(stats.rows_gathered, stats.rows_requested);
  EXPECT_EQ(stats.rows_gathered * kThreads, stats.rows_requested);
}

TEST(ScanSchedulerTest, SketchAndTopKSpecsAreRefused) {
  auto col = MemoryColumn(6);
  ScanScheduler scheduler;
  core::GroupedSpec sketch;
  sketch.values = col.get();
  sketch.want_sketch = true;
  EXPECT_EQ(scheduler.Execute(sketch, TestOptions(), 0).status().code(),
            StatusCode::kInvalidArgument);
  core::GroupedSpec top;
  top.values = col.get();
  top.summary.top_k = 3;
  EXPECT_EQ(scheduler.Execute(top, TestOptions(), 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanSchedulerTest, ResultCacheHitsAndClearCaches) {
  auto col = MemoryColumn(3);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanSchedulerOptions sopts;
  ScanScheduler scheduler(sopts);

  auto first = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectSameResult(*second, *first);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);

  scheduler.ClearCaches();
  auto third = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(third.ok()) << third.status();
  ExpectSameResult(*third, *first);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);  // post-clear miss
}

TEST(ScanSchedulerTest, PilotCacheServesAcrossPrecisionChanges) {
  auto col = MemoryColumn(4);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanSchedulerOptions sopts;
  sopts.enable_result_cache = false;  // isolate the pilot cache
  ScanScheduler scheduler(sopts);

  core::IslaOptions loose = TestOptions();
  auto first = scheduler.Execute(spec, loose, 0);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(scheduler.stats().pilot_cache_hits, 0u);

  // The pilot is independent of the precision target, so tightening the
  // precision reuses it — and the tightened answer still matches the
  // standalone engine bit for bit.
  core::IslaOptions tight = TestOptions();
  tight.precision = 0.15;
  auto second = scheduler.Execute(spec, tight, 0);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(scheduler.stats().pilot_cache_hits, 1u);

  core::GroupByEngine engine(tight);
  auto want = engine.Aggregate(spec, 0);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameResult(*second, *want);
}

TEST(ScanSchedulerTest, GeneratorColumnsShareCacheAcrossIncarnations) {
  // Two independently constructed generator columns with the same recipe
  // have equal content fingerprints — the second table's query is a result
  // cache hit even though no object is shared.
  auto col_a = GeneratorColumn(11);
  auto col_b = GeneratorColumn(11);
  core::GroupedSpec spec_a, spec_b;
  spec_a.values = col_a.get();
  spec_b.values = col_b.get();

  ScanSchedulerOptions sopts;
  ScanScheduler scheduler(sopts);
  auto first = scheduler.Execute(spec_a, TestOptions(), 0);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = scheduler.Execute(spec_b, TestOptions(), 0);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectSameResult(*second, *first);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);

  // A different generator seed is different content: miss.
  auto col_c = GeneratorColumn(12);
  core::GroupedSpec spec_c;
  spec_c.values = col_c.get();
  auto third = scheduler.Execute(spec_c, TestOptions(), 0);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);
  EXPECT_EQ(scheduler.stats().result_cache_misses, 2u);
}

TEST(ScanSchedulerTest, DistinctSaltsAndSeedsNeverAlias) {
  auto col = GeneratorColumn(5);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanSchedulerOptions sopts;
  ScanScheduler scheduler(sopts);
  auto base = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(base.ok()) << base.status();

  auto salted = scheduler.Execute(spec, TestOptions(), 0x9b0471dULL);
  ASSERT_TRUE(salted.ok()) << salted.status();
  core::IslaOptions reseeded = TestOptions();
  reseeded.seed ^= 1;
  auto other_seed = scheduler.Execute(spec, reseeded, 0);
  ASSERT_TRUE(other_seed.ok()) << other_seed.status();

  // Three distinct cache keys: no hits, and the sampled answers differ
  // (different RNG streams).
  EXPECT_EQ(scheduler.stats().result_cache_hits, 0u);
  EXPECT_NE(salted->groups[0].average, base->groups[0].average);
  EXPECT_NE(other_seed->groups[0].average, base->groups[0].average);
}

TEST(ScanSchedulerTest, CacheCapacityEvictsLeastRecentlyUsed) {
  ScanSchedulerOptions sopts;
  sopts.cache_capacity = 2;
  ScanScheduler scheduler(sopts);

  auto col_a = GeneratorColumn(21);
  auto col_b = GeneratorColumn(22);
  auto col_c = GeneratorColumn(23);
  core::GroupedSpec a, b, c;
  a.values = col_a.get();
  b.values = col_b.get();
  c.values = col_c.get();

  ASSERT_TRUE(scheduler.Execute(a, TestOptions(), 0).ok());
  ASSERT_TRUE(scheduler.Execute(b, TestOptions(), 0).ok());
  ASSERT_TRUE(scheduler.Execute(c, TestOptions(), 0).ok());  // evicts a
  ASSERT_TRUE(scheduler.Execute(a, TestOptions(), 0).ok());  // miss: evicted
  EXPECT_EQ(scheduler.stats().result_cache_hits, 0u);
  ASSERT_TRUE(scheduler.Execute(a, TestOptions(), 0).ok());  // hit
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);
}

}  // namespace
}  // namespace engine
}  // namespace isla

// Three-way differential suite: ~100 seeded queries — a mix of
// AVG/SUM/COUNT, WHERE predicates over every operator, and GROUP BY —
// executed on the SAME logical data through three deployment modes:
//
//   1. single-node   core::GroupByEngine over in-memory columns
//   2. loopback      distributed::Coordinator over LoopbackTransport
//                    (serialized frames, in-process workers)
//   3. TCP           distributed::Coordinator over net::TcpTransport
//                    (real sockets to WorkerServer daemons)
//
// Every query's answer must be bit-identical across all three, field by
// field: averages, sums, count estimates, CI half-widths, sample counts,
// and scan totals. This is the acceptance bar of the net subsystem — the
// deployment mode is an operational choice, never a semantic one. The
// suite also sweeps coordinator parallelism, so fan-out scheduling can
// never leak into answers.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/group_by.h"
#include "core/options.h"
#include "distributed/coordinator.h"
#include "distributed/failover.h"
#include "distributed/worker.h"
#include "engine/executor.h"
#include "engine/scan_scheduler.h"
#include "net/faulty_connection.h"
#include "net/tcp_transport.h"
#include "net/worker_server.h"
#include "storage/block.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace {

constexpr uint64_t kBlocks = 4;
constexpr uint64_t kRowsPerBlock = 25'000;
constexpr int kQueries = 102;  // 17 shapes x 6 seeds

/// Row-aligned (value, predicate, key) columns plus the same blocks
/// exposed shard-by-shard for workers.
struct Fixture {
  storage::Column values{"v"};
  storage::Column preds{"p"};
  storage::Column keys{"k"};
  std::vector<std::array<storage::BlockPtr, 3>> shards;

  Fixture() {
    Xoshiro256 rng(20260728);
    for (uint64_t b = 0; b < kBlocks; ++b) {
      std::vector<double> vals, ps, ks;
      for (uint64_t i = 0; i < kRowsPerBlock; ++i) {
        double key = static_cast<double>(rng.NextBounded(4));
        // Distinct per-group means so a cross-group mixup cannot hide,
        // plus within-group spread so scans are non-trivial.
        vals.push_back(25.0 * (key + 1.0) + 3.0 * rng.NextDouble());
        ps.push_back(rng.NextDouble());
        ks.push_back(key);
      }
      auto vb = std::make_shared<storage::MemoryBlock>(std::move(vals));
      auto pb = std::make_shared<storage::MemoryBlock>(std::move(ps));
      auto kb = std::make_shared<storage::MemoryBlock>(std::move(ks));
      EXPECT_TRUE(values.AppendBlock(vb).ok());
      EXPECT_TRUE(preds.AppendBlock(pb).ok());
      EXPECT_TRUE(keys.AppendBlock(kb).ok());
      shards.push_back({vb, pb, kb});
    }
  }

  std::vector<std::unique_ptr<distributed::Worker>> MakeWorkers() const {
    std::vector<std::unique_ptr<distributed::Worker>> workers;
    for (uint64_t w = 0; w < shards.size(); ++w) {
      workers.push_back(std::make_unique<distributed::Worker>(
          w, shards[w][0], shards[w][1], shards[w][2]));
    }
    return workers;
  }
};

/// One differential query: the clause mix (the aggregate kind is implicit
/// — every mode returns the full GroupResult rows, and the suite compares
/// the AVG, SUM and COUNT fields of each row, so all three aggregates are
/// differentially tested on every query).
struct QueryShape {
  bool has_predicate = false;
  core::PredicateOp op = core::PredicateOp::kGe;
  double literal = 0.0;
  bool has_group = false;
  double precision = 0.3;
};

std::vector<QueryShape> Shapes() {
  std::vector<QueryShape> shapes;
  // Ungrouped, unpredicated (plain AVG/SUM/COUNT over the column).
  shapes.push_back({false, core::PredicateOp::kGe, 0.0, false, 0.3});
  shapes.push_back({false, core::PredicateOp::kGe, 0.0, false, 0.5});
  // GROUP BY only.
  shapes.push_back({false, core::PredicateOp::kGe, 0.0, true, 0.3});
  shapes.push_back({false, core::PredicateOp::kGe, 0.0, true, 0.5});
  // WHERE only: every operator, selectivities from ~10% to ~90%.
  for (core::PredicateOp op :
       {core::PredicateOp::kGe, core::PredicateOp::kGt,
        core::PredicateOp::kLe, core::PredicateOp::kLt}) {
    shapes.push_back({true, op, 0.1, false, 0.4});
    shapes.push_back({true, op, 0.7, false, 0.4});
  }
  // Equality/inequality on the key column value range is degenerate for
  // doubles drawn from U(0,1) — exercised via GROUP BY + WHERE instead.
  shapes.push_back({true, core::PredicateOp::kGe, 0.3, true, 0.4});
  shapes.push_back({true, core::PredicateOp::kLt, 0.8, true, 0.4});
  shapes.push_back({true, core::PredicateOp::kGt, 0.55, true, 0.5});
  // Rare predicate (~2% selectivity): stresses the weakest-group sizing.
  shapes.push_back({true, core::PredicateOp::kLe, 0.02, false, 0.5});
  shapes.push_back({true, core::PredicateOp::kGe, 0.98, true, 0.6});
  return shapes;
}

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture();
    // One TCP cluster reused by every query: connections persist across
    // calls the way a long-lived coordinator's would.
    cluster_ = new std::vector<std::unique_ptr<net::WorkerServer>>();
    endpoints_ = new std::vector<net::Endpoint>();
    auto workers = fixture_->MakeWorkers();
    for (auto& worker : workers) {
      auto server =
          std::make_unique<net::WorkerServer>(std::move(worker));
      ASSERT_TRUE(server->Start().ok());
      endpoints_->push_back({"127.0.0.1", server->port()});
      cluster_->push_back(std::move(server));
    }
    transport_ = new net::TcpTransport(*endpoints_);
  }

  static void TearDownTestSuite() {
    delete transport_;
    transport_ = nullptr;
    for (auto& server : *cluster_) server->Stop();
    delete cluster_;
    cluster_ = nullptr;
    delete endpoints_;
    endpoints_ = nullptr;
    delete fixture_;
    fixture_ = nullptr;
  }

  static Fixture* fixture_;
  static std::vector<std::unique_ptr<net::WorkerServer>>* cluster_;
  static std::vector<net::Endpoint>* endpoints_;
  static net::TcpTransport* transport_;
};

Fixture* DifferentialTest::fixture_ = nullptr;
std::vector<std::unique_ptr<net::WorkerServer>>* DifferentialTest::cluster_ =
    nullptr;
std::vector<net::Endpoint>* DifferentialTest::endpoints_ = nullptr;
net::TcpTransport* DifferentialTest::transport_ = nullptr;

/// Field-by-field bit equality of two grouped results.
void ExpectBitIdentical(const core::GroupedAggregateResult& got,
                        const core::GroupedAggregateResult& want,
                        const char* mode, int query) {
  ASSERT_EQ(got.groups.size(), want.groups.size())
      << mode << " query " << query;
  EXPECT_EQ(got.data_size, want.data_size) << mode << " query " << query;
  EXPECT_EQ(got.scanned_samples, want.scanned_samples)
      << mode << " query " << query;
  EXPECT_EQ(got.pilot_samples, want.pilot_samples)
      << mode << " query " << query;
  for (size_t g = 0; g < want.groups.size(); ++g) {
    const core::GroupResult& a = got.groups[g];
    const core::GroupResult& b = want.groups[g];
    EXPECT_EQ(a.key, b.key) << mode << " query " << query << " group " << g;
    // The three aggregate surfaces: AVG, SUM, COUNT.
    EXPECT_EQ(a.average, b.average)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.sum, b.sum) << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.count_estimate, b.count_estimate)
        << mode << " query " << query << " group " << g;
    // And their precision contracts.
    EXPECT_EQ(a.ci_half_width, b.ci_half_width)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.count_ci_half_width, b.count_ci_half_width)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.samples, b.samples)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.meets_precision, b.meets_precision)
        << mode << " query " << query << " group " << g;
    // The quantile surface (all-zero on non-sketch runs, so comparing it
    // unconditionally is free).
    EXPECT_EQ(a.quantile_value, b.quantile_value)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.rank_error, b.rank_error)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.quantile_lo, b.quantile_lo)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.quantile_hi, b.quantile_hi)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.sketch_samples, b.sketch_samples)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.histogram, b.histogram)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.histogram_lo, b.histogram_lo)
        << mode << " query " << query << " group " << g;
    EXPECT_EQ(a.histogram_hi, b.histogram_hi)
        << mode << " query " << query << " group " << g;
  }
  EXPECT_EQ(got.total_groups, want.total_groups)
      << mode << " query " << query;
}

TEST_F(DifferentialTest, HundredSeededQueriesBitIdenticalAcrossModes) {
  std::vector<QueryShape> shapes = Shapes();
  ASSERT_EQ(shapes.size() * 6, static_cast<size_t>(kQueries));

  int query = 0;
  for (size_t shape_index = 0; shape_index < shapes.size(); ++shape_index) {
    const QueryShape& shape = shapes[shape_index];
    for (uint64_t seed_salt = 1; seed_salt <= 6; ++seed_salt, ++query) {
      core::IslaOptions options;
      options.precision = shape.precision;
      // Sweep the coordinator fan-out too: parallelism must never show
      // up in answers.
      options.parallelism = 1 + (query % 3);

      // --- Mode 1: single-node engine. ---
      core::GroupedSpec spec;
      spec.values = &fixture_->values;
      if (shape.has_predicate) {
        spec.predicate = &fixture_->preds;
        spec.op = shape.op;
        spec.literal = shape.literal;
      }
      if (shape.has_group) spec.keys = &fixture_->keys;
      core::GroupByEngine engine(options);
      auto local = engine.Aggregate(spec, seed_salt);
      ASSERT_TRUE(local.ok()) << "query " << query << ": " << local.status();

      distributed::GroupedQuerySpec wire;
      wire.has_predicate = shape.has_predicate;
      wire.op = shape.op;
      wire.literal = shape.literal;
      wire.has_group = shape.has_group;

      // --- Mode 2: loopback-distributed. ---
      distributed::LoopbackTransport loopback(fixture_->MakeWorkers());
      distributed::Coordinator loop_coord(&loopback, options);
      auto loop = loop_coord.AggregateGrouped(wire, /*query_id=*/query + 1,
                                              seed_salt);
      ASSERT_TRUE(loop.ok()) << "query " << query << ": " << loop.status();

      // --- Mode 3: TCP-distributed. ---
      distributed::Coordinator tcp_coord(transport_, options);
      auto tcp = tcp_coord.AggregateGrouped(wire, /*query_id=*/query + 1,
                                            seed_salt);
      ASSERT_TRUE(tcp.ok()) << "query " << query << ": " << tcp.status();

      ExpectBitIdentical(*loop, *local, "loopback-vs-local", query);
      ExpectBitIdentical(*tcp, *local, "tcp-vs-local", query);
      ExpectBitIdentical(*tcp, *loop, "tcp-vs-loopback", query);
    }
  }
  EXPECT_EQ(query, kQueries);
}

TEST_F(DifferentialTest, SketchQueriesBitIdenticalAcrossModes) {
  // The quantile/histogram/top-k pipeline through all three deployment
  // modes: per-block sketches must merge to the same state whether the
  // blocks live in one process or behind sockets, and the coordinator-side
  // summary (quantile bands, histogram scaling, top-k cut) must reproduce
  // the single-node bytes exactly.
  struct SketchShape {
    bool has_predicate;
    core::PredicateOp op;
    double literal;
    bool has_group;
    core::QuantileSummarySpec summary;
  };
  std::vector<SketchShape> shapes;
  core::QuantileSummarySpec median;
  median.quantile_q = 0.5;
  core::QuantileSummarySpec p90_hist;
  p90_hist.quantile_q = 0.9;
  p90_hist.histogram_bins = 8;
  core::QuantileSummarySpec hist_only;
  hist_only.quantile_q = -1.0;
  hist_only.histogram_bins = 16;
  core::QuantileSummarySpec top2_median;
  top2_median.quantile_q = 0.5;
  top2_median.top_k = 2;
  shapes.push_back({false, core::PredicateOp::kGe, 0.0, false, median});
  shapes.push_back({false, core::PredicateOp::kGe, 0.0, true, median});
  shapes.push_back({true, core::PredicateOp::kGe, 0.3, true, p90_hist});
  shapes.push_back({true, core::PredicateOp::kLt, 0.7, false, hist_only});
  shapes.push_back({false, core::PredicateOp::kGe, 0.0, true, top2_median});
  shapes.push_back({true, core::PredicateOp::kGt, 0.5, true, top2_median});

  int query = 0;
  for (const SketchShape& shape : shapes) {
    for (uint64_t seed_salt = 1; seed_salt <= 3; ++seed_salt, ++query) {
      core::IslaOptions options;
      options.precision = 0.4;
      options.parallelism = 1 + (query % 3);

      core::GroupedSpec spec;
      spec.values = &fixture_->values;
      if (shape.has_predicate) {
        spec.predicate = &fixture_->preds;
        spec.op = shape.op;
        spec.literal = shape.literal;
      }
      if (shape.has_group) spec.keys = &fixture_->keys;
      spec.want_sketch = true;
      spec.summary = shape.summary;
      core::GroupByEngine engine(options);
      auto local = engine.Aggregate(spec, seed_salt);
      ASSERT_TRUE(local.ok()) << "query " << query << ": " << local.status();

      distributed::GroupedQuerySpec wire;
      wire.has_predicate = shape.has_predicate;
      wire.op = shape.op;
      wire.literal = shape.literal;
      wire.has_group = shape.has_group;
      wire.want_sketch = true;
      wire.summary = shape.summary;

      distributed::LoopbackTransport loopback(fixture_->MakeWorkers());
      distributed::Coordinator loop_coord(&loopback, options);
      auto loop = loop_coord.AggregateGrouped(wire, /*query_id=*/query + 500,
                                              seed_salt);
      ASSERT_TRUE(loop.ok()) << "query " << query << ": " << loop.status();

      distributed::Coordinator tcp_coord(transport_, options);
      auto tcp = tcp_coord.AggregateGrouped(wire, /*query_id=*/query + 500,
                                            seed_salt);
      ASSERT_TRUE(tcp.ok()) << "query " << query << ": " << tcp.status();

      ExpectBitIdentical(*loop, *local, "sketch-loopback-vs-local", query);
      ExpectBitIdentical(*tcp, *local, "sketch-tcp-vs-local", query);

      // The sketch surface must actually carry data on these runs.
      ASSERT_FALSE(local->groups.empty()) << "query " << query;
      if (shape.summary.quantile_q >= 0.0) {
        for (const core::GroupResult& g : local->groups) {
          EXPECT_GT(g.sketch_samples, 0u) << "query " << query;
          EXPECT_GT(g.rank_error, 0.0) << "query " << query;
        }
      }
      if (shape.summary.top_k > 0) {
        EXPECT_LE(local->groups.size(), shape.summary.top_k)
            << "query " << query;
        EXPECT_GE(local->total_groups, local->groups.size())
            << "query " << query;
      }
    }
  }
}

TEST_F(DifferentialTest, UngroupedAvgTcpBitIdenticalToLoopbackAcrossSeeds) {
  // The ungrouped AVG pipeline (pilot → sketch → per-shard Algorithms
  // 1+2) is a different code path from the grouped scan; pin TCP against
  // loopback across seeds and parallelism there too. (Single-node
  // IslaEngine runs the same pipeline, so it is bit-identical as well —
  // pinned by UngroupedAvgLocalBitIdenticalToLoopbackAndTcp.)
  for (uint64_t q = 1; q <= 8; ++q) {
    core::IslaOptions options;
    options.precision = 0.4;
    options.parallelism = 1 + (q % 4);
    options.seed = 0x15a15a15aULL + q;

    std::vector<std::unique_ptr<distributed::Worker>> loop_workers;
    for (uint64_t w = 0; w < fixture_->shards.size(); ++w) {
      loop_workers.push_back(std::make_unique<distributed::Worker>(
          w, fixture_->shards[w][0]));
    }
    distributed::LoopbackTransport loopback(std::move(loop_workers));
    distributed::Coordinator loop_coord(&loopback, options);
    auto loop = loop_coord.AggregateAvg(/*query_id=*/q);
    ASSERT_TRUE(loop.ok()) << loop.status();

    // The TCP cluster serves the full shard triple; AVG only touches the
    // value column, so the same endpoints work.
    distributed::Coordinator tcp_coord(transport_, options);
    auto tcp = tcp_coord.AggregateAvg(/*query_id=*/q);
    ASSERT_TRUE(tcp.ok()) << tcp.status();

    EXPECT_EQ(tcp->average, loop->average) << "query " << q;
    EXPECT_EQ(tcp->sum, loop->sum) << "query " << q;
    EXPECT_EQ(tcp->total_samples, loop->total_samples) << "query " << q;
    EXPECT_EQ(tcp->sigma_estimate, loop->sigma_estimate) << "query " << q;
    EXPECT_EQ(tcp->sketch0, loop->sketch0) << "query " << q;
  }
}

// --- Scan scheduler differentials: batched ≡ standalone ≡ cached ---
//
// The scan scheduler's hard contract is that sharing one run among
// concurrent identical queries — or answering them from the pilot/result
// caches — returns exactly the bytes the standalone core::GroupByEngine
// execution would.
// 51 seeded queries (17 clause shapes × 3 method salts) sweep WHERE
// operators, GROUP BY, and parallelism 1..3; every query is compared three
// ways: standalone engine vs. a concurrent 4-way batched run vs. a
// cache-hitting re-run.

TEST_F(DifferentialTest, BatchedStandaloneCachedThreeWayBitIdentical) {
  std::vector<QueryShape> shapes = Shapes();
  const uint64_t salts[] = {0, engine::kGroupedNonIidSalt,
                            engine::kGroupedUniformSalt};
  ASSERT_GE(shapes.size() * 3, 50u);

  engine::ScanSchedulerOptions sched_options;
  engine::ScanScheduler scheduler(sched_options);

  int query = 0;
  for (const QueryShape& shape : shapes) {
    for (uint64_t salt : salts) {
      core::IslaOptions options;
      options.precision = shape.precision;
      options.parallelism = 1 + (query % 3);

      core::GroupedSpec spec;
      spec.values = &fixture_->values;
      if (shape.has_predicate) {
        spec.predicate = &fixture_->preds;
        spec.op = shape.op;
        spec.literal = shape.literal;
      }
      if (shape.has_group) spec.keys = &fixture_->keys;

      core::GroupByEngine engine(options);
      auto standalone = engine.Aggregate(spec, salt);
      ASSERT_TRUE(standalone.ok())
          << "query " << query << ": " << standalone.status();

      // Batched: four concurrent identical submissions. Whether they join
      // one in-flight run, hit the cache, or race into several runs, every
      // answer must match the standalone bytes.
      constexpr int kConcurrent = 4;
      std::vector<Result<core::GroupedAggregateResult>> batched(
          kConcurrent, Status::Internal("not run"));
      {
        std::vector<std::thread> threads;
        for (int t = 0; t < kConcurrent; ++t) {
          threads.emplace_back([&, t] {
            batched[t] = scheduler.Execute(spec, options, salt);
          });
        }
        for (auto& th : threads) th.join();
      }
      for (int t = 0; t < kConcurrent; ++t) {
        ASSERT_TRUE(batched[t].ok())
            << "query " << query << " thread " << t << ": "
            << batched[t].status();
        ExpectBitIdentical(*batched[t], *standalone, "batched-vs-standalone",
                           query);
      }

      // Cached: a later serial re-run must hit the result cache and still
      // return the standalone bytes.
      auto cached = scheduler.Execute(spec, options, salt);
      ASSERT_TRUE(cached.ok()) << "query " << query << ": " << cached.status();
      ExpectBitIdentical(*cached, *standalone, "cached-vs-standalone", query);
      ++query;
    }
  }
  ASSERT_GE(query, 50);

  engine::ScanSchedulerStats stats = scheduler.stats();
  // Every query's serial re-run (at minimum) is a result-cache hit, and the
  // scheduler's runs must have gathered strictly less than the callers
  // requested (the whole point of the caches and single-flight).
  EXPECT_GE(stats.result_cache_hits, static_cast<uint64_t>(query));
  EXPECT_GT(stats.rows_requested, stats.rows_gathered);
}

TEST_F(DifferentialTest, MixedShapesBatchConcurrentlyBitIdentical) {
  // All 17 clause shapes submitted concurrently over the same value column:
  // heterogeneous predicates/keys/precisions running side by side on one
  // scheduler. Caches are disabled so the concurrent runs themselves (not a
  // cache) must reproduce every standalone answer.
  std::vector<QueryShape> shapes = Shapes();
  engine::ScanSchedulerOptions sched_options;
  sched_options.enable_pilot_cache = false;
  sched_options.enable_result_cache = false;
  engine::ScanScheduler scheduler(sched_options);

  core::IslaOptions options;
  options.parallelism = 2;

  std::vector<Result<core::GroupedAggregateResult>> batched(
      shapes.size(), Status::Internal("not run"));
  std::vector<core::GroupedSpec> specs(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    specs[i].values = &fixture_->values;
    if (shapes[i].has_predicate) {
      specs[i].predicate = &fixture_->preds;
      specs[i].op = shapes[i].op;
      specs[i].literal = shapes[i].literal;
    }
    if (shapes[i].has_group) specs[i].keys = &fixture_->keys;
  }
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < shapes.size(); ++i) {
      threads.emplace_back([&, i] {
        core::IslaOptions opts = options;
        opts.precision = shapes[i].precision;
        batched[i] = scheduler.Execute(specs[i], opts, /*seed_salt=*/0);
      });
    }
    for (auto& th : threads) th.join();
  }
  for (size_t i = 0; i < shapes.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << "shape " << i << ": "
                                 << batched[i].status();
    core::IslaOptions opts = options;
    opts.precision = shapes[i].precision;
    core::GroupByEngine engine(opts);
    auto standalone = engine.Aggregate(specs[i], /*seed_salt=*/0);
    ASSERT_TRUE(standalone.ok()) << standalone.status();
    ExpectBitIdentical(*batched[i], *standalone, "mixed-batch-vs-standalone",
                       static_cast<int>(i));
  }
}

TEST_F(DifferentialTest, RecreatedTableNeverServesStaleCacheEntries) {
  // Dropping and re-CREATing a table yields fresh content fingerprints, so
  // cache keys from the old incarnation are unreachable — even when the new
  // table has the same name, shape, and row count but different bytes.
  auto build = [](double offset) {
    auto col = std::make_unique<storage::Column>("v");
    Xoshiro256 rng(7);
    for (int b = 0; b < 2; ++b) {
      std::vector<double> vals(20'000);
      for (auto& v : vals) v = offset + 10.0 * rng.NextDouble();
      EXPECT_TRUE(
          col->AppendBlock(
                 std::make_shared<storage::MemoryBlock>(std::move(vals)))
              .ok());
    }
    return col;
  };

  engine::ScanSchedulerOptions sched_options;
  engine::ScanScheduler scheduler(sched_options);
  core::IslaOptions options;
  options.precision = 0.3;

  auto incarnation1 = build(100.0);
  core::GroupedSpec spec1;
  spec1.values = incarnation1.get();
  auto first = scheduler.Execute(spec1, options, 0);
  ASSERT_TRUE(first.ok()) << first.status();
  auto repeat = scheduler.Execute(spec1, options, 0);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  ExpectBitIdentical(*repeat, *first, "same-incarnation-cache", 0);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);

  // Re-CREATE with different content: both caches must miss, and the
  // answer must equal a fresh standalone execution over the new bytes.
  auto incarnation2 = build(500.0);
  core::GroupedSpec spec2;
  spec2.values = incarnation2.get();
  auto recreated = scheduler.Execute(spec2, options, 0);
  ASSERT_TRUE(recreated.ok()) << recreated.status();
  core::GroupByEngine engine(options);
  auto standalone = engine.Aggregate(spec2, 0);
  ASSERT_TRUE(standalone.ok()) << standalone.status();
  ExpectBitIdentical(*recreated, *standalone, "recreated-vs-standalone", 1);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);  // no stale hit

  // Same data, new MemoryBlocks: still a miss — a memory block's identity
  // is process-unique, so equality of bytes is never assumed.
  auto incarnation3 = build(100.0);
  core::GroupedSpec spec3;
  spec3.values = incarnation3.get();
  auto rebuilt = scheduler.Execute(spec3, options, 0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ExpectBitIdentical(*rebuilt, *first, "rebuilt-same-bytes", 2);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);
  EXPECT_EQ(scheduler.stats().result_cache_misses, 3u);
}

// --- Degraded-cluster differentials: failed replicas never change answers ---
//
// The replicated deployment's contract mirrors the suite's headline one:
// replica failure is an operational event, never a semantic one. Each shard
// gets two replica workers (same worker id, same shard triple — so their
// RNG streams, and therefore their answers, are bit-identical), and the
// coordinator runs through a FailoverTransport. The suite then breaks the
// PREFERRED replica of every shard — down before the query, killed midway
// through the frame sequence, or stalled until a hedge overtakes it — and
// requires every query to complete bit-identical to the healthy loopback
// answer, across the same parallelism sweep as the healthy suite.

/// A socket bound to a stopped server's loopback port that never listens:
/// a connect to the port still gets ECONNREFUSED, but no server started
/// meanwhile (in another test binary, say) can take the port and answer in
/// the dead server's place.
class PortHold {
 public:
  explicit PortHold(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) return;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(port);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~PortHold() {
    if (fd_ >= 0) ::close(fd_);
  }
  PortHold(const PortHold&) = delete;
  PortHold& operator=(const PortHold&) = delete;

 private:
  int fd_;
};

/// Two replica WorkerServers per shard. Channel layout [A0, B0, A1, B1,
/// ...] with placement[w] = {2w, 2w+1}; the failover transport prefers
/// placement[w][w % 2], and `preferred_options` is applied to exactly that
/// server so each test can break the replica the coordinator tries first.
struct ReplicatedCluster {
  std::vector<std::unique_ptr<net::WorkerServer>> servers;
  std::vector<net::Endpoint> endpoints;
  std::vector<std::vector<uint64_t>> placement;
  /// The ports of the servers StopPreferred stopped, held until StopAll.
  std::vector<std::unique_ptr<PortHold>> held_ports;

  void StopPreferred() {
    for (size_t w = 0; w < placement.size(); ++w) {
      const uint64_t e = placement[w][w % placement[w].size()];
      servers[e]->Stop();
      held_ports.push_back(std::make_unique<PortHold>(endpoints[e].port));
    }
  }
  void StopAll() {
    for (auto& server : servers) server->Stop();
    held_ports.clear();
  }
};

ReplicatedCluster MakeReplicatedCluster(
    const Fixture& fixture,
    const net::WorkerServerOptions& preferred_options =
        net::WorkerServerOptions{}) {
  ReplicatedCluster cluster;
  for (uint64_t w = 0; w < fixture.shards.size(); ++w) {
    cluster.placement.emplace_back();
    for (uint64_t r = 0; r < 2; ++r) {
      auto worker = std::make_unique<distributed::Worker>(
          w, fixture.shards[w][0], fixture.shards[w][1],
          fixture.shards[w][2]);
      auto server = std::make_unique<net::WorkerServer>(
          std::move(worker), r == w % 2 ? preferred_options
                                        : net::WorkerServerOptions{});
      EXPECT_TRUE(server->Start().ok());
      cluster.placement.back().push_back(cluster.endpoints.size());
      cluster.endpoints.push_back({"127.0.0.1", server->port()});
      cluster.servers.push_back(std::move(server));
    }
  }
  return cluster;
}

/// Tight-backoff, no-hedging policy: the degraded sweeps must prove the
/// retry/failover path alone reproduces healthy answers (hedging gets its
/// own test), and millisecond backoff keeps the 34-query sweeps fast.
distributed::FailoverOptions SweepFailoverOptions() {
  distributed::FailoverOptions fopts;
  fopts.enable_hedging = false;
  fopts.backoff_base_millis = 1;
  fopts.backoff_max_millis = 5;
  return fopts;
}

/// Runs the full clause-shape sweep (17 shapes x 2 seeds, parallelism
/// 1..3) through `transport` and requires every answer bit-identical to
/// the healthy loopback execution of the same query.
void ExpectSweepMatchesHealthy(distributed::Transport* transport,
                               const Fixture& fixture, const char* mode) {
  std::vector<QueryShape> shapes = Shapes();
  int query = 0;
  for (const QueryShape& shape : shapes) {
    for (uint64_t seed_salt = 1; seed_salt <= 2; ++seed_salt, ++query) {
      core::IslaOptions options;
      options.precision = shape.precision;
      options.parallelism = 1 + (query % 3);

      distributed::GroupedQuerySpec wire;
      wire.has_predicate = shape.has_predicate;
      wire.op = shape.op;
      wire.literal = shape.literal;
      wire.has_group = shape.has_group;

      distributed::LoopbackTransport loopback(fixture.MakeWorkers());
      distributed::Coordinator healthy_coord(&loopback, options);
      auto healthy = healthy_coord.AggregateGrouped(
          wire, /*query_id=*/query + 1, seed_salt);
      ASSERT_TRUE(healthy.ok())
          << mode << " healthy reference query " << query << ": "
          << healthy.status();

      distributed::Coordinator degraded_coord(transport, options);
      auto degraded = degraded_coord.AggregateGrouped(
          wire, /*query_id=*/query + 1, seed_salt);
      ASSERT_TRUE(degraded.ok())
          << mode << " query " << query << ": " << degraded.status();
      ExpectBitIdentical(*degraded, *healthy, mode, query);
    }
  }
}

TEST_F(DifferentialTest, ReplicatedHealthyClusterBitIdenticalToLoopback) {
  // Baseline for the degraded runs: with both replicas of every shard
  // alive, the failover transport is a pass-through and must not perturb a
  // single bit.
  ReplicatedCluster cluster = MakeReplicatedCluster(*fixture_);
  net::TcpTransport inner(cluster.endpoints);
  distributed::FailoverTransport transport(&inner, cluster.placement,
                                           SweepFailoverOptions());
  ExpectSweepMatchesHealthy(&transport, *fixture_, "replicated-healthy");
  EXPECT_EQ(transport.failover_snapshot().failovers, 0u);
  cluster.StopAll();
}

TEST_F(DifferentialTest, ReplicaDownFromStartBitIdenticalToHealthy) {
  // One of two replicas per shard — the PREFERRED one — is already dead
  // when the sweep begins: every call's first attempt is refused and the
  // whole suite runs on the survivors.
  ReplicatedCluster cluster = MakeReplicatedCluster(*fixture_);
  cluster.StopPreferred();

  net::TcpTransportOptions topts;
  topts.reconnect_attempts = 1;
  net::TcpTransport inner(cluster.endpoints, topts);
  distributed::FailoverTransport transport(&inner, cluster.placement,
                                           SweepFailoverOptions());
  ExpectSweepMatchesHealthy(&transport, *fixture_, "replica-down");

  distributed::FailoverCounters counters = transport.failover_snapshot();
  EXPECT_GT(counters.failovers, 0u);
  EXPECT_EQ(counters.exhausted, 0u);
  cluster.StopAll();
}

TEST_F(DifferentialTest, ReplicaKilledMidQueryBitIdenticalToHealthy) {
  // The preferred replica of every shard dies MID-QUERY: it serves the
  // first two frames of the sweep (metadata + pilot of its shard's first
  // query) and then drops every connection at the next send, forever — a
  // server-wide shared fault counter keeps it dead across the transport's
  // reconnect attempts, exactly like a crashed process whose port still
  // refuses half-open sockets. Every query — the one in flight and all
  // that follow — must complete bit-identical to healthy.
  net::WorkerServerOptions dying;
  dying.fault = net::FaultMode::kCloseInsteadOfSend;
  dying.fault_after_sends = 2;
  dying.fault_first_n = 1'000'000'000;  // a window that never closes
  ReplicatedCluster cluster = MakeReplicatedCluster(*fixture_, dying);

  net::TcpTransportOptions topts;
  topts.reconnect_attempts = 1;
  net::TcpTransport inner(cluster.endpoints, topts);
  distributed::FailoverTransport transport(&inner, cluster.placement,
                                           SweepFailoverOptions());
  ExpectSweepMatchesHealthy(&transport, *fixture_, "replica-killed-midquery");

  distributed::FailoverCounters counters = transport.failover_snapshot();
  EXPECT_GT(counters.failovers, 0u);
  EXPECT_EQ(counters.exhausted, 0u);
  cluster.StopAll();
}

TEST_F(DifferentialTest, HedgedStragglerWinBitIdenticalToLoopback) {
  // The preferred replica of every shard answers its pilots, then stalls
  // on the plan-round response. The hedge (30ms, far under the 400ms call
  // deadline) must overtake it on the second replica, and "first answer
  // wins" must be invisible in the result — the RNG-prefix property makes
  // both replicas' answers the same bytes.
  net::WorkerServerOptions stalling;
  stalling.fault = net::FaultMode::kStall;
  stalling.fault_after_sends = 2;  // sigma + sketch pilots pass, plan stalls
  ReplicatedCluster cluster = MakeReplicatedCluster(*fixture_, stalling);

  for (uint64_t q = 1; q <= 3; ++q) {
    core::IslaOptions options;
    options.precision = 0.4;
    options.parallelism = 1 + (q % 3);
    options.seed = 0x15a15a15aULL + q;

    std::vector<std::unique_ptr<distributed::Worker>> loop_workers;
    for (uint64_t w = 0; w < fixture_->shards.size(); ++w) {
      loop_workers.push_back(std::make_unique<distributed::Worker>(
          w, fixture_->shards[w][0]));
    }
    distributed::LoopbackTransport loopback(std::move(loop_workers));
    distributed::Coordinator loop_coord(&loopback, options);
    auto healthy = loop_coord.AggregateAvg(/*query_id=*/q);
    ASSERT_TRUE(healthy.ok()) << healthy.status();

    // Fresh transports per query: a stalled plan call parks the slot of
    // the straggler's channel until the call deadline, and queries must
    // not contend on it.
    net::TcpTransportOptions topts;
    topts.call_deadline_millis = 400;
    net::TcpTransport inner(cluster.endpoints, topts);
    distributed::FailoverOptions fopts;
    fopts.hedge_delay_millis = 30;
    distributed::FailoverTransport transport(&inner, cluster.placement,
                                             fopts);
    distributed::Coordinator coordinator(&transport, options);
    auto hedged = coordinator.AggregateAvg(/*query_id=*/q);
    ASSERT_TRUE(hedged.ok()) << "query " << q << ": " << hedged.status();

    EXPECT_GE(hedged->failover.hedges, 1u) << "query " << q;
    EXPECT_GE(hedged->failover.hedge_wins, 1u) << "query " << q;
    EXPECT_EQ(hedged->average, healthy->average) << "query " << q;
    EXPECT_EQ(hedged->sum, healthy->sum) << "query " << q;
    EXPECT_EQ(hedged->total_samples, healthy->total_samples)
        << "query " << q;
    EXPECT_EQ(hedged->sigma_estimate, healthy->sigma_estimate)
        << "query " << q;
    EXPECT_EQ(hedged->sketch0, healthy->sketch0) << "query " << q;
  }
  cluster.StopAll();
}

TEST_F(DifferentialTest, UngroupedAvgLocalBitIdenticalToLoopbackAndTcp) {
  // One ungrouped pipeline (σ pilot → sketch pilot → Eq. (1) plan →
  // per-shard Algorithms 1+2 → block-ordered merge) serves all three
  // modes: the local seed salt and the coordinator's query id pick the
  // same per-shard streams, so every answer is the same bits.
  for (uint64_t q = 1; q <= 8; ++q) {
    core::IslaOptions options;
    options.precision = 0.4;
    options.parallelism = 1 + (q % 4);
    options.seed = 0x15a15a15aULL + q;

    auto local =
        core::IslaEngine(options).AggregateAvg(fixture_->values, q);
    ASSERT_TRUE(local.ok()) << local.status();
    EXPECT_GT(local->total_samples, 0u) << "query " << q;

    std::vector<std::unique_ptr<distributed::Worker>> loop_workers;
    for (uint64_t w = 0; w < fixture_->shards.size(); ++w) {
      loop_workers.push_back(std::make_unique<distributed::Worker>(
          w, fixture_->shards[w][0]));
    }
    distributed::LoopbackTransport loopback(std::move(loop_workers));
    distributed::Coordinator loop_coord(&loopback, options);
    auto loop = loop_coord.AggregateAvg(/*query_id=*/q);
    ASSERT_TRUE(loop.ok()) << loop.status();

    distributed::Coordinator tcp_coord(transport_, options);
    auto tcp = tcp_coord.AggregateAvg(/*query_id=*/q);
    ASSERT_TRUE(tcp.ok()) << tcp.status();

    for (const auto& [mode, got] :
         {std::pair{"loopback", &*loop}, std::pair{"tcp", &*tcp}}) {
      EXPECT_EQ(got->average, local->average) << mode << " query " << q;
      EXPECT_EQ(got->sum, local->sum) << mode << " query " << q;
      EXPECT_EQ(got->total_samples, local->total_samples)
          << mode << " query " << q;
      EXPECT_EQ(got->sigma_estimate, local->sigma_estimate)
          << mode << " query " << q;
      EXPECT_EQ(got->sketch0, local->sketch0) << mode << " query " << q;
    }
  }
}

}  // namespace
}  // namespace isla

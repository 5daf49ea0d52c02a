// Tests for the distributed execution simulation (§VII-E): message
// round-trips, worker behaviour, coordinator aggregation, and transport
// fault injection.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>

#include "core/engine.h"
#include "distributed/coordinator.h"
#include "distributed/message.h"
#include "distributed/worker.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace isla {
namespace distributed {
namespace {

TEST(Messages, PilotRequestRoundTrip) {
  PilotRequest m{/*query_id=*/7, /*sample_count=*/1000, /*seed=*/42};
  auto decoded = DecodePilotRequest(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_id, 7u);
  EXPECT_EQ(decoded->sample_count, 1000u);
  EXPECT_EQ(decoded->seed, 42u);
}

TEST(Messages, PilotResponseRoundTrip) {
  PilotResponse m;
  m.query_id = 3;
  m.worker_id = 2;
  m.block_rows = 999;
  m.count = 100;
  m.mean = 99.5;
  m.m2 = 400.25;
  m.min_value = -3.5;
  auto decoded = DecodePilotResponse(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->worker_id, 2u);
  EXPECT_DOUBLE_EQ(decoded->mean, 99.5);
  EXPECT_DOUBLE_EQ(decoded->m2, 400.25);
  EXPECT_DOUBLE_EQ(decoded->min_value, -3.5);
}

TEST(Messages, QueryPlanRoundTripsOptions) {
  QueryPlan m;
  m.query_id = 5;
  m.sample_count = 12345;
  m.seed = 777;
  m.sketch0 = 101.25;
  m.sigma = 19.5;
  m.shift = 250.0;
  m.options.precision = 0.25;
  m.options.step_length_factor = 0.6;
  m.options.clamp_to_sketch_interval = false;
  m.options.q_prime_severe = 12.0;
  auto decoded = DecodeQueryPlan(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->sketch0, 101.25);
  EXPECT_DOUBLE_EQ(decoded->shift, 250.0);
  EXPECT_DOUBLE_EQ(decoded->options.precision, 0.25);
  EXPECT_DOUBLE_EQ(decoded->options.step_length_factor, 0.6);
  EXPECT_FALSE(decoded->options.clamp_to_sketch_interval);
  EXPECT_DOUBLE_EQ(decoded->options.q_prime_severe, 12.0);
}

TEST(Messages, PartialResultRoundTrip) {
  PartialResult m;
  m.query_id = 9;
  m.worker_id = 4;
  m.avg = 100.125;
  m.s_count = 10;
  m.l_count = 12;
  m.iterations = 8;
  m.alpha = -0.25;
  m.s_sum = 1.0;
  m.l_sum3 = 7.0;
  auto decoded = DecodePartialResult(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->avg, 100.125);
  EXPECT_DOUBLE_EQ(decoded->alpha, -0.25);
  EXPECT_DOUBLE_EQ(decoded->l_sum3, 7.0);
}

TEST(Messages, DecodeRejectsWrongType) {
  PilotRequest m{1, 2, 3};
  EXPECT_TRUE(DecodeQueryPlan(Encode(m)).status().IsCorruption());
  EXPECT_TRUE(DecodePilotResponse(Encode(m)).status().IsCorruption());
}

TEST(Messages, DecodeRejectsTruncationAndTrailing) {
  std::string frame = Encode(PilotRequest{1, 2, 3});
  std::string truncated = frame.substr(0, frame.size() - 1);
  EXPECT_TRUE(DecodePilotRequest(truncated).status().IsCorruption());
  std::string padded = frame + "x";
  EXPECT_TRUE(DecodePilotRequest(padded).status().IsCorruption());
}

TEST(Messages, PeekTypeValidates) {
  EXPECT_TRUE(PeekType("ab").status().IsCorruption());
  std::string bogus(8, '\xff');
  EXPECT_TRUE(PeekType(bogus).status().IsCorruption());
  auto t = PeekType(Encode(PilotRequest{1, 2, 3}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, MessageType::kPilotRequest);
}

std::unique_ptr<Worker> NormalWorker(uint64_t id, uint64_t rows,
                                     double mu = 100.0, double sigma = 20.0) {
  return std::make_unique<Worker>(
      id, std::make_shared<storage::GeneratorBlock>(
              std::make_shared<stats::NormalDistribution>(mu, sigma), rows,
              SplitMix64::Hash(5150, id)));
}

TEST(Worker, PilotResponseCarriesLocalStats) {
  auto worker = NormalWorker(0, 1'000'000);
  PilotRequest req{1, 5000, 11};
  auto resp_frame = worker->HandleRequest(Encode(req));
  ASSERT_TRUE(resp_frame.ok());
  auto resp = DecodePilotResponse(*resp_frame);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->block_rows, 1'000'000u);
  EXPECT_EQ(resp->count, 5000u);
  EXPECT_NEAR(resp->mean, 100.0, 1.5);
  double sigma = std::sqrt(resp->m2 / (resp->count - 1));
  EXPECT_NEAR(sigma, 20.0, 1.5);
}

TEST(Worker, RejectsForeignMessageTypes) {
  auto worker = NormalWorker(0, 1000);
  PartialResult pr;
  EXPECT_TRUE(
      worker->HandleRequest(Encode(pr)).status().IsInvalidArgument());
  EXPECT_TRUE(worker->HandleRequest("junk").status().IsCorruption());
}

TEST(Coordinator, DistributedMatchesTruth) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < 8; ++w) {
    workers.push_back(NormalWorker(w, 10'000'000));
  }
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.2;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(r->average, 100.0, 0.4);
  EXPECT_EQ(r->data_size, 80'000'000u);
  EXPECT_EQ(r->partials.size(), 8u);
  EXPECT_GT(r->total_samples, 0u);
}

TEST(Coordinator, HeterogeneousShardSizesWeightCorrectly) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 9'000'000, 10.0, 1.0));
  workers.push_back(NormalWorker(1, 3'000'000, 50.0, 1.0));
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.2;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_TRUE(r.ok());
  // True mean = (9M·10 + 3M·50)/12M = 20.
  EXPECT_NEAR(r->average, 20.0, 1.0);
}

TEST(Coordinator, SumEqualsAvgTimesRows) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 2'000'000));
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.5;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->sum, r->average * 2e6);
}

TEST(Coordinator, NoWorkersFails) {
  LoopbackTransport transport({});
  Coordinator coordinator(&transport, core::IslaOptions{});
  EXPECT_TRUE(
      coordinator.AggregateAvg().status().IsFailedPrecondition());
}

/// Fault injection: a transport that corrupts response frames.
class CorruptingTransport : public Transport {
 public:
  explicit CorruptingTransport(std::unique_ptr<Worker> worker)
      : worker_(std::move(worker)) {}

  Result<std::string> Call(uint64_t, const std::string& frame) override {
    ISLA_ASSIGN_OR_RETURN(std::string resp, worker_->HandleRequest(frame));
    resp[resp.size() / 2] ^= 0x01;  // Flip a payload bit.
    resp.pop_back();                // And truncate.
    return resp;
  }
  size_t size() const override { return 1; }

 private:
  std::unique_ptr<Worker> worker_;
};

TEST(Coordinator, CorruptedFramesSurfaceAsErrors) {
  CorruptingTransport transport(NormalWorker(0, 100'000));
  Coordinator coordinator(&transport, core::IslaOptions{});
  auto r = coordinator.AggregateAvg();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

/// Fault injection: a transport where one worker is unreachable.
class FlakyTransport : public Transport {
 public:
  explicit FlakyTransport(std::vector<std::unique_ptr<Worker>> workers)
      : inner_(std::move(workers)) {}

  Result<std::string> Call(uint64_t worker_id,
                           const std::string& frame) override {
    if (worker_id == 1) return Status::IOError("worker 1 unreachable");
    return inner_.Call(worker_id, frame);
  }
  size_t size() const override { return inner_.size(); }

 private:
  LoopbackTransport inner_;
};

TEST(Coordinator, UnreachableWorkerPropagates) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 100'000));
  workers.push_back(NormalWorker(1, 100'000));
  FlakyTransport transport(std::move(workers));
  Coordinator coordinator(&transport, core::IslaOptions{});
  auto r = coordinator.AggregateAvg();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(Messages, GroupedScanRequestRoundTrip) {
  GroupedScanRequest m;
  m.query_id = 11;
  m.sample_count = 4096;
  m.stream_seed = 0xabcdef;
  m.has_predicate = 1;
  m.op = core::PredicateOp::kLe;
  m.literal = -12.5;
  m.has_group = 1;
  auto decoded = DecodeGroupedScanRequest(Encode(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->sample_count, 4096u);
  EXPECT_EQ(decoded->op, core::PredicateOp::kLe);
  EXPECT_DOUBLE_EQ(decoded->literal, -12.5);
  EXPECT_EQ(decoded->has_group, 1u);
}

TEST(Messages, GroupedScanResponseRoundTripsGroupMap) {
  GroupedScanResponse m;
  m.query_id = 4;
  m.worker_id = 2;
  m.partial.block_rows = 1000;
  m.partial.scanned = 500;
  for (double v : {1.0, 2.0, 3.0}) m.partial.all.Add(v);
  for (double v : {1.0, 3.0}) m.partial.groups[0.0].Add(v);
  m.partial.groups[7.5].Add(2.0);
  auto decoded = DecodeGroupedScanResponse(Encode(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->partial.scanned, 500u);
  ASSERT_EQ(decoded->partial.groups.size(), 2u);
  // Bit-exact round trip of the merge state.
  EXPECT_EQ(decoded->partial.all.mean, m.partial.all.mean);
  EXPECT_EQ(decoded->partial.all.m2, m.partial.all.m2);
  EXPECT_EQ(decoded->partial.groups.at(0.0).n, 2u);
  EXPECT_EQ(decoded->partial.groups.at(0.0).mean,
            m.partial.groups.at(0.0).mean);
  EXPECT_EQ(decoded->partial.groups.at(7.5).n, 1u);
}

TEST(Messages, GroupedScanResponseRejectsDamage) {
  GroupedScanResponse m;
  m.partial.groups[1.0].Add(5.0);
  std::string frame = Encode(m);
  EXPECT_TRUE(DecodeGroupedScanResponse(frame.substr(0, frame.size() - 3))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(
      DecodeGroupedScanResponse(frame + "zz").status().IsCorruption());
  // A frame claiming more groups than the cap must be refused before any
  // allocation happens.
  GroupedScanResponse empty;
  std::string huge = Encode(empty);
  // group-count field is the last 8 bytes of an empty response.
  uint64_t bogus = core::kMaxGroups + 1;
  std::memcpy(huge.data() + huge.size() - sizeof(bogus), &bogus,
              sizeof(bogus));
  EXPECT_TRUE(DecodeGroupedScanResponse(huge).status().IsCorruption());
}

/// Builds `blocks` row-aligned (value, predicate, key) MemoryBlock shards
/// and returns them both as columns (for the local engine) and as
/// per-shard block triples (for workers).
struct GroupedFixture {
  storage::Column values{"v"};
  storage::Column preds{"p"};
  storage::Column keys{"k"};
  std::vector<std::array<storage::BlockPtr, 3>> shards;
};

std::unique_ptr<GroupedFixture> MakeGroupedFixture(uint64_t rows_per_block,
                                                   uint64_t blocks,
                                                   uint64_t seed) {
  auto fx = std::make_unique<GroupedFixture>();
  Xoshiro256 rng(seed);
  for (uint64_t b = 0; b < blocks; ++b) {
    std::vector<double> vals, preds, keys;
    for (uint64_t i = 0; i < rows_per_block; ++i) {
      double key = static_cast<double>(rng.NextBounded(4));
      vals.push_back(25.0 * (key + 1.0) + 3.0 * rng.NextDouble());
      preds.push_back(rng.NextDouble());
      keys.push_back(key);
    }
    auto vb = std::make_shared<storage::MemoryBlock>(std::move(vals));
    auto pb = std::make_shared<storage::MemoryBlock>(std::move(preds));
    auto kb = std::make_shared<storage::MemoryBlock>(std::move(keys));
    EXPECT_TRUE(fx->values.AppendBlock(vb).ok());
    EXPECT_TRUE(fx->preds.AppendBlock(pb).ok());
    EXPECT_TRUE(fx->keys.AppendBlock(kb).ok());
    fx->shards.push_back({vb, pb, kb});
  }
  return fx;
}

TEST(Coordinator, GroupedLoopbackIsBitIdenticalToLocalEngine) {
  // The acceptance bar for the distributed grouped path: the loopback
  // cluster — every byte crossing serialized frames — must reproduce the
  // single-node GroupByEngine answer bit for bit, because workers replay
  // the same per-block RNG streams and the coordinator reuses the same
  // planning/merge/summarize functions.
  auto fx = MakeGroupedFixture(50'000, 4, 31337);
  core::IslaOptions options;
  options.precision = 0.2;

  core::GroupedSpec spec;
  spec.values = &fx->values;
  spec.predicate = &fx->preds;
  spec.op = core::PredicateOp::kGe;
  spec.literal = 0.3;
  spec.keys = &fx->keys;
  core::GroupByEngine engine(options);
  auto local = engine.Aggregate(spec);
  ASSERT_TRUE(local.ok()) << local.status();

  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < fx->shards.size(); ++w) {
    workers.push_back(std::make_unique<Worker>(w, fx->shards[w][0],
                                               fx->shards[w][1],
                                               fx->shards[w][2]));
  }
  LoopbackTransport transport(std::move(workers));
  Coordinator coordinator(&transport, options);
  GroupedQuerySpec wire_spec;
  wire_spec.has_predicate = true;
  wire_spec.op = core::PredicateOp::kGe;
  wire_spec.literal = 0.3;
  wire_spec.has_group = true;
  auto dist = coordinator.AggregateGrouped(wire_spec);
  ASSERT_TRUE(dist.ok()) << dist.status();

  ASSERT_EQ(dist->groups.size(), local->groups.size());
  EXPECT_EQ(dist->data_size, local->data_size);
  EXPECT_EQ(dist->scanned_samples, local->scanned_samples);
  EXPECT_EQ(dist->pilot_samples, local->pilot_samples);
  for (size_t g = 0; g < local->groups.size(); ++g) {
    EXPECT_EQ(dist->groups[g].key, local->groups[g].key);
    EXPECT_EQ(dist->groups[g].average, local->groups[g].average);
    EXPECT_EQ(dist->groups[g].sum, local->groups[g].sum);
    EXPECT_EQ(dist->groups[g].count_estimate,
              local->groups[g].count_estimate);
    EXPECT_EQ(dist->groups[g].ci_half_width,
              local->groups[g].ci_half_width);
    EXPECT_EQ(dist->groups[g].count_ci_half_width,
              local->groups[g].count_ci_half_width);
    EXPECT_EQ(dist->groups[g].samples, local->groups[g].samples);
  }
}

TEST(Coordinator, GroupedBitIdenticalAcrossCoordinatorParallelism) {
  auto fx = MakeGroupedFixture(30'000, 8, 777);
  GroupedQuerySpec wire_spec;
  wire_spec.has_group = true;
  std::vector<core::GroupedAggregateResult> results;
  for (uint32_t parallelism : {1u, 2u, 8u}) {
    std::vector<std::unique_ptr<Worker>> workers;
    for (uint64_t w = 0; w < fx->shards.size(); ++w) {
      workers.push_back(std::make_unique<Worker>(w, fx->shards[w][0],
                                                 fx->shards[w][1],
                                                 fx->shards[w][2]));
    }
    LoopbackTransport transport(std::move(workers));
    core::IslaOptions options;
    options.precision = 0.2;
    options.parallelism = parallelism;
    Coordinator coordinator(&transport, options);
    auto r = coordinator.AggregateGrouped(wire_spec);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*std::move(r));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].groups.size(), results[0].groups.size());
    for (size_t g = 0; g < results[0].groups.size(); ++g) {
      EXPECT_EQ(results[i].groups[g].average, results[0].groups[g].average);
      EXPECT_EQ(results[i].groups[g].count_estimate,
                results[0].groups[g].count_estimate);
    }
  }
}

TEST(Worker, GroupedScanWithoutShardsFailsCleanly) {
  // A worker holding only a value shard must refuse predicate/group scans.
  auto worker = NormalWorker(0, 10'000);
  GroupedScanRequest req;
  req.query_id = 1;
  req.sample_count = 100;
  req.has_predicate = 1;
  EXPECT_TRUE(worker->HandleRequest(Encode(req))
                  .status()
                  .IsFailedPrecondition());
  GroupedScanRequest group_req;
  group_req.query_id = 1;
  group_req.sample_count = 100;
  group_req.has_group = 1;
  EXPECT_TRUE(worker->HandleRequest(Encode(group_req))
                  .status()
                  .IsFailedPrecondition());
}

TEST(Coordinator, AgreesWithSingleNodeEngine) {
  // The distributed answer over loopback must be statistically equivalent
  // to the single-node engine on the same logical column.
  auto ds = workload::MakeNormalDataset(40'000'000, 4, 100.0, 20.0, 5150);
  ASSERT_TRUE(ds.ok());

  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < 4; ++w) {
    workers.push_back(
        std::make_unique<Worker>(w, ds->data()->blocks()[w]));
  }
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.2;
  Coordinator coordinator(&transport, options);
  auto dist = coordinator.AggregateAvg();
  ASSERT_TRUE(dist.ok());

  core::IslaEngine engine(options);
  auto local = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(local.ok());
  EXPECT_NEAR(dist->average, local->average, 0.5);
}

/// Fault injection: a transport that answers worker 1's calls from
/// worker 0 — every frame decodes cleanly, but carries the wrong shard.
class MisroutingTransport : public Transport {
 public:
  explicit MisroutingTransport(std::vector<std::unique_ptr<Worker>> workers)
      : inner_(std::move(workers)) {}

  Result<std::string> Call(uint64_t worker_id,
                           const std::string& frame) override {
    return inner_.Call(worker_id == 1 ? 0 : worker_id, frame);
  }
  size_t size() const override { return inner_.size(); }

 private:
  LoopbackTransport inner_;
};

TEST(Coordinator, AvgRejectsResponsesFromTheWrongWorker) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 100'000, 10.0, 1.0));
  workers.push_back(NormalWorker(1, 100'000, 50.0, 1.0));
  MisroutingTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.3;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_FALSE(r.ok()) << "average " << r->average;
  EXPECT_TRUE(r.status().IsInternal()) << r.status();
}

TEST(Coordinator, GroupCapIsEnforcedAcrossShards) {
  // Two shards of 3000 distinct keys each — under kMaxGroups alone, past
  // it together. Only the merge of the shard partials can see the union,
  // and the local engine and the loopback cluster share that merge.
  constexpr uint64_t kKeysPerShard = 3000;
  constexpr uint64_t kRowsPerShard = 8 * kKeysPerShard;
  static_assert(kKeysPerShard < core::kMaxGroups &&
                2 * kKeysPerShard > core::kMaxGroups);
  storage::Column values{"v"}, keys{"k"};
  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < 2; ++w) {
    std::vector<double> vals, ks;
    for (uint64_t i = 0; i < kRowsPerShard; ++i) {
      vals.push_back(static_cast<double>(i % 7));
      ks.push_back(static_cast<double>(w * kKeysPerShard + i % kKeysPerShard));
    }
    auto vb = std::make_shared<storage::MemoryBlock>(std::move(vals));
    auto kb = std::make_shared<storage::MemoryBlock>(std::move(ks));
    ASSERT_TRUE(values.AppendBlock(vb).ok());
    ASSERT_TRUE(keys.AppendBlock(kb).ok());
    workers.push_back(std::make_unique<Worker>(w, vb, nullptr, kb));
  }
  core::IslaOptions options;
  options.sigma_pilot_size = 2 * kRowsPerShard;  // the pilot sees every key

  core::GroupedSpec spec;
  spec.values = &values;
  spec.keys = &keys;
  auto local = core::GroupByEngine(options).Aggregate(spec);
  EXPECT_TRUE(local.status().IsResourceExhausted()) << local.status();

  LoopbackTransport transport(std::move(workers));
  Coordinator coordinator(&transport, options);
  GroupedQuerySpec wire_spec;
  wire_spec.has_group = true;
  auto dist = coordinator.AggregateGrouped(wire_spec);
  EXPECT_TRUE(dist.status().IsResourceExhausted()) << dist.status();
}

TEST(Coordinator, SigmaEstimateWeighsShardsByRows) {
  // Unequal shards: the σ pilot draws an equal share of each, so its
  // moments must pool weighted by shard rows to estimate the population σ
  // — locally over blocks and distributed over workers alike.
  struct Mixture {
    uint64_t rows[2];
    double mu[2];
    double sigma[2];
  };
  for (const Mixture& m :
       {Mixture{{9'000'000, 3'000'000}, {10.0, 50.0}, {1.0, 1.0}},
        Mixture{{9'000'000, 1'000'000}, {0.0, 0.0}, {10.0, 1.0}}}) {
    // σ² = Σ_j w_j(σ_j² + (μ_j − μ)²): 17.35 and 9.49 for these two.
    const double total = static_cast<double>(m.rows[0] + m.rows[1]);
    double mu = 0.0, var = 0.0;
    for (int j = 0; j < 2; ++j) mu += m.rows[j] / total * m.mu[j];
    for (int j = 0; j < 2; ++j) {
      var += m.rows[j] / total *
             (m.sigma[j] * m.sigma[j] + (m.mu[j] - mu) * (m.mu[j] - mu));
    }
    const double sigma = std::sqrt(var);

    storage::Column column("v");
    std::vector<std::unique_ptr<Worker>> workers;
    for (uint64_t w = 0; w < 2; ++w) {
      auto block = std::make_shared<storage::GeneratorBlock>(
          std::make_shared<stats::NormalDistribution>(m.mu[w], m.sigma[w]),
          m.rows[w], SplitMix64::Hash(5150, w));
      ASSERT_TRUE(column.AppendBlock(block).ok());
      workers.push_back(std::make_unique<Worker>(w, block));
    }
    LoopbackTransport transport(std::move(workers));
    core::IslaOptions options;
    options.precision = 0.5;
    for (uint64_t q = 1; q <= 5; ++q) {
      auto local = core::IslaEngine(options).AggregateAvg(column, q);
      ASSERT_TRUE(local.ok()) << local.status();
      auto dist = Coordinator(&transport, options).AggregateAvg(q);
      ASSERT_TRUE(dist.ok()) << dist.status();
      EXPECT_NEAR(local->sigma_estimate, sigma, 1.0) << "query " << q;
      EXPECT_NEAR(dist->sigma_estimate, sigma, 1.0) << "query " << q;
    }
  }
}

TEST(Coordinator, MainPassNeverExceedsRows) {
  // Eq. (1) asks for ~614k rows at e = 0.05 on σ = 20; the cluster holds
  // 10k, so the plan must clamp to them as the local engine does.
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 5'000));
  workers.push_back(NormalWorker(1, 5'000));
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.05;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->data_size, 10'000u);
  EXPECT_LE(r->total_samples, r->data_size);
}

}  // namespace
}  // namespace distributed
}  // namespace isla

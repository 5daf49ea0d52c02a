#ifndef ISLA_DISTRIBUTED_COORDINATOR_H_
#define ISLA_DISTRIBUTED_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/options.h"
#include "distributed/message.h"
#include "distributed/worker.h"

namespace isla {
namespace distributed {

/// Plain snapshot of a transport's fault-recovery activity. All zeros for
/// transports without replica awareness (loopback, raw TCP); populated by
/// FailoverTransport so callers (tools, DistributedResult consumers) can
/// report how a query survived.
struct FailoverCounters {
  uint64_t retries = 0;      // re-attempts after a retryable failure
  uint64_t failovers = 0;    // re-attempts that switched replica
  uint64_t hedges = 0;       // duplicate requests sent to a second replica
  uint64_t hedge_wins = 0;   // hedged duplicates that answered first
  uint64_t exhausted = 0;    // shards that failed on every replica
  uint64_t replica_ejections = 0;  // healthy channels ejected by a failure
  /// Placement-lease epoch the transport's placement was snapshotted at
  /// (0 for transports that never saw a registry lease).
  uint64_t placement_epoch = 0;
};

/// The transport between coordinator and workers: a request frame in, a
/// response frame out. Implementations may add latency, drop frames, or
/// corrupt bytes (the fault-injection tests do exactly that). Call must be
/// safe to invoke concurrently from different threads: the coordinator
/// fans every round out across options.parallelism threads.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Delivers `frame` to worker `worker_id` and returns its response.
  virtual Result<std::string> Call(uint64_t worker_id,
                                   const std::string& frame) = 0;

  /// Number of reachable workers; worker ids are [0, size).
  virtual size_t size() const = 0;

  /// Fault-recovery counters accumulated by this transport so far. The
  /// base implementation reports zeros — only replica-aware transports
  /// (FailoverTransport) retry, fail over, or hedge.
  virtual FailoverCounters failover_snapshot() const { return {}; }
};

/// In-process transport over a set of workers. Every call still serializes
/// and deserializes both frames, so the protocol is exercised end to end.
class LoopbackTransport : public Transport {
 public:
  explicit LoopbackTransport(std::vector<std::unique_ptr<Worker>> workers);

  Result<std::string> Call(uint64_t worker_id,
                           const std::string& frame) override;
  size_t size() const override { return workers_.size(); }

 private:
  std::vector<std::unique_ptr<Worker>> workers_;
};

/// Outcome of a distributed aggregation.
struct DistributedResult {
  double average = 0.0;
  double sum = 0.0;
  uint64_t data_size = 0;
  uint64_t total_samples = 0;
  double sigma_estimate = 0.0;
  double sketch0 = 0.0;
  std::vector<PartialResult> partials;
  /// What it took to get the answer: retry/failover/hedge activity of the
  /// transport over this query (cumulative snapshot at completion).
  FailoverCounters failover;
};

/// Predicate/group clauses of a distributed grouped query. Only the clause
/// crosses the wire — each worker applies it to its own column shards.
/// `want_sketch` switches the main scan to sketch frames (workers fold
/// per-group quantile sketches); `summary` is coordinator-side
/// post-processing only and never crosses the wire.
struct GroupedQuerySpec {
  bool has_predicate = false;
  core::PredicateOp op = core::PredicateOp::kGe;
  double literal = 0.0;
  bool has_group = false;
  bool want_sketch = false;
  core::QuantileSummarySpec summary;
};

/// The center node (§VII-E): runs pre-estimation by broadcasting pilot
/// requests, sizes the per-worker sample shares by Eq. (1), broadcasts the
/// query plan, and summarizes the gathered partial answers weighted by
/// shard sizes. All state crosses Transport as serialized frames.
class Coordinator {
 public:
  Coordinator(Transport* transport, core::IslaOptions options);

  /// Executes one distributed AVG aggregation: the pipeline IslaEngine runs
  /// (core::RunUngroupedPilot + RunUngroupedAggregate), in three rounds of
  /// one call per worker. Bit-identical to IslaEngine::AggregateAvg(column,
  /// query_id) over the same sharding.
  Result<DistributedResult> AggregateAvg(uint64_t query_id = 1);

  /// Executes one distributed grouped/predicated aggregation: a shard
  /// metadata round, then core::RunGroupedPilot and core::RunGroupedAggregate
  /// — the pipeline GroupByEngine runs over its blocks — with every shard
  /// scan crossing the Transport. Workers replay exactly the per-block RNG
  /// streams of the single-node engine, so for the same catalog sharding
  /// the result is bit-identical to GroupByEngine::Aggregate(spec,
  /// seed_salt).
  Result<core::GroupedAggregateResult> AggregateGrouped(
      const GroupedQuerySpec& spec, uint64_t query_id = 1,
      uint64_t seed_salt = 0);

 private:
  Transport* transport_;
  core::IslaOptions options_;
};

}  // namespace distributed
}  // namespace isla

#endif  // ISLA_DISTRIBUTED_COORDINATOR_H_

#include "distributed/coordinator.h"

#include "core/engine.h"
#include "util/rng.h"

namespace isla {
namespace distributed {

LoopbackTransport::LoopbackTransport(
    std::vector<std::unique_ptr<Worker>> workers)
    : workers_(std::move(workers)) {}

Result<std::string> LoopbackTransport::Call(uint64_t worker_id,
                                            const std::string& frame) {
  if (worker_id >= workers_.size()) {
    return Status::NotFound("no such worker");
  }
  return workers_[worker_id]->HandleRequest(frame);
}

Coordinator::Coordinator(Transport* transport, core::IslaOptions options)
    : transport_(transport), options_(options) {}

Result<DistributedResult> Coordinator::AggregateAvg(uint64_t query_id) {
  if (transport_ == nullptr || transport_->size() == 0) {
    return Status::FailedPrecondition("no workers attached");
  }
  const size_t n_workers = transport_->size();

  // Shard rows arrive with the σ pilot (PilotResponse.block_rows), so there
  // is no metadata round. Each pilot or plan call is one round trip.
  core::ShardSet shards;
  shards.rows.assign(n_workers, 0);
  shards.pilot = [&](uint64_t w, uint64_t stream_seed,
                     uint64_t sample_count) -> Result<core::ShardPilot> {
    ISLA_ASSIGN_OR_RETURN(
        std::string resp_frame,
        transport_->Call(w, Encode(PilotRequest{query_id, sample_count,
                                                stream_seed})));
    ISLA_ASSIGN_OR_RETURN(PilotResponse resp,
                          DecodePilotResponse(resp_frame));
    if (resp.query_id != query_id || resp.worker_id != w) {
      return Status::Internal("pilot response for wrong query or worker");
    }
    return core::ShardPilot{resp.block_rows,
                            {resp.count, resp.mean, resp.m2},
                            resp.min_value};
  };
  std::vector<PartialResult> partials(n_workers);
  shards.solve = [&](uint64_t w, uint64_t sample_count,
                     const core::SolvePlan& solve) -> Result<core::BlockReport> {
    const QueryPlan plan{query_id,      sample_count, solve.stream_seed,
                         solve.sketch0, solve.sigma,  solve.shift,
                         options_};
    ISLA_ASSIGN_OR_RETURN(std::string resp_frame,
                          transport_->Call(w, Encode(plan)));
    ISLA_ASSIGN_OR_RETURN(PartialResult partial,
                          DecodePartialResult(resp_frame));
    if (partial.query_id != query_id || partial.worker_id != w) {
      return Status::Internal("partial result for wrong query or worker");
    }
    partials[w] = partial;
    core::BlockReport report{w, partial.block_rows, partial.samples_drawn, {}};
    report.answer.avg = partial.avg;
    return report;
  };

  // The pipeline of the local IslaEngine, shard for block, with the query
  // id as the seed salt: workers replay the same per-block streams.
  Xoshiro256 rng(SplitMix64::Hash(options_.seed, query_id));
  ISLA_ASSIGN_OR_RETURN(core::PilotEstimate pilot,
                        core::RunUngroupedPilot(shards, options_, &rng));
  ISLA_ASSIGN_OR_RETURN(
      core::AggregateResult res,
      core::RunUngroupedAggregate(shards, pilot, options_, query_id));

  DistributedResult out{res.average,       res.sum,
                        res.data_size,     res.total_samples,
                        res.sigma_estimate, res.sketch0,
                        {},                transport_->failover_snapshot()};
  if (!res.blocks.empty()) out.partials = std::move(partials);
  return out;
}

Result<core::GroupedAggregateResult> Coordinator::AggregateGrouped(
    const GroupedQuerySpec& spec, uint64_t query_id, uint64_t seed_salt) {
  if (transport_ == nullptr || transport_->size() == 0) {
    return Status::FailedPrecondition("no workers attached");
  }
  ISLA_RETURN_NOT_OK(options_.Validate());
  const size_t n_workers = transport_->size();

  GroupedScanRequest base;
  base.query_id = query_id;
  base.has_predicate = spec.has_predicate ? 1 : 0;
  base.op = spec.op;
  base.literal = spec.literal;
  base.has_group = spec.has_group ? 1 : 0;

  // --- Shard metadata (sample_count = 0 draws nothing), giving the
  // per-shard row counts that drive proportional allocation. ---
  core::ShardSet shards;
  uint64_t data_size = 0;
  for (uint64_t w = 0; w < n_workers; ++w) {
    ISLA_ASSIGN_OR_RETURN(std::string resp_frame,
                          transport_->Call(w, Encode(base)));
    ISLA_ASSIGN_OR_RETURN(GroupedScanResponse resp,
                          DecodeGroupedScanResponse(resp_frame));
    if (resp.query_id != query_id || resp.worker_id != w) {
      return Status::Internal(
          "shard metadata response for wrong query or worker");
    }
    shards.rows.push_back(resp.partial.block_rows);
    data_size += resp.partial.block_rows;
  }
  if (data_size == 0) {
    return Status::FailedPrecondition("workers hold no rows");
  }

  // Each shard scan is one round trip; with `want_sketch` it speaks the
  // sketch frames and the partial carries per-group quantile sketches.
  shards.scan = [&](uint64_t w, uint64_t stream_seed, uint64_t sample_count,
                    bool want_sketch) -> Result<core::GroupedBlockPartial> {
    GroupedScanRequest req = base;
    req.sample_count = sample_count;
    req.stream_seed = stream_seed;
    const std::string req_frame =
        want_sketch ? Encode(SketchScanRequest{req}) : Encode(req);
    ISLA_ASSIGN_OR_RETURN(std::string resp_frame,
                          transport_->Call(w, req_frame));
    GroupedScanResponse resp;
    if (want_sketch) {
      ISLA_ASSIGN_OR_RETURN(SketchScanResponse sketch_resp,
                            DecodeSketchScanResponse(resp_frame));
      resp = {sketch_resp.query_id, sketch_resp.worker_id,
              std::move(sketch_resp.partial)};
    } else {
      ISLA_ASSIGN_OR_RETURN(resp, DecodeGroupedScanResponse(resp_frame));
    }
    if (resp.query_id != query_id || resp.worker_id != w) {
      return Status::Internal("grouped response for wrong query or worker");
    }
    return std::move(resp.partial);
  };

  // The pipeline of the local GroupByEngine, shard for block: workers
  // replay the same per-block streams, so the answer is bit-identical.
  ISLA_ASSIGN_OR_RETURN(core::GroupedPilot pilot,
                        core::RunGroupedPilot(shards, options_, seed_salt));
  return core::RunGroupedAggregate(shards, pilot, options_, seed_salt,
                                   spec.want_sketch, spec.summary);
}

}  // namespace distributed
}  // namespace isla

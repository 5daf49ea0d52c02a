#include "distributed/coordinator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/summarizer.h"
#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"
#include "stats/moments.h"
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
  ISLA_RETURN_NOT_OK(options_.Validate());
  const size_t n_workers = transport_->size();

  // --- Phase 1: pilot broadcast. Pool the Welford fragments with Chan's
  // formula to get the global σ̂ and pilot mean.
  PilotRequest pilot_req;
  pilot_req.query_id = query_id;
  pilot_req.sample_count =
      std::max<uint64_t>(2, options_.sigma_pilot_size / n_workers);
  pilot_req.seed = SplitMix64::Hash(options_.seed, query_id);

  std::vector<uint64_t> shard_rows(n_workers, 0);
  stats::WelfordMoments pooled;
  double min_value = std::numeric_limits<double>::infinity();
  uint64_t data_size = 0;

  for (uint64_t w = 0; w < n_workers; ++w) {
    ISLA_ASSIGN_OR_RETURN(std::string resp_frame,
                          transport_->Call(w, Encode(pilot_req)));
    ISLA_ASSIGN_OR_RETURN(PilotResponse resp,
                          DecodePilotResponse(resp_frame));
    if (resp.query_id != query_id || resp.worker_id != w) {
      return Status::Internal("pilot response for wrong query or worker");
    }
    shard_rows[w] = resp.block_rows;
    data_size += resp.block_rows;
    min_value = std::min(min_value, resp.min_value);
    pooled.Merge({resp.count, resp.mean, resp.m2});
  }
  if (pooled.n < 2 || data_size == 0) {
    return Status::FailedPrecondition("pilot returned too little data");
  }
  double sigma = std::sqrt(pooled.Variance());

  DistributedResult out;
  out.data_size = data_size;
  out.sigma_estimate = sigma;
  if (!(sigma > 0.0)) {
    out.average = pooled.mean;
    out.sketch0 = pooled.mean;
    out.sum = out.average * static_cast<double>(data_size);
    out.failover = transport_->failover_snapshot();
    return out;
  }

  // --- Phase 2: sketch pilot at the relaxed precision, reusing the pilot
  // protocol with a larger share.
  ISLA_ASSIGN_OR_RETURN(
      uint64_t m_sketch,
      stats::RequiredSampleSize(
          sigma, options_.sketch_relaxation * options_.precision,
          options_.confidence));
  std::vector<uint64_t> sketch_alloc =
      sampling::ProportionalAllocation(shard_rows, m_sketch);
  double sketch_weighted = 0.0;
  uint64_t sketch_n = 0;
  for (uint64_t w = 0; w < n_workers; ++w) {
    if (sketch_alloc[w] == 0) continue;
    PilotRequest req;
    req.query_id = query_id;
    req.sample_count = sketch_alloc[w];
    req.seed = SplitMix64::Hash(options_.seed, query_id ^ 0x5ce7cbULL);
    ISLA_ASSIGN_OR_RETURN(std::string resp_frame,
                          transport_->Call(w, Encode(req)));
    ISLA_ASSIGN_OR_RETURN(PilotResponse resp,
                          DecodePilotResponse(resp_frame));
    if (resp.query_id != query_id || resp.worker_id != w) {
      return Status::Internal(
          "sketch pilot response for wrong query or worker");
    }
    sketch_weighted += resp.mean * static_cast<double>(resp.count);
    sketch_n += resp.count;
    min_value = std::min(min_value, resp.min_value);
  }
  if (sketch_n == 0) {
    return Status::Internal("sketch pilot drew nothing");
  }
  double sketch0 = sketch_weighted / static_cast<double>(sketch_n);
  out.sketch0 = sketch0;

  double shift =
      min_value > 0.0 ? 0.0 : -min_value + 3.0 * sigma + 1.0;

  // --- Phase 3: plan broadcast (Eq. 1 share per shard) + gather.
  ISLA_ASSIGN_OR_RETURN(uint64_t m,
                        stats::RequiredSampleSize(sigma, options_.precision,
                                                  options_.confidence));
  m = static_cast<uint64_t>(std::ceil(static_cast<double>(m) *
                                      options_.sampling_rate_scale));
  std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(shard_rows, m);

  // The plan round is the heavy one (each worker runs Algorithms 1 + 2 on
  // its shard), so fan it out across options_.parallelism threads. Workers
  // derive their RNG streams from (seed, worker_id), so responses are
  // independent of dispatch order; collecting them into indexed slots and
  // merging in worker order keeps the distributed answer deterministic.
  // Transport::Call must be thread-safe (LoopbackTransport is: workers are
  // const and FileBlock serializes its I/O).
  std::vector<PartialResult> partials(n_workers);
  auto run_shard = [&](uint64_t w) -> Status {
    QueryPlan plan;
    plan.query_id = query_id;
    plan.sample_count = alloc[w];
    plan.seed = SplitMix64::Hash(options_.seed, query_id ^ 0x91a7ULL);
    plan.sketch0 = sketch0 + shift;
    plan.sigma = sigma;
    plan.shift = shift;
    plan.options = options_;
    ISLA_ASSIGN_OR_RETURN(std::string resp_frame,
                          transport_->Call(w, Encode(plan)));
    ISLA_ASSIGN_OR_RETURN(partials[w], DecodePartialResult(resp_frame));
    if (partials[w].query_id != query_id || partials[w].worker_id != w) {
      return Status::Internal("partial result for wrong query or worker");
    }
    return Status::OK();
  };
  ISLA_RETURN_NOT_OK(
      runtime::ParallelForUntilFailure(n_workers, options_.parallelism,
                                       run_shard));

  std::vector<double> partial_avgs;
  std::vector<uint64_t> partial_rows;
  for (const PartialResult& partial : partials) {
    out.total_samples += partial.samples_drawn;
    partial_avgs.push_back(partial.avg);
    partial_rows.push_back(partial.block_rows);
    out.partials.push_back(partial);
  }

  ISLA_ASSIGN_OR_RETURN(double avg_shifted,
                        core::SummarizePartials(partial_avgs, partial_rows));
  out.average = avg_shifted - shift;
  out.sum = out.average * static_cast<double>(data_size);
  out.failover = transport_->failover_snapshot();
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
  core::GroupedShards shards;
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

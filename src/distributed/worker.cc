#include "distributed/worker.h"

#include <algorithm>

#include "core/group_by.h"
#include "distributed/failover.h"
#include "storage/file_block.h"
#include "util/rng.h"

namespace isla {
namespace distributed {

Worker::Worker(uint64_t worker_id, storage::BlockPtr block)
    : worker_id_(worker_id), block_(std::move(block)) {}

Worker::Worker(uint64_t worker_id, storage::BlockPtr values,
               storage::BlockPtr predicate, storage::BlockPtr keys)
    : worker_id_(worker_id),
      block_(std::move(values)),
      predicate_block_(std::move(predicate)),
      key_block_(std::move(keys)) {}

Result<std::string> Worker::HandleRequest(const std::string& frame) const {
  ISLA_ASSIGN_OR_RETURN(MessageType type, PeekType(frame));
  switch (type) {
    case MessageType::kPilotRequest: {
      ISLA_ASSIGN_OR_RETURN(PilotRequest req, DecodePilotRequest(frame));
      return HandlePilot(req);
    }
    case MessageType::kQueryPlan: {
      ISLA_ASSIGN_OR_RETURN(QueryPlan plan, DecodeQueryPlan(frame));
      return HandlePlan(plan);
    }
    case MessageType::kGroupedScanRequest: {
      ISLA_ASSIGN_OR_RETURN(GroupedScanRequest req,
                            DecodeGroupedScanRequest(frame));
      return HandleGroupedScan(req);
    }
    case MessageType::kSketchScanRequest: {
      ISLA_ASSIGN_OR_RETURN(SketchScanRequest req,
                            DecodeSketchScanRequest(frame));
      return HandleSketchScan(req);
    }
    case MessageType::kShardFetchRequest: {
      ISLA_ASSIGN_OR_RETURN(ShardFetchRequest req,
                            DecodeShardFetchRequest(frame));
      return HandleShardFetch(req);
    }
    default:
      return Status::InvalidArgument(
          "worker cannot handle this message type");
  }
}

uint64_t Worker::ShardFingerprint() const {
  // Chain the per-column data fingerprints in column order, folding an
  // absent optional column in as 0 — DataFingerprint() never returns 0,
  // so "no predicate column" cannot alias any real one.
  uint64_t h = SplitMix64::Hash(0x5a4dULL, block_->DataFingerprint());
  h = SplitMix64::Hash(
      h, predicate_block_ != nullptr ? predicate_block_->DataFingerprint()
                                     : 0);
  h = SplitMix64::Hash(
      h, key_block_ != nullptr ? key_block_->DataFingerprint() : 0);
  return h == 0 ? 1 : h;
}

Result<std::string> Worker::HandleShardFetch(
    const ShardFetchRequest& request) const {
  if (request.shard_id != worker_id_) {
    return Status::NotFound("this worker does not hold the requested shard");
  }
  const storage::Block* col = nullptr;
  switch (request.column) {
    case kShardColumnValues:
      col = block_.get();
      break;
    case kShardColumnPredicate:
      col = predicate_block_.get();
      break;
    case kShardColumnKeys:
      col = key_block_.get();
      break;
    default:
      return Status::InvalidArgument(
          "shard fetch addresses an unknown column");
  }
  ShardBlockChunk chunk;
  chunk.shard_id = request.shard_id;
  chunk.column = request.column;
  if (col == nullptr) {
    // Absent optional column: zero rows, presence flag down. The joiner
    // learns it must not fabricate a file for this column.
    return Encode(chunk);
  }
  chunk.column_present = 1;
  chunk.total_rows = col->size();
  if (request.start_row > chunk.total_rows) {
    return Status::OutOfRange("shard fetch starts past the end of the block");
  }
  chunk.start_row = request.start_row;
  uint64_t want = request.max_rows == 0
                      ? kMaxShardChunkRows
                      : std::min(request.max_rows, kMaxShardChunkRows);
  want = std::min(want, chunk.total_rows - request.start_row);
  if (want > 0) {
    ISLA_RETURN_NOT_OK(col->ReadRange(request.start_row, want, &chunk.rows));
    GlobalFailoverStats().shard_blocks_streamed.fetch_add(
        1, std::memory_order_relaxed);
  }
  chunk.crc = storage::Crc32(chunk.rows.data(),
                             chunk.rows.size() * sizeof(double));
  return Encode(chunk);
}

Result<std::string> Worker::HandlePilot(const PilotRequest& request) const {
  runtime::ScratchPool::Lease lease = scratch_pool_.Acquire();
  ISLA_ASSIGN_OR_RETURN(core::ShardPilot pilot,
                        core::PilotShard(*block_, worker_id_, request.seed,
                                         request.sample_count, lease.get()));
  return Encode(PilotResponse{request.query_id, worker_id_, pilot.block_rows,
                              pilot.moments.n, pilot.moments.mean,
                              pilot.moments.m2, pilot.min_value});
}

Result<std::string> Worker::HandlePlan(const QueryPlan& plan) const {
  ISLA_RETURN_NOT_OK(plan.options.Validate());
  core::BlockParams params;
  runtime::ScratchPool::Lease lease = scratch_pool_.Acquire();
  ISLA_ASSIGN_OR_RETURN(
      core::BlockReport report,
      core::SolveShard(*block_, worker_id_, plan.sample_count,
                       {plan.seed, plan.sketch0, plan.sigma, plan.shift},
                       plan.options, lease.get(), &params));
  const core::BlockAnswer& a = report.answer;
  const stats::StreamingMoments& s = params.param_s;
  const stats::StreamingMoments& l = params.param_l;
  return Encode(PartialResult{
      plan.query_id, worker_id_, report.block_rows, report.samples_drawn,
      a.avg, a.s_count, a.l_count, a.iterations, a.alpha, s.sum(),
      s.sum_squares(), s.sum_cubes(), l.sum(), l.sum_squares(),
      l.sum_cubes()});
}

Status Worker::RunGroupedShardScan(const GroupedScanRequest& request,
                                   bool want_sketch,
                                   core::GroupedBlockPartial* partial) const {
  const storage::Block* pred = nullptr;
  const storage::Block* keys = nullptr;
  if (request.has_predicate != 0) {
    if (predicate_block_ == nullptr) {
      return Status::FailedPrecondition(
          "worker has no predicate column shard");
    }
    if (predicate_block_->size() != block_->size()) {
      return Status::FailedPrecondition(
          "predicate shard is not row-aligned with the value shard");
    }
    pred = predicate_block_.get();
  }
  if (request.has_group != 0) {
    if (key_block_ == nullptr) {
      return Status::FailedPrecondition("worker has no group column shard");
    }
    if (key_block_->size() != block_->size()) {
      return Status::FailedPrecondition(
          "group shard is not row-aligned with the value shard");
    }
    keys = key_block_.get();
  }

  runtime::ScratchPool::Lease lease = scratch_pool_.Acquire();
  return core::ScanGroupedShard(*block_, pred, request.op, request.literal,
                                keys, worker_id_, request.stream_seed,
                                request.sample_count, want_sketch,
                                lease.get(), partial);
}

Result<std::string> Worker::HandleGroupedScan(
    const GroupedScanRequest& request) const {
  GroupedScanResponse resp;
  resp.query_id = request.query_id;
  resp.worker_id = worker_id_;
  ISLA_RETURN_NOT_OK(RunGroupedShardScan(request, /*want_sketch=*/false,
                                         &resp.partial));
  return Encode(resp);
}

Result<std::string> Worker::HandleSketchScan(
    const SketchScanRequest& request) const {
  SketchScanResponse resp;
  resp.query_id = request.scan.query_id;
  resp.worker_id = worker_id_;
  ISLA_RETURN_NOT_OK(RunGroupedShardScan(request.scan, /*want_sketch=*/true,
                                         &resp.partial));
  return Encode(resp);
}

}  // namespace distributed
}  // namespace isla

#include "core/engine.h"

#include <numeric>

#include "core/summarizer.h"
#include "runtime/kernels/kernels.h"
#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace isla {
namespace core {

namespace {

/// Domain-separation salt for the Calculation phase: per-block streams must
/// not collide with the pilot streams drawn from (seed, salt).
constexpr uint64_t kCalcPhaseSalt = 0xca1cULL;

}  // namespace

Status SummarizeBlocks(std::vector<BlockReport> blocks, double shift,
                       AggregateResult* res) {
  std::vector<double> partials;
  std::vector<uint64_t> partial_sizes;
  for (const BlockReport& block : blocks) {
    res->total_samples += block.samples_drawn;
    partials.push_back(block.answer.avg);
    partial_sizes.push_back(block.block_rows);
  }
  res->blocks = std::move(blocks);
  ISLA_ASSIGN_OR_RETURN(double avg_shifted,
                        SummarizePartials(partials, partial_sizes));
  res->average = avg_shifted - shift;
  res->sum = res->average * static_cast<double>(res->data_size);
  res->value = res->average;
  return Status::OK();
}

Result<AggregateResult> RunUngroupedAggregate(const ShardSet& shards,
                                              const PilotEstimate& pilot,
                                              const IslaOptions& options,
                                              uint64_t seed_salt) {
  AggregateResult res;
  res.data_size = std::accumulate(pilot.shard_rows.begin(),
                                  pilot.shard_rows.end(), uint64_t{0});
  res.precision = options.precision;
  res.confidence = options.confidence;
  res.sigma_estimate = pilot.sigma;
  res.pilot_samples = pilot.sigma_pilot_samples + pilot.sketch_pilot_samples;
  res.sketch0 = pilot.sketch0;
  // Record which kernel tier the pilot and Calculation inner loops ran on
  // (index generation, region classification, gathers) so perf reports can
  // attribute rows/sec to the silicon actually used.
  res.kernel_dispatch = runtime::kernels::ActiveLevelName();

  // Constant data short-circuits: the pilot mean is exact.
  if (!(pilot.sigma > 0.0)) {
    res.average = res.value = pilot.sketch0;
    res.sum = res.average * static_cast<double>(res.data_size);
    return res;
  }

  res.shift = NegativeDataShift(pilot.min_value, pilot.sigma);
  const SolvePlan plan{
      SplitMix64::Hash(options.seed, seed_salt ^ kCalcPhaseSalt),
      pilot.sketch0 + res.shift, pilot.sigma, res.shift};

  // --- Calculation module: per-shard sampling + iteration, each shard on
  // its own stream, so the partials — and therefore the final answer — are
  // bit-identical for every parallelism setting.
  const std::vector<uint64_t> alloc = sampling::ProportionalAllocation(
      pilot.shard_rows, pilot.target_sample_size);
  std::vector<BlockReport> reports(alloc.size());
  ISLA_RETURN_NOT_OK(runtime::ParallelFor(
      alloc.size(), options.parallelism, [&](uint64_t j) -> Status {
        ISLA_ASSIGN_OR_RETURN(reports[j], shards.solve(j, alloc[j], plan));
        return Status::OK();
      }));

  // --- Summarization module ---
  ISLA_RETURN_NOT_OK(SummarizeBlocks(std::move(reports), res.shift, &res));
  return res;
}

Result<AggregateResult> IslaEngine::AggregateAvg(const storage::Column& column,
                                                 uint64_t seed_salt) const {
  // Arenas come from the shared pool when the caller wired one in (the
  // steady-state allocation-free path); otherwise each stream keeps a
  // local arena and the code path stays identical.
  ShardSet shards;
  for (const auto& b : column.blocks()) shards.rows.push_back(b->size());
  shards.pilot = [this, &column](uint64_t j, uint64_t stream_seed,
                                 uint64_t sample_count) {
    runtime::ScratchPool::Lease lease;
    if (scratch_ != nullptr) lease = scratch_->Acquire();
    return PilotShard(*column.blocks()[j], j, stream_seed, sample_count,
                      lease.get());
  };
  shards.solve = [this, &column](uint64_t j, uint64_t sample_count,
                                 const SolvePlan& plan) {
    runtime::ScratchPool::Lease lease;
    if (scratch_ != nullptr) lease = scratch_->Acquire();
    BlockParams params;
    return SolveShard(*column.blocks()[j], j, sample_count, plan, options_,
                      lease.get(), &params);
  };

  Xoshiro256 rng(SplitMix64::Hash(options_.seed, seed_salt));
  ISLA_ASSIGN_OR_RETURN(PilotEstimate pilot,
                        RunUngroupedPilot(shards, options_, &rng));
  return RunUngroupedAggregate(shards, pilot, options_, seed_salt);
}

Result<AggregateResult> IslaEngine::AggregateSum(const storage::Column& column,
                                                 uint64_t seed_salt) const {
  ISLA_ASSIGN_OR_RETURN(AggregateResult res,
                        AggregateAvg(column, seed_salt));
  res.value = res.sum;
  return res;
}

}  // namespace core
}  // namespace isla

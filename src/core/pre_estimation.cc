#include "core/pre_estimation.h"

#include <algorithm>
#include <cmath>

#include "core/group_by.h"
#include "runtime/kernels/kernels.h"
#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"

namespace isla {
namespace core {

namespace {

// Domain-separation salts of the two pilot rounds: shard j of a round
// samples on Hash(Hash(pilot seed, round salt), j).
constexpr uint64_t kSigmaPilotSalt = 0x519c9ULL;
constexpr uint64_t kSketchPilotSalt = 0x5cecbULL;

/// One pilot round: shard j draws counts[j] rows on its own stream, every
/// shard is called once, and the answers land in shard order.
Result<std::vector<ShardPilot>> RunPilotRound(
    const ShardSet& shards, const IslaOptions& options, uint64_t stream_seed,
    const std::vector<uint64_t>& counts) {
  std::vector<ShardPilot> pilots(counts.size());
  ISLA_RETURN_NOT_OK(runtime::ParallelFor(
      counts.size(), options.parallelism, [&](uint64_t j) -> Status {
        ISLA_ASSIGN_OR_RETURN(pilots[j],
                              shards.pilot(j, stream_seed, counts[j]));
        return Status::OK();
      }));
  return pilots;
}

}  // namespace

double NegativeDataShift(double min_value, double sigma) {
  if (min_value > 0.0) return 0.0;
  return -min_value + 3.0 * sigma + 1.0;
}

Result<ShardPilot> PilotShard(const storage::Block& block, uint64_t shard,
                              uint64_t stream_seed, uint64_t sample_count,
                              runtime::ScratchArena* scratch) {
  ShardPilot out;
  out.block_rows = block.size();
  const uint64_t want = std::min<uint64_t>(sample_count, block.size());
  if (want == 0) return out;
  Xoshiro256 rng(SplitMix64::Hash(stream_seed, shard));
  sampling::BlockSampleStream stream(block, want, &rng, scratch);
  std::span<const double> batch;
  for (;;) {
    ISLA_RETURN_NOT_OK(stream.Next(&batch));
    if (batch.empty()) break;
    for (double v : batch) out.moments.Add(v);
    // Min runs as a separate vectorized pass: it is order-insensitive
    // over a batch (NaN-ignoring), so splitting it from the inherently
    // sequential Welford fold costs nothing and vectorizes fully.
    const double batch_min =
        runtime::kernels::Ops().min(batch.data(), batch.size());
    if (batch_min < out.min_value) out.min_value = batch_min;
  }
  return out;
}

Result<PilotEstimate> RunUngroupedPilot(const ShardSet& shards,
                                        const IslaOptions& options,
                                        Xoshiro256* rng) {
  ISLA_RETURN_NOT_OK(options.Validate());
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const uint64_t pilot_seed = rng->Next();
  const uint64_t sigma_seed = SplitMix64::Hash(pilot_seed, kSigmaPilotSalt);
  const uint64_t sketch_seed = SplitMix64::Hash(pilot_seed, kSketchPilotSalt);
  const uint64_t n = shards.rows.size();

  // Stage 1: σ pilot (system-specified size, §III-A), split evenly.
  std::vector<uint64_t> counts(n);
  for (uint64_t j = 0; j < n; ++j) {
    counts[j] = std::max<uint64_t>(
        2, options.sigma_pilot_size / n +
               (j < options.sigma_pilot_size % n ? 1 : 0));
  }
  ISLA_ASSIGN_OR_RETURN(std::vector<ShardPilot> sigma_pilots,
                        RunPilotRound(shards, options, sigma_seed, counts));
  // A shard's draw stands in for all its rows: Chan's merge of these
  // stretched moments weighs the shards by rows, so m2/M is the variance of
  // the whole population however unequal the shards are. The spread of the
  // shard means it adds also carries their sampling noise, in expectation
  // Σ_j w_j(1 − w_j)·s_j²/n_j with w_j = rows_j/M, which is taken back out.
  PilotEstimate out;
  out.min_value = std::numeric_limits<double>::infinity();
  stats::WelfordMoments by_rows;
  double noise = 0.0, noise_sq = 0.0;  // Σ rows·s²/n and Σ rows²·s²/n
  for (const ShardPilot& p : sigma_pilots) {
    out.shard_rows.push_back(p.block_rows);
    out.sigma_pilot_samples += p.moments.n;
    out.min_value = std::min(out.min_value, p.min_value);
    if (p.moments.n == 0) continue;
    const double rows = static_cast<double>(p.block_rows);
    const double var = p.moments.Variance();
    by_rows.Merge({p.block_rows, p.moments.mean, var * rows});
    noise += rows * var / static_cast<double>(p.moments.n);
    noise_sq += rows * rows * var / static_cast<double>(p.moments.n);
  }
  const uint64_t data_size = by_rows.n;
  if (data_size == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }
  const double m_total = static_cast<double>(data_size);
  out.sigma = std::sqrt(
      std::max(0.0, by_rows.m2 - noise + noise_sq / m_total) / m_total);

  // Stage 2: sketch pilot at the relaxed precision t_e·e (§III-B). With a
  // degenerate σ̂ the sketch pilot reuses the σ pilot's mean.
  if (out.sigma > 0.0) {
    ISLA_ASSIGN_OR_RETURN(
        uint64_t m_sketch,
        stats::RequiredSampleSize(
            out.sigma, options.sketch_relaxation * options.precision,
            options.confidence));
    ISLA_ASSIGN_OR_RETURN(
        std::vector<ShardPilot> sketch_pilots,
        RunPilotRound(shards, options, sketch_seed,
                      sampling::ProportionalAllocation(
                          out.shard_rows, std::min(m_sketch, data_size))));
    stats::WelfordMoments sketch;
    for (const ShardPilot& p : sketch_pilots) {
      sketch.Merge(p.moments);
      out.min_value = std::min(out.min_value, p.min_value);
    }
    out.sketch_pilot_samples = sketch.n;
    out.sketch0 = sketch.mean;
  } else {
    out.sketch0 = by_rows.mean;
  }

  // Main-pass sizing (Eq. 1), scaled by sampling_rate_scale (Table V's r/3).
  if (out.sigma > 0.0) {
    ISLA_ASSIGN_OR_RETURN(uint64_t m,
                          stats::RequiredSampleSize(
                              out.sigma, options.precision,
                              options.confidence));
    double scaled = std::ceil(static_cast<double>(m) *
                              options.sampling_rate_scale);
    out.target_sample_size =
        std::min<uint64_t>(static_cast<uint64_t>(scaled), data_size);
  } else {
    out.target_sample_size = std::min<uint64_t>(2, data_size);
  }
  out.sampling_rate = static_cast<double>(out.target_sample_size) /
                      static_cast<double>(data_size);
  return out;
}

Result<PilotEstimate> RunPreEstimation(const storage::Column& column,
                                       const IslaOptions& options,
                                       Xoshiro256* rng,
                                       runtime::ScratchArena* scratch) {
  ShardSet shards;
  for (const auto& b : column.blocks()) shards.rows.push_back(b->size());
  shards.pilot = [&column, scratch](uint64_t j, uint64_t stream_seed,
                                    uint64_t sample_count) {
    return PilotShard(*column.blocks()[j], j, stream_seed, sample_count,
                      scratch);
  };
  // One arena serves one thread at a time.
  IslaOptions run = options;
  if (scratch != nullptr) run.parallelism = 1;
  return RunUngroupedPilot(shards, run, rng);
}

}  // namespace core
}  // namespace isla

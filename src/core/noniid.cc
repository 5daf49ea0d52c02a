#include "core/noniid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/block_solver.h"
#include "core/boundaries.h"
#include "core/summarizer.h"
#include "runtime/kernels/kernels.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"
#include "stats/moments.h"
#include "util/rng.h"

namespace isla {
namespace core {

namespace {

/// Per-block pilot state for the non-i.i.d. path.
struct BlockPilot {
  double sigma = 0.0;
  double sketch0 = 0.0;
  double min_value = std::numeric_limits<double>::infinity();
  uint64_t samples = 0;
};

}  // namespace

Result<AggregateResult> AggregateAvgNonIid(const storage::Column& column,
                                           const IslaOptions& options,
                                           uint64_t seed_salt) {
  ISLA_RETURN_NOT_OK(options.Validate());
  if (column.num_rows() == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }
  const size_t b = column.num_blocks();
  Xoshiro256 rng(SplitMix64::Hash(options.seed, seed_salt ^ 0x6e6f6e69ULL));

  // --- Per-block pilots: σ_i, sketch0_i (§VII-C "different data
  // boundaries"). Each block gets at least a workable pilot share.
  const uint64_t per_block_pilot = std::max<uint64_t>(
      64, options.sigma_pilot_size / std::max<size_t>(b, 1));
  std::vector<BlockPilot> pilots(b);
  stats::StreamingMoments pooled;
  uint64_t pilot_total = 0;
  const double relaxed =
      options.sketch_relaxation * options.precision;
  for (size_t i = 0; i < b; ++i) {
    const storage::Block& block = *column.blocks()[i];
    uint64_t want = std::min<uint64_t>(per_block_pilot, block.size());
    stats::StreamingMoments local;
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        block, want,
        [&](double v) {
          local.Add(v);
          pooled.Add(v);
          pilots[i].min_value = std::min(pilots[i].min_value, v);
        },
        &rng));
    // Top the pilot up so sketch0_i meets the relaxed precision t_e·e —
    // the per-block analogue of §III-B. Without this, high-variance blocks
    // would anchor their boundaries (and the §VII-B clamp) on a sketch
    // estimate far noisier than the contract assumes.
    double sigma_i = std::sqrt(local.Variance());
    if (sigma_i > 0.0) {
      auto m_sketch =
          stats::RequiredSampleSize(sigma_i, relaxed, options.confidence);
      if (m_sketch.ok() && m_sketch.value() > local.count()) {
        uint64_t extra = std::min<uint64_t>(
            m_sketch.value() - local.count(), block.size());
        ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
            block, extra,
            [&](double v) {
              local.Add(v);
              pooled.Add(v);
              pilots[i].min_value = std::min(pilots[i].min_value, v);
            },
            &rng));
      }
    }
    pilots[i].sigma = std::sqrt(local.Variance());
    pilots[i].sketch0 = local.Mean();
    pilots[i].samples = local.count();
    pilot_total += local.count();
  }

  AggregateResult res;
  res.data_size = column.num_rows();
  res.kernel_dispatch = runtime::kernels::ActiveLevelName();
  res.precision = options.precision;
  res.confidence = options.confidence;
  res.sigma_estimate = std::sqrt(pooled.Variance());
  res.pilot_samples = pilot_total;
  res.sketch0 = pooled.Mean();

  if (!(res.sigma_estimate > 0.0)) {
    res.average = pooled.Mean();
    res.sum = res.average * static_cast<double>(res.data_size);
    res.value = res.average;
    return res;
  }

  // --- Overall sampling rate r from the pooled pilot (Eq. 1), then block
  // leverages blev_i = (1 + σ_i²)/(b + Σ σ_j²); block i draws
  // r·M·blev_i samples (§VII-C).
  ISLA_ASSIGN_OR_RETURN(
      uint64_t m, stats::RequiredSampleSize(res.sigma_estimate,
                                            options.precision,
                                            options.confidence));
  m = static_cast<uint64_t>(
      std::ceil(static_cast<double>(m) * options.sampling_rate_scale));

  double sigma_sq_total = 0.0;
  for (const auto& p : pilots) sigma_sq_total += p.sigma * p.sigma;
  const double denom = static_cast<double>(b) + sigma_sq_total;

  std::vector<double> partials;
  std::vector<uint64_t> partial_sizes;
  partials.reserve(b);
  partial_sizes.reserve(b);

  for (size_t i = 0; i < b; ++i) {
    const storage::Block& block = *column.blocks()[i];
    const BlockPilot& p = pilots[i];
    double blev = (1.0 + p.sigma * p.sigma) / denom;
    uint64_t want = static_cast<uint64_t>(
        std::ceil(static_cast<double>(m) * blev));
    want = std::min<uint64_t>(std::max<uint64_t>(want, 2), block.size());

    // Degenerate block pilot: use the pilot mean directly.
    if (!(p.sigma > 0.0)) {
      partials.push_back(p.sketch0);
      partial_sizes.push_back(block.size());
      continue;
    }

    double shift = NegativeDataShift(p.min_value, p.sigma);
    double sketch0_shifted = p.sketch0 + shift;
    ISLA_ASSIGN_OR_RETURN(
        DataBoundaries boundaries,
        DataBoundaries::Create(sketch0_shifted, p.sigma, options.p1,
                               options.p2));
    BlockParams params;
    ISLA_RETURN_NOT_OK(RunSamplingPhase(block, boundaries, want, shift, &rng,
                                        &params));
    ISLA_ASSIGN_OR_RETURN(BlockAnswer answer,
                          RunIterationPhase(params, sketch0_shifted, options));

    BlockReport report;
    report.block_index = i;
    report.block_rows = block.size();
    report.samples_drawn = params.samples_drawn;
    report.answer = answer;
    report.answer.avg -= shift;  // Report in the caller's domain.
    res.blocks.push_back(report);
    res.total_samples += params.samples_drawn;

    partials.push_back(answer.avg - shift);
    partial_sizes.push_back(block.size());
  }

  ISLA_ASSIGN_OR_RETURN(double avg,
                        SummarizePartials(partials, partial_sizes));
  res.average = avg;
  res.sum = res.average * static_cast<double>(res.data_size);
  res.value = res.average;
  return res;
}

}  // namespace core
}  // namespace isla

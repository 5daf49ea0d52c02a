#include "core/online.h"

#include <algorithm>
#include <cmath>

#include "runtime/kernels/kernels.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"

namespace isla {
namespace core {

OnlineAggregator::OnlineAggregator(const storage::Column* column,
                                   IslaOptions options)
    : column_(column),
      options_(options),
      rng_(SplitMix64::Hash(options.seed, 0x0e11e)) {}

Result<AggregateResult> OnlineAggregator::Start() {
  if (started_) {
    return Status::FailedPrecondition("Start() may only be called once");
  }
  if (column_ == nullptr || column_->num_rows() == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }
  ISLA_ASSIGN_OR_RETURN(pilot_, RunPreEstimation(*column_, options_, &rng_));
  if (!(pilot_.sigma > 0.0)) {
    return Status::FailedPrecondition(
        "online mode requires non-constant data");
  }
  shift_ = NegativeDataShift(pilot_.min_value, pilot_.sigma);
  sketch0_shifted_ = pilot_.sketch0 + shift_;
  block_params_.resize(column_->num_blocks());
  for (size_t j = 0; j < column_->num_blocks(); ++j) {
    block_params_[j].block_rows = column_->blocks()[j]->size();
  }
  started_ = true;
  current_precision_ = options_.precision;
  return SampleAndSolve(pilot_.target_sample_size);
}

Result<AggregateResult> OnlineAggregator::Refine(double new_precision) {
  if (!started_) {
    return Status::FailedPrecondition("call Start() before Refine()");
  }
  if (!(new_precision > 0.0 && new_precision < current_precision_)) {
    return Status::InvalidArgument(
        "refinement precision must be positive and tighter than the current "
        "precision");
  }
  ISLA_ASSIGN_OR_RETURN(
      uint64_t m_new,
      stats::RequiredSampleSize(pilot_.sigma, new_precision,
                                options_.confidence));
  double scaled =
      std::ceil(static_cast<double>(m_new) * options_.sampling_rate_scale);
  m_new = static_cast<uint64_t>(scaled);
  uint64_t additional = m_new > total_samples_ ? m_new - total_samples_ : 0;
  current_precision_ = new_precision;
  options_.precision = new_precision;  // Tightens the iteration threshold.

  // Top up the sketch pilot to the new relaxed precision t_e·e.
  ISLA_ASSIGN_OR_RETURN(
      uint64_t m_sketch,
      stats::RequiredSampleSize(pilot_.sigma,
                                options_.sketch_relaxation * new_precision,
                                options_.confidence));
  uint64_t have = pilot_.sketch_pilot_samples + sketch_refine_.count();
  if (m_sketch > have) {
    uint64_t want = std::min<uint64_t>(m_sketch - have, column_->num_rows());
    std::vector<uint64_t> sizes;
    for (const auto& b : column_->blocks()) sizes.push_back(b->size());
    std::vector<uint64_t> alloc =
        sampling::ProportionalAllocation(sizes, want);
    for (size_t j = 0; j < column_->num_blocks(); ++j) {
      if (alloc[j] == 0) continue;
      ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
          *column_->blocks()[j], alloc[j],
          [&](double v) { sketch_refine_.Add(v); }, &rng_));
    }
  }
  return SampleAndSolve(additional);
}

Result<AggregateResult> OnlineAggregator::CurrentAnswer() const {
  if (!started_) {
    return Status::FailedPrecondition("call Start() first");
  }
  return Solve();
}

Result<AggregateResult> OnlineAggregator::SampleAndSolve(
    uint64_t additional_samples) {
  ISLA_ASSIGN_OR_RETURN(
      DataBoundaries boundaries,
      DataBoundaries::Create(sketch0_shifted_, pilot_.sigma, options_.p1,
                             options_.p2));
  std::vector<uint64_t> sizes;
  sizes.reserve(column_->num_blocks());
  for (const auto& b : column_->blocks()) sizes.push_back(b->size());
  std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(sizes, additional_samples);
  for (size_t j = 0; j < column_->num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    BlockParams round;
    ISLA_RETURN_NOT_OK(RunSamplingPhase(*column_->blocks()[j], boundaries,
                                        alloc[j], shift_, &rng_, &round));
    round.block_rows = block_params_[j].block_rows;
    block_params_[j].Merge(round);
    total_samples_ += round.samples_drawn;
  }
  return Solve();
}

double OnlineAggregator::RefinedSketchShifted() const {
  double n0 = static_cast<double>(pilot_.sketch_pilot_samples);
  double n1 = static_cast<double>(sketch_refine_.count());
  if (n1 == 0.0) return sketch0_shifted_;
  double pooled =
      (pilot_.sketch0 * n0 + sketch_refine_.sum()) / (n0 + n1);
  return pooled + shift_;
}

Result<AggregateResult> OnlineAggregator::Solve() const {
  AggregateResult res;
  res.data_size = column_->num_rows();
  res.precision = current_precision_;
  res.confidence = options_.confidence;
  res.sigma_estimate = pilot_.sigma;
  res.sketch0 = pilot_.sketch0;
  res.shift = shift_;
  res.pilot_samples = pilot_.sigma_pilot_samples + pilot_.sketch_pilot_samples;
  res.kernel_dispatch = runtime::kernels::ActiveLevelName();

  const double sketch_iter = RefinedSketchShifted();
  res.sketch0 = sketch_iter - shift_;

  std::vector<BlockReport> blocks;
  for (uint64_t j = 0; j < block_params_.size(); ++j) {
    ISLA_ASSIGN_OR_RETURN(
        BlockAnswer answer,
        RunIterationPhase(block_params_[j], sketch_iter, options_));
    blocks.push_back({j, block_params_[j].block_rows,
                      block_params_[j].samples_drawn, answer});
  }
  ISLA_RETURN_NOT_OK(SummarizeBlocks(std::move(blocks), shift_, &res));
  return res;
}

}  // namespace core
}  // namespace isla

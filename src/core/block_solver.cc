#include "core/block_solver.h"

#include "core/objective.h"
#include "runtime/kernels/kernels.h"
#include "sampling/samplers.h"

namespace isla {
namespace core {

Status RunSamplingPhase(const storage::Block& block,
                        const DataBoundaries& boundaries,
                        uint64_t sample_count, double shift, Xoshiro256* rng,
                        BlockParams* out, runtime::ScratchArena* scratch) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  out->block_rows = block.size();
  if (block.size() == 0) {
    return Status::FailedPrecondition("cannot sample empty block");
  }
  runtime::ScratchArena local;
  runtime::ScratchArena* s = scratch != nullptr ? scratch : &local;
  const auto& kernels = runtime::kernels::Ops();
  sampling::BlockSampleStream stream(block, sample_count, rng, s);
  std::span<const double> batch;
  for (;;) {
    ISLA_RETURN_NOT_OK(stream.Next(&batch));
    if (batch.empty()) break;
    out->samples_drawn += batch.size();
    // Vectorized region split: shift and classify the whole batch in one
    // kernel pass, compacting the S and L survivors (TS/N/TL samples are
    // dropped — Algorithm 1 line 12). Each region's values arrive in
    // sample order, and paramS/paramL are independent accumulators, so the
    // streamed moments match the sample-at-a-time Classify loop bit for
    // bit.
    s->region_s.resize(batch.size());
    s->region_l.resize(batch.size());
    size_t s_count = 0;
    size_t l_count = 0;
    kernels.classify_regions(batch.data(), batch.size(), shift,
                             boundaries.lower_outer(),
                             boundaries.lower_inner(),
                             boundaries.upper_inner(),
                             boundaries.upper_outer(), s->region_s.data(),
                             &s_count, s->region_l.data(), &l_count);
    for (size_t i = 0; i < s_count; ++i) out->param_s.Add(s->region_s[i]);
    for (size_t i = 0; i < l_count; ++i) out->param_l.Add(s->region_l[i]);
  }
  return Status::OK();
}

Result<BlockAnswer> RunIterationPhase(const BlockParams& params,
                                      double sketch0,
                                      const IslaOptions& options) {
  ISLA_RETURN_NOT_OK(options.Validate());

  BlockAnswer out;
  out.s_count = params.param_s.count();
  out.l_count = params.param_l.count();
  out.dev = DeviationDegree(out.s_count, out.l_count);

  // Degenerate sampling: with an S or L region empty the leverage math is
  // undefined. sketch0 carries a relaxed-precision guarantee, so it is the
  // safe answer (this is the Case-5 escape taken to its extreme).
  if (out.s_count == 0 || out.l_count == 0) {
    out.avg = sketch0;
    out.strategy = ModulationCase::kCase5;
    return out;
  }

  out.q = ChooseQ(out.dev, options);

  auto obj_result =
      ComputeObjective(params.param_s, params.param_l, out.q);
  if (!obj_result.ok()) {
    // Degenerate moments (e.g. all-zero samples): fall back to sketch0.
    out.avg = sketch0;
    out.strategy = ModulationCase::kCase5;
    return out;
  }
  const ObjectiveCoefficients& obj = obj_result.value();
  out.d0 = obj.D(/*alpha=*/0.0, sketch0);

  ISLA_ASSIGN_OR_RETURN(
      ModulationResult mod,
      RunModulation(obj, sketch0, out.s_count, out.l_count, options));
  out.avg = mod.mu_hat;
  out.alpha = mod.alpha;
  out.iterations = mod.iterations;
  out.strategy = mod.strategy;

  // §VII-B modulation boundary: sketch0's relaxed confidence interval
  // (sketch0 ± t_e·e) is an assurance that µ lies inside it. An answer
  // escaping the interval signals over-strong leverage effects (typical on
  // asymmetric data, where |S| ≠ |L| is structural rather than evidence of
  // sketch deviation); clip it back to the interval edge.
  if (options.clamp_to_sketch_interval) {
    double w = options.sketch_relaxation * options.precision;
    double lo = sketch0 - w;
    double hi = sketch0 + w;
    if (out.avg < lo) {
      out.avg = lo;
      out.clamped = true;
    } else if (out.avg > hi) {
      out.avg = hi;
      out.clamped = true;
    }
  }
  return out;
}

Result<BlockReport> SolveShard(const storage::Block& block, uint64_t shard,
                               uint64_t sample_count, const SolvePlan& plan,
                               const IslaOptions& options,
                               runtime::ScratchArena* scratch,
                               BlockParams* params) {
  ISLA_ASSIGN_OR_RETURN(
      DataBoundaries boundaries,
      DataBoundaries::Create(plan.sketch0, plan.sigma, options.p1,
                             options.p2));
  Xoshiro256 rng(SplitMix64::Hash(plan.stream_seed, shard));
  ISLA_RETURN_NOT_OK(RunSamplingPhase(block, boundaries, sample_count,
                                      plan.shift, &rng, params, scratch));
  ISLA_ASSIGN_OR_RETURN(BlockAnswer answer,
                        RunIterationPhase(*params, plan.sketch0, options));
  return BlockReport{shard, params->block_rows, params->samples_drawn,
                     answer};
}

}  // namespace core
}  // namespace isla

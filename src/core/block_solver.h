#ifndef ISLA_CORE_BLOCK_SOLVER_H_
#define ISLA_CORE_BLOCK_SOLVER_H_

#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "core/boundaries.h"
#include "core/modulation.h"
#include "core/options.h"
#include "runtime/scratch_arena.h"
#include "stats/moments.h"
#include "storage/block.h"
#include "util/rng.h"

namespace isla {
namespace core {

/// Per-block streamed state produced by the sampling phase — the paper's
/// (paramS, paramL) pair plus bookkeeping. This is all that needs to be
/// persisted for the online continuation mode (§VII-A).
struct BlockParams {
  stats::StreamingMoments param_s;
  stats::StreamingMoments param_l;
  uint64_t samples_drawn = 0;   // all samples, including discarded regions
  uint64_t block_rows = 0;      // |B_j|

  /// Merges a later round of sampling into this state (online mode).
  void Merge(const BlockParams& other) {
    param_s.Merge(other.param_s);
    param_l.Merge(other.param_l);
    samples_drawn += other.samples_drawn;
  }
};

/// Phase 1 (Algorithm 1): draws `sample_count` uniform samples from `block`,
/// classifies each against `boundaries` after applying `shift` (the
/// negative-data translation; 0 for all-positive data), and folds S/L
/// samples into the streamed moments. Samples are gathered in kGatherBatch
/// chunks into `scratch` (nullable; pass a warmed per-worker arena to make
/// the loop allocation-free), classified, and dropped — they land in no
/// long-lived array.
Status RunSamplingPhase(const storage::Block& block,
                        const DataBoundaries& boundaries,
                        uint64_t sample_count, double shift, Xoshiro256* rng,
                        BlockParams* out,
                        runtime::ScratchArena* scratch = nullptr);

/// A block's aggregation verdict plus iteration diagnostics.
struct BlockAnswer {
  double avg = 0.0;             // partial AVG answer for the block
  double alpha = 0.0;           // final leverage degree
  double q = 1.0;               // leverage allocating parameter used
  double dev = 0.0;             // |S|/|L|
  double d0 = 0.0;              // initial objective value
  uint64_t iterations = 0;      // modulation rounds
  ModulationCase strategy = ModulationCase::kDegenerate;
  uint64_t s_count = 0;
  uint64_t l_count = 0;
  /// True when the §VII-B modulation boundary clipped the answer back into
  /// sketch0's relaxed confidence interval.
  bool clamped = false;
};

/// Phase 2 (Algorithm 2): picks q from dev, evaluates the objective
/// coefficients (Theorem 3), selects the modulation case and iterates until
/// |D| <= thr. Falls back to sketch0 when a region is empty (the paper's
/// Case-5 escape also covers degenerate sampling).
Result<BlockAnswer> RunIterationPhase(const BlockParams& params,
                                      double sketch0,
                                      const IslaOptions& options);

/// Per-block diagnostics surfaced to callers (Table IV reproduces these).
struct BlockReport {
  uint64_t block_index = 0;
  uint64_t block_rows = 0;
  uint64_t samples_drawn = 0;
  BlockAnswer answer;
};

/// What every shard's Calculation phase shares: the shard streams' seed
/// and the pilot's outcome.
struct SolvePlan {
  uint64_t stream_seed = 0;
  double sketch0 = 0.0;  // shifted domain
  double sigma = 0.0;
  double shift = 0.0;
};

/// Shard `shard`'s Calculation phase: Algorithms 1 + 2 over `sample_count`
/// rows on the stream Hash(plan.stream_seed, shard), with the data
/// boundaries of (plan.sketch0, plan.sigma). The single definition of the
/// per-shard solve, shared by the in-process shards and the distributed
/// worker. `params` receives the streamed moments.
Result<BlockReport> SolveShard(const storage::Block& block, uint64_t shard,
                               uint64_t sample_count, const SolvePlan& plan,
                               const IslaOptions& options,
                               runtime::ScratchArena* scratch,
                               BlockParams* params);

}  // namespace core
}  // namespace isla

#endif  // ISLA_CORE_BLOCK_SOLVER_H_

#ifndef ISLA_CORE_PRE_ESTIMATION_H_
#define ISLA_CORE_PRE_ESTIMATION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/options.h"
#include "runtime/scratch_arena.h"
#include "stats/moments.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace core {

struct ShardSet;  // core/group_by.h

/// Output of the Pre-estimation module (§III): the σ estimate, the sketch
/// estimator's initial value, and the derived main-pass sampling plan.
struct PilotEstimate {
  /// Estimated overall standard deviation σ̂ from the small pilot.
  double sigma = 0.0;

  /// Initial sketch estimator, computed at the relaxed precision t_e·e.
  double sketch0 = 0.0;

  /// Smallest pilot value seen; drives the negative-data translation
  /// (footnote 1 of the paper: shift by d, aggregate, shift back).
  double min_value = 0.0;

  /// Pilot sizes actually drawn.
  uint64_t sigma_pilot_samples = 0;
  uint64_t sketch_pilot_samples = 0;

  /// Main-pass plan from Eq. (1): m = u²σ̂²/e² and r = m/M, after applying
  /// options.sampling_rate_scale and clamping to the population size.
  uint64_t target_sample_size = 0;
  double sampling_rate = 0.0;

  /// Rows of every shard, as the σ pilot reported them; M is their sum.
  std::vector<uint64_t> shard_rows;
};

/// The negative-data translation d (footnote 1): data are shifted to the
/// positive axis before leveraging. The margin of 3σ̂ past the observed
/// pilot minimum makes unseen negative tail values positive w.h.p.
double NegativeDataShift(double min_value, double sigma);

/// One shard's share of a pilot round: its rows, and the Welford moments
/// and minimum of the rows it drew.
struct ShardPilot {
  uint64_t block_rows = 0;
  stats::WelfordMoments moments;
  double min_value = std::numeric_limits<double>::infinity();
};

/// Shard `shard`'s pilot draw of min(sample_count, |block|) rows on the
/// stream Hash(stream_seed, shard), shared by the in-process shards and the
/// distributed worker. `scratch` (nullable) receives the gather batches.
Result<ShardPilot> PilotShard(const storage::Block& block, uint64_t shard,
                              uint64_t stream_seed, uint64_t sample_count,
                              runtime::ScratchArena* scratch);

/// The ungrouped Pre-estimation module over `shards`' pilot calls, one per
/// shard and round, fanned out across options.parallelism threads on
/// stream seeds drawn from `rng`: the σ pilot (an equal share of
/// options.sigma_pilot_size per shard, since shard rows arrive with it,
/// pooled weighted by shard rows), the sketch pilot at the relaxed
/// precision t_e·e (§III-B), and the Eq. (1) main-pass size, both clamped
/// to M and allocated proportionally to shard rows.
Result<PilotEstimate> RunUngroupedPilot(const ShardSet& shards,
                                        const IslaOptions& options,
                                        Xoshiro256* rng);

/// RunUngroupedPilot over `column`'s blocks, drawn in-process. Fails on
/// empty columns or invalid options. `scratch` (nullable) receives the
/// pilot's gather batches so repeated queries reuse one warmed arena; with
/// it the blocks are drawn in order on the caller's thread.
Result<PilotEstimate> RunPreEstimation(const storage::Column& column,
                                       const IslaOptions& options,
                                       Xoshiro256* rng,
                                       runtime::ScratchArena* scratch =
                                           nullptr);

}  // namespace core
}  // namespace isla

#endif  // ISLA_CORE_PRE_ESTIMATION_H_

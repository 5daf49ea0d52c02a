#ifndef ISLA_CORE_ENGINE_H_
#define ISLA_CORE_ENGINE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/block_solver.h"
#include "core/group_by.h"
#include "core/options.h"
#include "core/pre_estimation.h"
#include "runtime/scratch_arena.h"
#include "storage/table.h"

namespace isla {
namespace core {

/// Everything an aggregation run produces: the answer, its precision
/// contract, and full per-block diagnostics.
struct AggregateResult {
  /// The requested aggregate's answer: `average` for AggregateAvg runs,
  /// `sum` for AggregateSum runs. Callers that only want "the number" read
  /// this field and never have to remember the AVG→SUM multiplication.
  double value = 0.0;
  double average = 0.0;        // the AVG answer (shift removed)
  double sum = 0.0;            // AVG · M (§I: SUM from AVG)
  uint64_t data_size = 0;      // M
  double precision = 0.0;      // requested e
  double confidence = 0.0;     // requested β
  double sigma_estimate = 0.0; // pilot σ̂
  double sketch0 = 0.0;        // initial sketch (shift removed)
  double shift = 0.0;          // negative-data translation applied
  uint64_t total_samples = 0;  // main-pass samples across blocks
  uint64_t pilot_samples = 0;  // σ pilot + sketch pilot
  /// Kernel tier the run's inner loops dispatched to ("scalar"/"avx2") —
  /// static storage, diagnostic only, never serialized.
  std::string_view kernel_dispatch;
  std::vector<BlockReport> blocks;
};

/// Summarization (§II-C): moves `blocks` into `res`, adds their samples to
/// res->total_samples, and sets its average, sum and value from the
/// row-weighted merge of the blocks' answers in block order, less `shift`.
Status SummarizeBlocks(std::vector<BlockReport> blocks, double shift,
                       AggregateResult* res);

/// Calculation + Summarization of the ungrouped pipeline: `pilot`'s main
/// pass (RunUngroupedPilot over the same shards), every shard solved on
/// its own stream across options.parallelism threads, and the partials
/// merged in shard order. Constant data (σ̂ = 0) gets the pilot mean.
Result<AggregateResult> RunUngroupedAggregate(const ShardSet& shards,
                                              const PilotEstimate& pilot,
                                              const IslaOptions& options,
                                              uint64_t seed_salt);

/// The ISLA aggregation engine: Pre-estimation → per-block Calculation →
/// Summarization (§II-C), for i.i.d. blocks. Non-i.i.d. data uses
/// core/noniid.h; incremental refinement uses core/online.h.
///
/// Each block is one shard of RunUngroupedPilot + RunUngroupedAggregate,
/// with both pilot rounds and the Calculation phase fanned out across
/// options().parallelism threads. Every block draws from its own RNG
/// streams, so the answer is bit-identical for any thread count, including
/// 1 — and to distributed::Coordinator::AggregateAvg(seed_salt), which runs
/// the same two calls over shards behind a Transport.
///
/// Thread-compatible: one engine may serve concurrent Aggregate calls, each
/// call deriving its own RNG stream from options().seed and the call's salt.
class IslaEngine {
 public:
  /// `scratch` (nullable, unowned, must outlive the engine) supplies
  /// per-worker gather arenas; long-lived callers pass one pool so repeated
  /// queries run their inner loops allocation-free.
  explicit IslaEngine(IslaOptions options,
                      runtime::ScratchPool* scratch = nullptr)
      : options_(options), scratch_(scratch) {}

  const IslaOptions& options() const { return options_; }

  /// Runs the full AVG pipeline over `column`. `seed_salt` decorrelates
  /// repeated runs (dataset index in the experiment harnesses).
  Result<AggregateResult> AggregateAvg(const storage::Column& column,
                                       uint64_t seed_salt = 0) const;

  /// SUM = AVG · M. The returned result is SUM-shaped: `value` holds the
  /// SUM answer (not the AVG), so no caller-side multiplication is needed.
  Result<AggregateResult> AggregateSum(const storage::Column& column,
                                       uint64_t seed_salt = 0) const;

 private:
  IslaOptions options_;
  runtime::ScratchPool* scratch_;
};

}  // namespace core
}  // namespace isla

#endif  // ISLA_CORE_ENGINE_H_

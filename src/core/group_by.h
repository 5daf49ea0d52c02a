#ifndef ISLA_CORE_GROUP_BY_H_
#define ISLA_CORE_GROUP_BY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/block_solver.h"
#include "core/options.h"
#include "core/pre_estimation.h"
#include "runtime/scratch_arena.h"
#include "stats/moments.h"
#include "stats/sketch.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace core {

/// Comparison operator of a `WHERE <col> <op> <literal>` predicate.
enum class PredicateOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// SQL spelling of an operator ("=", "!=", "<", "<=", ">", ">=").
std::string_view PredicateOpName(PredicateOp op);

/// Evaluates `lhs op rhs`. Comparisons involving NaN are false for every
/// operator (SQL's UNKNOWN semantics), including !=.
bool EvalPredicate(PredicateOp op, double lhs, double rhs);

/// Vectorized form: mask[i] = EvalPredicate(op, lhs[i], rhs) for every i.
/// The operator switch is hoisted out of the loop and each body is a single
/// branchless comparison (NaN handled by IEEE comparison semantics, with
/// != getting an explicit self-equality term), so the compiler emits
/// straight-line SIMD-friendly code instead of a per-row branch tree.
/// `mask` must have room for lhs.size() bytes.
void EvalPredicateMask(PredicateOp op, std::span<const double> lhs,
                       double rhs, uint8_t* mask);

/// Reduced mergeable moments of one group. The same state crosses the
/// distributed wire, so merging decoded partials is bit-identical to
/// merging local ones.
using GroupMoments = stats::WelfordMoments;

/// Keys are the raw doubles of the GROUP BY column, compared exactly; the
/// ordered map makes every merge and summarization iteration deterministic.
using GroupMap = std::map<double, GroupMoments>;

/// Per-group quantile sketches, keyed like GroupMap (ordered, so sketch
/// merges iterate deterministically).
using SketchMap = std::map<double, stats::QuantileSketch>;

/// Hard cap on distinct keys: GROUP BY on an effectively continuous column
/// is a usage error, not a workload.
inline constexpr size_t kMaxGroups = 4096;

/// One block's share of a shared grouped sampling pass.
struct GroupedBlockPartial {
  uint64_t block_rows = 0;
  uint64_t scanned = 0;  // rows sampled (before the predicate)
  GroupMoments all;      // every matching row, regardless of group
  GroupMap groups;       // matching rows routed by group key
  SketchMap sketches;    // per-group quantile sketches (want_sketch runs)

  /// Folds `other` into this partial. Call in block order.
  Status Merge(const GroupedBlockPartial& other);
};

/// A grouped, optionally predicated aggregation over row-aligned columns.
/// `predicate`/`keys` may be null (no WHERE / single implicit group). All
/// non-null columns must have the same block structure as `values`.
/// Post-merge summary of a quantile/histogram/top-k query. These are pure
/// post-processing parameters: they never cross the distributed wire (only
/// want_sketch does) — the coordinator applies them after merging, exactly
/// like the local engine.
struct QuantileSummarySpec {
  double quantile_q = -1.0;     // in [0,1] fills quantile fields; < 0 = off
  uint64_t histogram_bins = 0;  // > 0 fills per-group histogram fields
  uint64_t top_k = 0;           // > 0 keeps only the k largest groups
};

struct GroupedSpec {
  const storage::Column* values = nullptr;
  const storage::Column* predicate = nullptr;
  PredicateOp op = PredicateOp::kGe;
  double literal = 0.0;
  const storage::Column* keys = nullptr;
  bool want_sketch = false;  // accumulate per-group quantile sketches
  QuantileSummarySpec summary;
};

/// Checks that predicate/key columns are row-aligned with the value column
/// (same block count and per-block sizes).
Status ValidateGroupedSpec(const GroupedSpec& spec);

/// Routes one row into the grouped accumulators: evaluates the predicate
/// when `pred` is non-null, drops NaN group keys, and folds `value` into
/// `all` (when non-null) and the key's group. The single definition of the
/// row-routing semantics — the sampler and the exact full scan must agree
/// on it, or the coverage harness grades against a different population.
/// Returns ResourceExhausted when the group cap is exceeded.
Status RouteGroupedRow(const double* pred, PredicateOp op, double literal,
                       const double* key, double value, GroupMoments* all,
                       GroupMap* groups, SketchMap* sketches = nullptr);

/// Batch form of RouteGroupedRow, shared by the sampler and the exact full
/// scan: rows with mask[i] == 0 are skipped (mask == nullptr: no
/// predicate), NaN keys are dropped (keys == nullptr: one implicit group),
/// and survivors fold into `all` (nullable), their group and, when
/// `sketches` is non-null, their group's sketch. A non-null `scratch` runs
/// the filtering through the SIMD compaction kernels first; survivors fold
/// in the same order, so the result is bit-identical either way. Returns
/// ResourceExhausted past kMaxGroups.
Status RouteGroupedBatch(std::span<const double> values, const uint8_t* mask,
                         const double* keys, GroupMoments* all,
                         GroupMap* groups,
                         runtime::ScratchArena* scratch = nullptr,
                         SketchMap* sketches = nullptr);

/// Samples `sample_count` rows with replacement from one block shard (the
/// value block plus the aligned predicate/key blocks, either of which may be
/// null), evaluates the predicate branchlessly into a selection mask, and
/// routes matching rows into `out`. Rows whose group key is NaN are
/// dropped. Gathers are batched (sampling::kGatherBatch indices per batch,
/// all columns gathered at the same positions) into `scratch` (nullable;
/// pass a warmed per-worker arena to make the loop allocation-free).
Status RunGroupedBlockPass(const storage::Block& values,
                           const storage::Block* predicate_block,
                           PredicateOp op, double literal,
                           const storage::Block* key_block,
                           uint64_t sample_count, Xoshiro256* rng,
                           GroupedBlockPartial* out,
                           runtime::ScratchArena* scratch = nullptr,
                           bool want_sketch = false);

/// Shard `shard`'s share of one grouped phase: `sample_count` rows drawn by
/// RunGroupedBlockPass on the stream Hash(stream_seed, shard). The single
/// definition of the per-shard stream, shared by the in-process scan and
/// the distributed worker, so both replay the same rows. Always records
/// the shard's row count; a zero `sample_count` draws nothing.
Status ScanGroupedShard(const storage::Block& values,
                        const storage::Block* predicate_block, PredicateOp op,
                        double literal, const storage::Block* key_block,
                        uint64_t shard, uint64_t stream_seed,
                        uint64_t sample_count, bool want_sketch,
                        runtime::ScratchArena* scratch,
                        GroupedBlockPartial* out);

/// The merged pilot of a grouped query, input to scan planning.
struct GroupedPilot {
  uint64_t pilot_samples = 0;  // rows scanned across blocks
  GroupMoments all;
  GroupMap groups;
};

/// Sizes the shared main scan from the pilot: for each group, Eq. (1) gives
/// the matching-sample requirement m_g = u²σ̂_g²/e²; dividing by the group's
/// observed selectivity f̂_g = n_g/pilot turns it into a scan requirement.
/// The scan is the largest per-group requirement, scaled by
/// options.sampling_rate_scale and clamped to [2, data_size]. A pilot that
/// scanned rows but matched nothing plans a 100×-pilot fallback scan
/// (clamped to data_size) so rare-but-present groups still surface; only a
/// pilot that scanned nothing plans 0.
/// When `want_sketch` is set, each group's matching-sample requirement also
/// covers the quantile contract: the DKW inequality needs
/// m ≥ ln(2/(1−β))/(2e²) matching samples for a uniform ±e rank band at
/// confidence β, with e read as options.precision in rank space (clamped
/// to ≤ 1).
Result<uint64_t> PlanGroupedScan(const GroupedPilot& pilot,
                                 const IslaOptions& options,
                                 uint64_t data_size,
                                 bool want_sketch = false);

/// One group's answer with its per-group precision contract.
struct GroupResult {
  double key = 0.0;             // group key (0 for the implicit group)
  double average = 0.0;         // estimated AVG over matching rows
  double sum = 0.0;             // average · count_estimate
  double count_estimate = 0.0;  // estimated matching-row cardinality
  double ci_half_width = 0.0;   // achieved half-width of the AVG CI at β
  double count_ci_half_width = 0.0;  // half-width of the COUNT CI at β
  uint64_t samples = 0;         // matching samples routed to this group
  bool meets_precision = false; // ci_half_width <= requested e

  // Quantile surface, filled by ApplyQuantileSummary on want_sketch runs.
  double quantile_value = 0.0;  // sketch value at the requested q
  double rank_error = 0.0;      // reported ±ε rank band (fraction of rows)
  double quantile_lo = 0.0;     // value band: Query(q − ε)
  double quantile_hi = 0.0;     //             Query(q + ε)
  uint64_t sketch_samples = 0;  // rows folded into this group's sketch
  std::vector<double> histogram;  // estimated matching rows per bin
  double histogram_lo = 0.0;    // histogram value range [lo, hi]
  double histogram_hi = 0.0;
};

/// Everything a grouped run produces.
struct GroupedAggregateResult {
  // Ascending by key; after ApplyTopK, descending by count_estimate
  // (ties: ascending key) and truncated to k.
  std::vector<GroupResult> groups;
  uint64_t data_size = 0;           // M
  uint64_t scanned_samples = 0;     // main-pass rows scanned
  uint64_t pilot_samples = 0;
  double precision = 0.0;           // requested e
  double confidence = 0.0;          // requested β
  uint64_t total_groups = 0;        // group count before any top-k cut
};

/// Turns merged main-pass partials into per-group answers. `scanned` is the
/// total rows scanned in the main pass; each group's cardinality estimate is
/// M·n_g/scanned, with a normal-approximation binomial CI.
Result<GroupedAggregateResult> SummarizeGroups(const GroupMap& merged,
                                               uint64_t data_size,
                                               uint64_t scanned,
                                               uint64_t pilot_samples,
                                               const IslaOptions& options);

/// Fills the per-group quantile/histogram fields of `result` from the
/// merged sketches. The reported rank band is the deterministic sketch
/// bound plus, when `sampled`, the DKW sampling term
/// √(ln(2/(1−β)) / (2·m_g)) at confidence β = options.confidence; the
/// value band [quantile_lo, quantile_hi] is the sketch queried at q ∓ ε.
/// Histogram bins are equal-width over the group's exact sampled
/// [min, max], scaled to estimated matching rows (count_estimate).
/// Pure post-processing: deterministic given the merged sketches.
Status ApplyQuantileSummary(const SketchMap& sketches,
                            const QuantileSummarySpec& summary,
                            const IslaOptions& options, bool sampled,
                            GroupedAggregateResult* result);

/// Keeps the `top_k` groups with the largest count_estimate (ties: the
/// smaller key wins), reordering them by descending count. A no-op when
/// top_k is 0 or not smaller than the group count. total_groups records
/// the pre-cut count either way.
void ApplyTopK(uint64_t top_k, GroupedAggregateResult* result);

/// What the grouped and ungrouped pipelines need to know about a sharded
/// table: per-shard row counts and per-shard calls, each safe to call
/// concurrently for different shards — ScanGroupedShard (`scan`, the
/// grouped pipeline), PilotShard (`pilot`) and SolveShard (`solve`, the
/// ungrouped pipeline, which reads shard rows from its σ pilot and `rows`
/// only for the shard count). The local engines run them on in-process
/// blocks; the distributed coordinator crosses a Transport.
struct ShardSet {
  std::vector<uint64_t> rows;
  std::function<Result<GroupedBlockPartial>(uint64_t shard,
                                            uint64_t stream_seed,
                                            uint64_t sample_count,
                                            bool want_sketch)>
      scan;
  std::function<Result<ShardPilot>(uint64_t shard, uint64_t stream_seed,
                                   uint64_t sample_count)>
      pilot;
  std::function<Result<BlockReport>(uint64_t shard, uint64_t sample_count,
                                    const SolvePlan& plan)>
      solve;
};

/// Pre-estimation: min(options.sigma_pilot_size, M) rows allocated over the
/// shards proportionally to their rows, shards fanned out across
/// options.parallelism threads (shards above a failed one are skipped),
/// partials merged in shard order. Never folds sketches.
Result<GroupedPilot> RunGroupedPilot(const ShardSet& shards,
                                     const IslaOptions& options,
                                     uint64_t seed_salt);

/// Calculation + Summarization: PlanGroupedScan on `pilot`, the shared scan
/// fanned out and merged like the pilot, then SummarizeGroups →
/// ApplyQuantileSummary (when `want_sketch`) → ApplyTopK.
Result<GroupedAggregateResult> RunGroupedAggregate(
    const ShardSet& shards, const GroupedPilot& pilot,
    const IslaOptions& options, uint64_t seed_salt, bool want_sketch,
    const QuantileSummarySpec& summary);

/// Grouped online aggregation: Pre-estimation (shared grouped pilot) →
/// Calculation (one shared scan, predicate evaluated on gathered batches,
/// matching rows routed to per-group accumulators) → Summarization (merge in
/// block order, per-group (e, β) contracts + COUNT estimates).
///
/// Each block is one shard of RunGroupedPilot/RunGroupedAggregate, sampled
/// on its own stream, so the answer is bit-identical for any
/// options().parallelism — and to distributed::Coordinator::AggregateGrouped,
/// which runs the same two calls over shards behind a Transport.
class GroupByEngine {
 public:
  /// `scratch` (nullable, unowned, must outlive the engine) supplies
  /// per-worker gather arenas; long-lived callers pass one pool so repeated
  /// queries run their inner loops allocation-free.
  explicit GroupByEngine(IslaOptions options,
                         runtime::ScratchPool* scratch = nullptr)
      : options_(options), scratch_(scratch) {}

  const IslaOptions& options() const { return options_; }

  /// Runs the full grouped pipeline: AggregateWithPilot(spec,
  /// Pilot(spec, seed_salt), seed_salt). `seed_salt` decorrelates repeated
  /// runs (and the executor's method variants).
  Result<GroupedAggregateResult> Aggregate(const GroupedSpec& spec,
                                           uint64_t seed_salt = 0) const;

  /// Pre-estimation alone. The pilot depends on the spec's columns,
  /// predicate and keys, on (seed, seed_salt, sigma_pilot_size), and on
  /// nothing else — not the precision target, not want_sketch, not
  /// parallelism — so a caller may reuse it across queries that agree on
  /// those.
  Result<GroupedPilot> Pilot(const GroupedSpec& spec,
                             uint64_t seed_salt = 0) const;

  /// Calculation + Summarization planned from `pilot`, which must be what
  /// Pilot(spec, seed_salt) returns under this engine's seed and pilot
  /// size. The answer is then bit-identical to Aggregate(spec, seed_salt).
  Result<GroupedAggregateResult> AggregateWithPilot(
      const GroupedSpec& spec, const GroupedPilot& pilot,
      uint64_t seed_salt = 0) const;

 private:
  /// The spec's blocks as the pipeline's shards, scanned in-process.
  ShardSet Shards(const GroupedSpec& spec) const;

  IslaOptions options_;
  runtime::ScratchPool* scratch_;
};

}  // namespace core
}  // namespace isla

#endif  // ISLA_CORE_GROUP_BY_H_

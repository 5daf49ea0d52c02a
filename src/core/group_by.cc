#include "core/group_by.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "runtime/kernels/kernels.h"
#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"
#include "stats/normal.h"

namespace isla {
namespace core {

std::string_view PredicateOpName(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq:
      return "=";
    case PredicateOp::kNe:
      return "!=";
    case PredicateOp::kLt:
      return "<";
    case PredicateOp::kLe:
      return "<=";
    case PredicateOp::kGt:
      return ">";
    case PredicateOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalPredicate(PredicateOp op, double lhs, double rhs) {
  if (std::isnan(lhs) || std::isnan(rhs)) return false;
  switch (op) {
    case PredicateOp::kEq:
      return lhs == rhs;
    case PredicateOp::kNe:
      return lhs != rhs;
    case PredicateOp::kLt:
      return lhs < rhs;
    case PredicateOp::kLe:
      return lhs <= rhs;
    case PredicateOp::kGt:
      return lhs > rhs;
    case PredicateOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

namespace {

/// PredicateOp and the kernel layer's CmpOp are value-identical by
/// construction; pin it so the cast below can never silently skew.
static_assert(static_cast<int>(PredicateOp::kEq) ==
              static_cast<int>(runtime::kernels::CmpOp::kEq));
static_assert(static_cast<int>(PredicateOp::kNe) ==
              static_cast<int>(runtime::kernels::CmpOp::kNe));
static_assert(static_cast<int>(PredicateOp::kLt) ==
              static_cast<int>(runtime::kernels::CmpOp::kLt));
static_assert(static_cast<int>(PredicateOp::kLe) ==
              static_cast<int>(runtime::kernels::CmpOp::kLe));
static_assert(static_cast<int>(PredicateOp::kGt) ==
              static_cast<int>(runtime::kernels::CmpOp::kGt));
static_assert(static_cast<int>(PredicateOp::kGe) ==
              static_cast<int>(runtime::kernels::CmpOp::kGe));

runtime::kernels::CmpOp ToCmpOp(PredicateOp op) {
  return static_cast<runtime::kernels::CmpOp>(op);
}

Status TooManyGroups() {
  return Status::ResourceExhausted("GROUP BY produced more than " +
                                   std::to_string(kMaxGroups) +
                                   " distinct keys");
}

}  // namespace

void EvalPredicateMask(PredicateOp op, std::span<const double> lhs,
                       double rhs, uint8_t* mask) {
  // Kernel-dispatched (AVX2 → scalar); SQL NaN semantics — a NaN on
  // either side never matches, including != — are part of the kernel
  // contract and bit-identical at every tier.
  runtime::kernels::Ops().eval_predicate_mask(ToCmpOp(op), lhs.data(),
                                              lhs.size(), rhs, mask);
}

Status GroupedBlockPartial::Merge(const GroupedBlockPartial& other) {
  block_rows += other.block_rows;
  scanned += other.scanned;
  all.Merge(other.all);
  for (const auto& [key, moments] : other.groups) {
    groups[key].Merge(moments);
    if (groups.size() > kMaxGroups) return TooManyGroups();
  }
  // Sketches merge in the same deterministic (key-ascending, partial-order)
  // sequence as the moments, preserving bit identity at any parallelism.
  for (const auto& [key, sketch] : other.sketches) {
    ISLA_RETURN_NOT_OK(sketches[key].Merge(sketch));
  }
  return Status::OK();
}

namespace {

Status CheckAligned(const storage::Column& values,
                    const storage::Column& other, std::string_view role) {
  if (other.num_blocks() != values.num_blocks() ||
      other.num_rows() != values.num_rows()) {
    return Status::FailedPrecondition(
        std::string(role) + " column '" + other.name() +
        "' is not row-aligned with value column '" + values.name() + "'");
  }
  for (size_t j = 0; j < values.num_blocks(); ++j) {
    if (other.blocks()[j]->size() != values.blocks()[j]->size()) {
      return Status::FailedPrecondition(
          std::string(role) + " column '" + other.name() + "' block " +
          std::to_string(j) + " disagrees in size with value column '" +
          values.name() + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Status RouteGroupedRow(const double* pred, PredicateOp op, double literal,
                       const double* key, double value, GroupMoments* all,
                       GroupMap* groups, SketchMap* sketches) {
  if (pred != nullptr && !EvalPredicate(op, *pred, literal)) {
    return Status::OK();
  }
  double group_key = 0.0;
  if (key != nullptr) {
    group_key = *key;
    if (std::isnan(group_key)) return Status::OK();
  }
  if (all != nullptr) all->Add(value);
  (*groups)[group_key].Add(value);
  if (sketches != nullptr) (*sketches)[group_key].Add(value);
  if (groups->size() > kMaxGroups) return TooManyGroups();
  return Status::OK();
}

Status RouteGroupedBatch(std::span<const double> values, const uint8_t* mask,
                         const double* keys, GroupMoments* all,
                         GroupMap* groups, runtime::ScratchArena* scratch,
                         SketchMap* sketches) {
  if (groups == nullptr) {
    return Status::InvalidArgument("groups must not be null");
  }
  const double* v = values.data();
  size_t n = values.size();
  const double* routed_keys = keys;
  if (scratch != nullptr && (mask != nullptr || keys != nullptr)) {
    // Filter first, accumulate second: the SIMD compaction kernels drop
    // non-matching rows and NaN group keys in one vector pass, and the
    // scalar Welford walk below only touches survivors. Survivor order is
    // the row order, so every accumulator sees the exact Add sequence of
    // the row-at-a-time loop — answers cannot move a bit.
    const auto& kernels = runtime::kernels::Ops();
    scratch->compact_values.resize(n);
    if (keys != nullptr) {
      scratch->compact_keys.resize(n);
      n = kernels.compact_grouped(v, keys, mask, n,
                                  scratch->compact_values.data(),
                                  scratch->compact_keys.data());
      routed_keys = scratch->compact_keys.data();
    } else {
      n = kernels.compact_masked(v, mask, n,
                                 scratch->compact_values.data());
    }
    v = scratch->compact_values.data();
    mask = nullptr;  // already applied by the compaction
  }
  for (size_t i = 0; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    double group_key = 0.0;
    if (routed_keys != nullptr) {
      group_key = routed_keys[i];
      if (std::isnan(group_key)) continue;
    }
    if (all != nullptr) all->Add(v[i]);
    (*groups)[group_key].Add(v[i]);
    if (sketches != nullptr) (*sketches)[group_key].Add(v[i]);
    if (groups->size() > kMaxGroups) return TooManyGroups();
  }
  return Status::OK();
}

Status ValidateGroupedSpec(const GroupedSpec& spec) {
  if (spec.values == nullptr) {
    return Status::InvalidArgument("grouped spec has no value column");
  }
  if (spec.values->num_rows() == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }
  if (spec.predicate != nullptr) {
    ISLA_RETURN_NOT_OK(CheckAligned(*spec.values, *spec.predicate,
                                    "predicate"));
  }
  if (spec.keys != nullptr) {
    ISLA_RETURN_NOT_OK(CheckAligned(*spec.values, *spec.keys, "group"));
  }
  return Status::OK();
}

Status RunGroupedBlockPass(const storage::Block& values,
                           const storage::Block* predicate_block,
                           PredicateOp op, double literal,
                           const storage::Block* key_block,
                           uint64_t sample_count, Xoshiro256* rng,
                           GroupedBlockPartial* out,
                           runtime::ScratchArena* scratch,
                           bool want_sketch) {
  if (rng == nullptr || out == nullptr) {
    return Status::InvalidArgument("rng and out must not be null");
  }
  out->block_rows = values.size();
  const uint64_t n = values.size();
  if (n == 0) return Status::FailedPrecondition("cannot sample empty block");
  if ((predicate_block != nullptr && predicate_block->size() != n) ||
      (key_block != nullptr && key_block->size() != n)) {
    return Status::FailedPrecondition(
        "grouped block pass columns are not row-aligned");
  }

  runtime::ScratchArena local;
  runtime::ScratchArena* s = scratch != nullptr ? scratch : &local;

  for (uint64_t done = 0; done < sample_count;) {
    const uint64_t batch =
        std::min<uint64_t>(sampling::kGatherBatch, sample_count - done);
    sampling::GenerateUniformIndices(n, batch, rng, &s->indices);
    // All columns gather the same positions, so (value, pred, key) triples
    // are row-consistent.
    s->values.resize(batch);
    ISLA_RETURN_NOT_OK(
        storage::GatherInto(values, s->indices, s->values.data()));
    const uint8_t* mask = nullptr;
    if (predicate_block != nullptr) {
      s->pred.resize(batch);
      ISLA_RETURN_NOT_OK(
          storage::GatherInto(*predicate_block, s->indices, s->pred.data()));
      s->mask.resize(batch);
      EvalPredicateMask(op, {s->pred.data(), batch}, literal,
                        s->mask.data());
      mask = s->mask.data();
    }
    const double* keys = nullptr;
    if (key_block != nullptr) {
      s->keys.resize(batch);
      ISLA_RETURN_NOT_OK(
          storage::GatherInto(*key_block, s->indices, s->keys.data()));
      keys = s->keys.data();
    }
    ISLA_RETURN_NOT_OK(RouteGroupedBatch(
        {s->values.data(), batch}, mask, keys, &out->all, &out->groups, s,
        want_sketch ? &out->sketches : nullptr));
    done += batch;
  }
  out->scanned += sample_count;
  return Status::OK();
}

Status ScanGroupedShard(const storage::Block& values,
                        const storage::Block* predicate_block, PredicateOp op,
                        double literal, const storage::Block* key_block,
                        uint64_t shard, uint64_t stream_seed,
                        uint64_t sample_count, bool want_sketch,
                        runtime::ScratchArena* scratch,
                        GroupedBlockPartial* out) {
  out->block_rows = values.size();
  if (sample_count == 0) return Status::OK();
  Xoshiro256 rng(SplitMix64::Hash(stream_seed, shard));
  return RunGroupedBlockPass(values, predicate_block, op, literal, key_block,
                             sample_count, &rng, out, scratch, want_sketch);
}

Result<uint64_t> PlanGroupedScan(const GroupedPilot& pilot,
                                 const IslaOptions& options,
                                 uint64_t data_size, bool want_sketch) {
  ISLA_RETURN_NOT_OK(options.Validate());
  if (data_size == 0) {
    return Status::InvalidArgument("data size must be > 0");
  }
  if (pilot.pilot_samples == 0) return 0;
  if (pilot.all.n == 0) {
    // The pilot matched nothing, which only bounds the selectivity by
    // ~1/pilot — it does not prove the predicate is empty. Scan two orders
    // of magnitude past the pilot (clamped to M) so rare-but-present
    // groups still surface instead of being silently reported as absent.
    const double fallback = 100.0 * static_cast<double>(pilot.pilot_samples);
    return static_cast<uint64_t>(
        std::min(fallback, static_cast<double>(data_size)));
  }

  // Quantile runs also satisfy the DKW rank contract per group:
  // m ≥ ln(2/(1−β))/(2e²) matching samples for a ±e rank band at β, with
  // the requested precision read in rank space (a rank error is at most
  // 1, so e clamps to 1).
  double m_dkw = 0.0;
  if (want_sketch) {
    const double e = std::min(options.precision, 1.0);
    m_dkw = std::ceil(std::log(2.0 / (1.0 - options.confidence)) /
                      (2.0 * e * e));
  }

  const double pilot_n = static_cast<double>(pilot.pilot_samples);
  double scan = 2.0;
  for (const auto& [key, moments] : pilot.groups) {
    (void)key;
    const double selectivity = static_cast<double>(moments.n) / pilot_n;
    double sigma = std::sqrt(moments.Variance());
    uint64_t m_g = 2;
    if (sigma > 0.0) {
      ISLA_ASSIGN_OR_RETURN(m_g,
                            stats::RequiredSampleSize(sigma, options.precision,
                                                      options.confidence));
    }
    const double m_need = std::max(static_cast<double>(m_g), m_dkw);
    scan = std::max(scan, std::ceil(m_need / selectivity));
  }
  scan = std::ceil(scan * options.sampling_rate_scale);
  if (!(scan >= 2.0)) scan = 2.0;
  const double cap = static_cast<double>(data_size);
  return static_cast<uint64_t>(std::min(scan, cap));
}

Result<GroupedAggregateResult> SummarizeGroups(const GroupMap& merged,
                                               uint64_t data_size,
                                               uint64_t scanned,
                                               uint64_t pilot_samples,
                                               const IslaOptions& options) {
  ISLA_RETURN_NOT_OK(options.Validate());
  GroupedAggregateResult out;
  out.data_size = data_size;
  out.scanned_samples = scanned;
  out.pilot_samples = pilot_samples;
  out.precision = options.precision;
  out.confidence = options.confidence;
  if (scanned == 0) return out;

  const double u = stats::TwoSidedZ(options.confidence);
  const double m_total = static_cast<double>(data_size);
  const double scanned_d = static_cast<double>(scanned);
  out.groups.reserve(merged.size());
  for (const auto& [key, moments] : merged) {
    if (moments.n == 0) continue;
    GroupResult g;
    g.key = key;
    g.samples = moments.n;
    g.average = moments.mean;
    const double p = static_cast<double>(moments.n) / scanned_d;
    g.count_estimate = m_total * p;
    g.sum = g.average * g.count_estimate;
    const double sigma = std::sqrt(moments.Variance());
    g.ci_half_width =
        u * sigma / std::sqrt(static_cast<double>(moments.n));
    g.count_ci_half_width =
        u * m_total * std::sqrt(p * (1.0 - p) / scanned_d);
    g.meets_precision = g.ci_half_width <= options.precision;
    out.groups.push_back(g);
  }
  out.total_groups = out.groups.size();
  return out;
}

Status ApplyQuantileSummary(const SketchMap& sketches,
                            const QuantileSummarySpec& summary,
                            const IslaOptions& options, bool sampled,
                            GroupedAggregateResult* result) {
  if (result == nullptr) {
    return Status::InvalidArgument("result must not be null");
  }
  const bool want_quantile = summary.quantile_q >= 0.0;
  const bool want_histogram = summary.histogram_bins > 0;
  if (!want_quantile && !want_histogram) return Status::OK();
  for (GroupResult& g : result->groups) {
    auto it = sketches.find(g.key);
    if (it == sketches.end() || it->second.count() == 0) {
      return Status::Internal(
          "group has moments but no quantile sketch — sketch accumulation "
          "was not enabled on the scan");
    }
    const stats::QuantileSketch& s = it->second;
    g.sketch_samples = s.count();
    // Reported rank band: the deterministic sketch bound, plus the DKW
    // uniform-CDF sampling term when the sketch saw a sample rather than
    // every matching row.
    double eps = s.RankErrorFraction();
    if (sampled) {
      eps += std::sqrt(std::log(2.0 / (1.0 - options.confidence)) /
                       (2.0 * static_cast<double>(s.count())));
    }
    if (eps > 1.0) eps = 1.0;
    g.rank_error = eps;
    if (want_quantile) {
      const double q = summary.quantile_q;
      g.quantile_value = s.Query(q);
      g.quantile_lo = s.Query(q - eps);
      g.quantile_hi = s.Query(q + eps);
      g.meets_precision = eps <= options.precision;
    }
    if (want_histogram) {
      g.histogram = s.Histogram(summary.histogram_bins);
      // Scale sample weights to estimated matching rows.
      const double factor =
          g.count_estimate / static_cast<double>(s.count());
      for (double& b : g.histogram) b *= factor;
      g.histogram_lo = s.min();
      g.histogram_hi = s.max();
    }
  }
  return Status::OK();
}

void ApplyTopK(uint64_t top_k, GroupedAggregateResult* result) {
  result->total_groups = result->groups.size();
  if (top_k == 0 || top_k >= result->groups.size()) return;
  std::stable_sort(result->groups.begin(), result->groups.end(),
                   [](const GroupResult& a, const GroupResult& b) {
                     if (a.count_estimate != b.count_estimate) {
                       return a.count_estimate > b.count_estimate;
                     }
                     return a.key < b.key;
                   });
  result->groups.resize(top_k);
}

namespace {

// Domain-separation salts of the two grouped phases: shard j of a phase
// samples on Hash(Hash(seed, seed_salt ^ phase_salt), j).
constexpr uint64_t kGroupPilotSalt = 0x6b70110ULL;
constexpr uint64_t kGroupCalcSalt = 0x6bca1cULL;

/// One phase: `sample_count` rows allocated proportionally over the shards,
/// every shard scanned on its own stream, partials merged into `merged` in
/// shard order — so the merge, and the answer, never depend on the
/// schedule.
Status RunGroupedPhase(const ShardSet& shards, const IslaOptions& options,
                       uint64_t seed_salt, uint64_t phase_salt,
                       uint64_t sample_count, bool want_sketch,
                       GroupedBlockPartial* merged) {
  const uint64_t stream_seed =
      SplitMix64::Hash(options.seed, seed_salt ^ phase_salt);
  const std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(shards.rows, sample_count);
  std::vector<GroupedBlockPartial> partials(shards.rows.size());
  ISLA_RETURN_NOT_OK(runtime::ParallelFor(
      partials.size(), options.parallelism, [&](uint64_t j) -> Status {
        ISLA_ASSIGN_OR_RETURN(
            partials[j], shards.scan(j, stream_seed, alloc[j], want_sketch));
        return Status::OK();
      }));
  for (const GroupedBlockPartial& partial : partials) {
    ISLA_RETURN_NOT_OK(merged->Merge(partial));
  }
  return Status::OK();
}

uint64_t TotalRows(const ShardSet& shards) {
  return std::accumulate(shards.rows.begin(), shards.rows.end(), uint64_t{0});
}

}  // namespace

Result<GroupedPilot> RunGroupedPilot(const ShardSet& shards,
                                     const IslaOptions& options,
                                     uint64_t seed_salt) {
  const uint64_t pilot_size =
      std::min<uint64_t>(options.sigma_pilot_size, TotalRows(shards));
  GroupedBlockPartial merged;
  ISLA_RETURN_NOT_OK(RunGroupedPhase(shards, options, seed_salt,
                                     kGroupPilotSalt, pilot_size,
                                     /*want_sketch=*/false, &merged));
  GroupedPilot pilot;
  pilot.pilot_samples = merged.scanned;
  pilot.all = merged.all;
  pilot.groups = std::move(merged.groups);
  return pilot;
}

Result<GroupedAggregateResult> RunGroupedAggregate(
    const ShardSet& shards, const GroupedPilot& pilot,
    const IslaOptions& options, uint64_t seed_salt, bool want_sketch,
    const QuantileSummarySpec& summary) {
  const uint64_t data_size = TotalRows(shards);

  // --- Calculation: one shared scan sized for the weakest group ---
  ISLA_ASSIGN_OR_RETURN(
      uint64_t scan, PlanGroupedScan(pilot, options, data_size, want_sketch));
  GroupedBlockPartial merged;
  if (scan > 0) {
    ISLA_RETURN_NOT_OK(RunGroupedPhase(shards, options, seed_salt,
                                       kGroupCalcSalt, scan, want_sketch,
                                       &merged));
  }

  // --- Summarization: per-group answers + (e, β) contracts ---
  ISLA_ASSIGN_OR_RETURN(GroupedAggregateResult result,
                        SummarizeGroups(merged.groups, data_size,
                                        merged.scanned, pilot.pilot_samples,
                                        options));
  if (want_sketch) {
    ISLA_RETURN_NOT_OK(ApplyQuantileSummary(merged.sketches, summary, options,
                                            /*sampled=*/true, &result));
  }
  ApplyTopK(summary.top_k, &result);
  return result;
}

ShardSet GroupByEngine::Shards(const GroupedSpec& spec) const {
  ShardSet shards;
  for (const auto& b : spec.values->blocks()) shards.rows.push_back(b->size());
  shards.scan = [this, &spec](uint64_t j, uint64_t stream_seed,
                              uint64_t sample_count, bool want_sketch)
      -> Result<GroupedBlockPartial> {
    auto block_of = [j](const storage::Column* col) {
      return col == nullptr ? nullptr : col->blocks()[j].get();
    };
    runtime::ScratchPool::Lease lease;
    if (scratch_ != nullptr) lease = scratch_->Acquire();
    GroupedBlockPartial partial;
    ISLA_RETURN_NOT_OK(ScanGroupedShard(
        *spec.values->blocks()[j], block_of(spec.predicate), spec.op,
        spec.literal, block_of(spec.keys), j, stream_seed, sample_count,
        want_sketch, lease.get(), &partial));
    return partial;
  };
  return shards;
}

Result<GroupedPilot> GroupByEngine::Pilot(const GroupedSpec& spec,
                                          uint64_t seed_salt) const {
  ISLA_RETURN_NOT_OK(options_.Validate());
  ISLA_RETURN_NOT_OK(ValidateGroupedSpec(spec));
  return RunGroupedPilot(Shards(spec), options_, seed_salt);
}

Result<GroupedAggregateResult> GroupByEngine::AggregateWithPilot(
    const GroupedSpec& spec, const GroupedPilot& pilot,
    uint64_t seed_salt) const {
  ISLA_RETURN_NOT_OK(options_.Validate());
  ISLA_RETURN_NOT_OK(ValidateGroupedSpec(spec));
  return RunGroupedAggregate(Shards(spec), pilot, options_, seed_salt,
                             spec.want_sketch, spec.summary);
}

Result<GroupedAggregateResult> GroupByEngine::Aggregate(
    const GroupedSpec& spec, uint64_t seed_salt) const {
  // --- Pre-estimation: shared grouped pilot ---
  ISLA_ASSIGN_OR_RETURN(GroupedPilot pilot, Pilot(spec, seed_salt));
  return AggregateWithPilot(spec, pilot, seed_salt);
}

}  // namespace core
}  // namespace isla

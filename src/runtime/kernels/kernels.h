#ifndef ISLA_RUNTIME_KERNELS_KERNELS_H_
#define ISLA_RUNTIME_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace isla {
namespace runtime {
namespace kernels {

/// Instruction-set tiers of the kernel library, ordered weakest to
/// strongest. Dispatch picks the strongest tier the CPU supports once at
/// first use; `ISLA_KERNELS=scalar|avx2` forces a weaker tier for testing
/// the fallback path.
enum class DispatchLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" / "avx2".
std::string_view DispatchLevelName(DispatchLevel level);

/// Parses "scalar"/"avx2" (the ISLA_KERNELS spellings). Returns false on
/// anything else.
bool DispatchLevelFromString(std::string_view name, DispatchLevel* out);

/// Comparison operator of the predicate-mask kernel. Values deliberately
/// mirror core::PredicateOp so the core layer converts with a checked
/// static_cast instead of a switch.
enum class CmpOp : int {
  kEq = 0,
  kNe = 1,
  kLt = 2,
  kLe = 3,
  kGt = 4,
  kGe = 5,
};

/// Number of independent accumulator lanes of the striped reductions
/// (sum/min below). Element i folds into lane i % kStripeLanes in index
/// order; a fixed scalar reduction combines the lanes at the end. The
/// scalar implementation executes this exact schedule, so the AVX2 tier
/// (two registers of 4 doubles) reproduces it lane for lane and every tier
/// returns bit-identical doubles.
inline constexpr size_t kStripeLanes = 8;

/// The kernel dispatch table: one function pointer per vectorizable inner
/// loop of the sampling/aggregation hot path, each with a caller in the
/// engine. Every entry has a scalar reference implementation that
/// *defines* the semantics; AVX2 entries must be bit-identical to it for
/// every input (pinned by tests/kernels_test.cc at every supported tier).
/// None of the kernels allocates.
struct KernelOps {
  /// out[i] = the i-th Xoshiro256::NextBounded(n) draw of `rng`, for
  /// i < count — the index stream every sampler consumes. RNG consumption
  /// is exactly that of the scalar NextBounded loop (including Lemire
  /// rejection replays), so batch generation at any tier leaves `rng` in
  /// the identical state and emits the identical sequence.
  void (*generate_uniform_indices)(uint64_t n, uint64_t count,
                                   Xoshiro256* rng, uint64_t* out);

  /// mask[i] = 1 when `v[i] op rhs` holds, else 0, with SQL NaN semantics:
  /// a NaN on either side never matches, including kNe.
  void (*eval_predicate_mask)(CmpOp op, const double* v, size_t n,
                              double rhs, uint8_t* mask);

  /// Order-preserving compaction: copies v[i] where mask[i] != 0 into
  /// `out`, returning the survivor count m. `out` must have room for n
  /// values (implementations may store whole SIMD groups past slot m).
  /// In-place operation (out == v) is allowed; partial overlap is not.
  size_t (*compact_masked)(const double* v, const uint8_t* mask, size_t n,
                           double* out);

  /// Grouped-row compaction, the filter half of RouteGroupedBatch: row i
  /// survives when (mask == nullptr || mask[i] != 0) and
  /// (keys == nullptr || keys[i] is not NaN). Survivor values land in
  /// out_v and, when keys != nullptr, their keys land in out_k at the same
  /// slots, order preserved. Buffers need room for n values each; in-place
  /// (out_v == v, out_k == keys) is allowed. Returns the survivor count.
  size_t (*compact_grouped)(const double* v, const double* keys,
                            const uint8_t* mask, size_t n, double* out_v,
                            double* out_k);

  /// Region split of the ISLA Calculation phase: with a = v[i] + shift,
  /// appends a to out_s when lo_outer < a < lo_inner (region S), else to
  /// out_l when hi_inner < a < hi_outer (region L), order preserved; NaN
  /// lands in neither, and S takes precedence should the windows ever
  /// overlap (only possible when lo_inner > hi_inner — real boundaries
  /// from DataBoundaries::Create are always disjoint). *s_count /
  /// *l_count receive the region sizes. Both buffers need room for n
  /// values.
  void (*classify_regions)(const double* v, size_t n, double shift,
                           double lo_outer, double lo_inner,
                           double hi_inner, double hi_outer, double* out_s,
                           size_t* s_count, double* out_l, size_t* l_count);

  /// out[i] = base[idx[i]]. No bounds checks — validate with
  /// indices_in_range first. Duplicate and unsorted indices are fine.
  void (*gather_f64)(const double* base, const uint64_t* idx, size_t n,
                     double* out);

  /// True when every idx[i] < bound (vacuously true for n == 0).
  bool (*indices_in_range)(const uint64_t* idx, size_t n, uint64_t bound);

  /// Neumaier-compensated striped sum of v[0..n) (see kStripeLanes).
  /// Returns 0.0 for n == 0. Bit-identical across tiers for every input
  /// with one caveat: once the sum is NaN, *which* NaN (sign/payload) is
  /// unspecified — x86 propagates the first operand's payload through
  /// two-NaN adds, and a compiler may legally swap a commutative scalar
  /// add, so payload identity is unachievable even scalar-vs-scalar. All
  /// tiers agree the result is NaN in exactly the same cases.
  double (*sum)(const double* v, size_t n);

  /// Striped min with lane update `(v < lane) ? v : lane`: NaN rows are
  /// ignored; ties (including ±0.0) keep the incumbent. Empty input
  /// returns +inf.
  double (*min)(const double* v, size_t n);

  /// Strided half-compaction — the survivor pass of the quantile-sketch
  /// compactor: copies v[offset], v[offset + 2], ... (indices < n) into
  /// `out`, returning the number copied. `offset` must be 0 or 1. `out`
  /// needs room for (n + 1) / 2 values; in-place (out == v) is allowed
  /// (writes trail reads). Pure element copies, so bit identity across
  /// tiers is structural.
  size_t (*compact_stride2)(const double* v, size_t n, size_t offset,
                            double* out);
};

/// The dispatch table selected for this process: the strongest tier the CPU
/// supports, unless ISLA_KERNELS forces a weaker one. Resolved once,
/// thread-safe, never allocates after the first call.
const KernelOps& Ops();

/// The tier Ops() resolved to.
DispatchLevel ActiveLevel();

/// Convenience: DispatchLevelName(ActiveLevel()).
std::string_view ActiveLevelName();

/// The strongest tier this CPU can execute, ignoring ISLA_KERNELS.
DispatchLevel DetectBestLevel();

/// True when `level`'s table is compiled into this binary (the AVX2 table
/// exists only on x86-64).
bool LevelCompiled(DispatchLevel level);

/// True when `level` is compiled in AND the CPU can execute it. Benches and
/// equivalence tests iterate supported tiers explicitly via OpsFor.
bool LevelSupported(DispatchLevel level);

/// Every tier this machine can execute, weakest (scalar) first — the one
/// definition of "tiers to compare" shared by bench_kernels and the
/// equivalence tests, so a new tier cannot be silently dropped from one.
std::vector<DispatchLevel> SupportedLevels();

/// The table of a specific tier, for same-run tier comparisons. Falls back
/// to the scalar table when `level` is not compiled in; the caller must
/// check LevelSupported before *executing* AVX2 entries.
const KernelOps& OpsFor(DispatchLevel level);

/// Comma-separated SIMD feature list of this CPU ("sse2,sse4.2,avx,avx2"),
/// for perf-trajectory JSON: rows/sec are only comparable across machines
/// when the records say what silicon produced them.
std::string CpuFeatureString();

}  // namespace kernels
}  // namespace runtime
}  // namespace isla

#endif  // ISLA_RUNTIME_KERNELS_KERNELS_H_

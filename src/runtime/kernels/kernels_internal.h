#ifndef ISLA_RUNTIME_KERNELS_KERNELS_INTERNAL_H_
#define ISLA_RUNTIME_KERNELS_KERNELS_INTERNAL_H_

// Shared building blocks of the kernel tiers. Everything here is plain
// scalar code included by every kernels_*.cc translation unit, so the
// pieces that must be bit-identical across tiers — the Neumaier update,
// the striped-lane schedule, the final lane reductions, the scalar tail
// loops — have exactly one definition. SIMD files vectorize the full-width
// middle of each loop and delegate heads/tails/reductions to these.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "runtime/kernels/kernels.h"

namespace isla {
namespace runtime {
namespace kernels {
namespace internal {

/// One Neumaier (improved Kahan) update of a (sum, compensation) pair.
/// The branch arms mirror stats::CompensatedSum; SIMD tiers implement the
/// same select branchlessly, which is bit-identical because both arms are
/// evaluated from the same operands.
inline void NeumaierStep(double& sum, double& comp, double v) {
  const double t = sum + v;
  if (std::abs(sum) >= std::abs(v)) {
    comp += (sum - t) + v;
  } else {
    comp += (v - t) + sum;
  }
  sum = t;
}

/// Lane update of the striped min: keep the incumbent on ties and NaN.
inline double MinStep(double lane, double v) { return v < lane ? v : lane; }

/// The fixed final reduction of a striped sum: lanes then compensations,
/// in lane order, through one more Neumaier accumulator. Every tier calls
/// this exact function on its spilled lane arrays.
inline double ReduceStripedSum(const double* sum, const double* comp) {
  double s = 0.0;
  double c = 0.0;
  for (size_t j = 0; j < kStripeLanes; ++j) NeumaierStep(s, c, sum[j]);
  for (size_t j = 0; j < kStripeLanes; ++j) NeumaierStep(s, c, comp[j]);
  return s + c;
}

inline double ReduceStripedMin(const double* lanes) {
  double m = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < kStripeLanes; ++j) m = MinStep(m, lanes[j]);
  return m;
}

/// Scalar predicate evaluation, one element. IEEE comparisons already give
/// SQL's NaN-never-matches for ==, <, <=, >, >=; != needs the explicit
/// self-equality term. NaN rhs is handled by the caller (all-zero mask).
inline uint8_t EvalOne(CmpOp op, double v, double rhs) {
  switch (op) {
    case CmpOp::kEq:
      return static_cast<uint8_t>(v == rhs);
    case CmpOp::kNe:
      return static_cast<uint8_t>((v == v) & (v != rhs));
    case CmpOp::kLt:
      return static_cast<uint8_t>(v < rhs);
    case CmpOp::kLe:
      return static_cast<uint8_t>(v <= rhs);
    case CmpOp::kGt:
      return static_cast<uint8_t>(v > rhs);
    case CmpOp::kGe:
      return static_cast<uint8_t>(v >= rhs);
  }
  return 0;
}

/// Scalar tail of the striped accumulators: folds v[i] for i in
/// [start, n) into lanes[i % kStripeLanes] / comps[i % kStripeLanes].
inline void SumTail(const double* v, size_t start, size_t n, double* lanes,
                    double* comps) {
  for (size_t i = start; i < n; ++i) {
    NeumaierStep(lanes[i % kStripeLanes], comps[i % kStripeLanes], v[i]);
  }
}

inline void MinTail(const double* v, size_t start, size_t n, double* lanes) {
  for (size_t i = start; i < n; ++i) {
    double& lane = lanes[i % kStripeLanes];
    lane = MinStep(lane, v[i]);
  }
}

/// The scalar tier's table (also the fallback entry set the AVX2 table
/// borrows for kernels where SIMD does not pay).
const KernelOps& ScalarOps();

/// The AVX2 table; null when not compiled into this binary (non-x86-64).
const KernelOps* Avx2Ops();

}  // namespace internal
}  // namespace kernels
}  // namespace runtime
}  // namespace isla

#endif  // ISLA_RUNTIME_KERNELS_KERNELS_INTERNAL_H_

// Scalar reference tier: the semantic ground truth of every kernel. The
// AVX2 tier must match these functions bit for bit on every input
// (tests/kernels_test.cc enforces it), so any change here is a change to
// the kernel contract itself. Compiled with auto-vectorization disabled
// (see CMakeLists.txt): the reference stays genuinely scalar, which keeps
// tier-vs-tier benchmark ratios meaningful and the code a readable spec.

#include <cmath>
#include <cstring>

#include "runtime/kernels/kernels_internal.h"

namespace isla {
namespace runtime {
namespace kernels {
namespace internal {
namespace {

void GenerateUniformIndicesScalar(uint64_t n, uint64_t count, Xoshiro256* rng,
                                  uint64_t* out) {
  // NextBounded(0) returns 0 without consuming a draw; mirror that.
  if (n == 0) {
    std::memset(out, 0, count * sizeof(uint64_t));
    return;
  }
  // Draw from a local copy: `out` is uint64_t* and may alias the RNG's
  // uint64_t state words as far as the compiler knows, which would force a
  // state spill/reload around every store — a ~30x slowdown on this loop.
  // A local whose address never escapes stays in registers.
  Xoshiro256 local = *rng;
  for (uint64_t i = 0; i < count; ++i) out[i] = local.NextBounded(n);
  *rng = local;
}

void EvalPredicateMaskScalar(CmpOp op, const double* v, size_t n, double rhs,
                             uint8_t* mask) {
  if (std::isnan(rhs)) {
    std::memset(mask, 0, n);
    return;
  }
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i) {
        mask[i] = static_cast<uint8_t>(v[i] == rhs);
      }
      return;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i) {
        mask[i] = static_cast<uint8_t>((v[i] == v[i]) & (v[i] != rhs));
      }
      return;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i) {
        mask[i] = static_cast<uint8_t>(v[i] < rhs);
      }
      return;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i) {
        mask[i] = static_cast<uint8_t>(v[i] <= rhs);
      }
      return;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i) {
        mask[i] = static_cast<uint8_t>(v[i] > rhs);
      }
      return;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i) {
        mask[i] = static_cast<uint8_t>(v[i] >= rhs);
      }
      return;
  }
  // Unreachable for a valid CmpOp; a drifted cast from a wider caller enum
  // must yield an empty match set, never stale mask bytes.
  std::memset(mask, 0, n);
}

size_t CompactMaskedScalar(const double* v, const uint8_t* mask, size_t n,
                           double* out) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    if (mask[i] != 0) out[m++] = v[i];
  }
  return m;
}

size_t CompactGroupedScalar(const double* v, const double* keys,
                            const uint8_t* mask, size_t n, double* out_v,
                            double* out_k) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    if (keys != nullptr) {
      const double k = keys[i];
      if (k != k) continue;  // NaN group keys are dropped
      out_k[m] = k;
    }
    out_v[m] = v[i];
    ++m;
  }
  return m;
}

void ClassifyRegionsScalar(const double* v, size_t n, double shift,
                           double lo_outer, double lo_inner, double hi_inner,
                           double hi_outer, double* out_s, size_t* s_count,
                           double* out_l, size_t* l_count) {
  size_t ns = 0;
  size_t nl = 0;
  for (size_t i = 0; i < n; ++i) {
    const double a = v[i] + shift;
    if (a > lo_outer && a < lo_inner) {
      out_s[ns++] = a;
    } else if (a > hi_inner && a < hi_outer) {
      out_l[nl++] = a;
    }
  }
  *s_count = ns;
  *l_count = nl;
}

void GatherF64Scalar(const double* base, const uint64_t* idx, size_t n,
                     double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = base[idx[i]];
}

bool IndicesInRangeScalar(const uint64_t* idx, size_t n, uint64_t bound) {
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) bad |= idx[i] >= bound ? 1u : 0u;
  return bad == 0;
}

double SumScalar(const double* v, size_t n) {
  double lanes[kStripeLanes] = {0.0};
  double comps[kStripeLanes] = {0.0};
  SumTail(v, 0, n, lanes, comps);
  return ReduceStripedSum(lanes, comps);
}

double MinScalar(const double* v, size_t n) {
  double lanes[kStripeLanes];
  for (double& lane : lanes) {
    lane = std::numeric_limits<double>::infinity();
  }
  MinTail(v, 0, n, lanes);
  return ReduceStripedMin(lanes);
}

size_t CompactStride2Scalar(const double* v, size_t n, size_t offset,
                            double* out) {
  size_t m = 0;
  for (size_t i = offset; i < n; i += 2) out[m++] = v[i];
  return m;
}

}  // namespace

const KernelOps& ScalarOps() {
  static constexpr KernelOps ops = {
      GenerateUniformIndicesScalar,
      EvalPredicateMaskScalar,
      CompactMaskedScalar,
      CompactGroupedScalar,
      ClassifyRegionsScalar,
      GatherF64Scalar,
      IndicesInRangeScalar,
      SumScalar,
      MinScalar,
      CompactStride2Scalar,
  };
  return ops;
}

}  // namespace internal
}  // namespace kernels
}  // namespace runtime
}  // namespace isla

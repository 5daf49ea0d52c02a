// AVX2 tier: 4 doubles per vector op. Compiled with -mavx2 (CMake adds the
// flag on x86-64 targets only); every function must be bit-identical to the
// scalar reference in kernels_scalar.cc — the vector loops execute the same
// IEEE operations on the same operands in the same striped schedule, and
// heads/tails/reductions are delegated to the shared scalar helpers.

#include "runtime/kernels/kernels_internal.h"

// 64-bit only: ILP32 x86 would pair this tier with an x87 scalar
// reference (see CMakeLists.txt), breaking bit-identity.
#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace isla {
namespace runtime {
namespace kernels {
namespace internal {
namespace {

/// epi32 permutation that packs the kept doubles (bit k of the index =
/// keep double k) to the front of a 256-bit register, as pairs of 32-bit
/// lanes. Slots past the survivor count are don't-care padding.
alignas(32) const uint32_t kCompress4[16][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0},  // 0000
    {0, 1, 0, 0, 0, 0, 0, 0},  // 0001
    {2, 3, 0, 0, 0, 0, 0, 0},  // 0010
    {0, 1, 2, 3, 0, 0, 0, 0},  // 0011
    {4, 5, 0, 0, 0, 0, 0, 0},  // 0100
    {0, 1, 4, 5, 0, 0, 0, 0},  // 0101
    {2, 3, 4, 5, 0, 0, 0, 0},  // 0110
    {0, 1, 2, 3, 4, 5, 0, 0},  // 0111
    {6, 7, 0, 0, 0, 0, 0, 0},  // 1000
    {0, 1, 6, 7, 0, 0, 0, 0},  // 1001
    {2, 3, 6, 7, 0, 0, 0, 0},  // 1010
    {0, 1, 2, 3, 6, 7, 0, 0},  // 1011
    {4, 5, 6, 7, 0, 0, 0, 0},  // 1100
    {0, 1, 4, 5, 6, 7, 0, 0},  // 1101
    {2, 3, 4, 5, 6, 7, 0, 0},  // 1110
    {0, 1, 2, 3, 4, 5, 6, 7},  // 1111
};

const uint8_t kPop4[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                           1, 2, 2, 3, 2, 3, 3, 4};

/// movemask nibble -> four 0/1 mask bytes as a little-endian u32.
const uint32_t kMaskBytes4[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u,
};

/// 4 mask bytes -> movemask-style nibble (bit k set when byte k nonzero).
inline uint32_t MaskNibble(const uint8_t* mask) {
  uint32_t x;
  std::memcpy(&x, mask, 4);
  x |= x >> 4;
  x |= x >> 2;
  x |= x >> 1;
  x &= 0x01010101u;
  return ((x * 0x01020408u) >> 24) & 0xFu;
}

inline __m256d CompressPd(__m256d v, uint32_t nibble) {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompress4[nibble]));
  return _mm256_castsi256_pd(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), perm));
}

template <int kImm>
void EvalMaskLoop(const double* v, size_t n, double rhs, CmpOp op,
                  uint8_t* mask) {
  const __m256d r = _mm256_set1_pd(rhs);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int bits =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(v + i), r, kImm));
    std::memcpy(mask + i, &kMaskBytes4[bits], 4);
  }
  for (; i < n; ++i) mask[i] = EvalOne(op, v[i], rhs);
}

void EvalPredicateMaskAvx2(CmpOp op, const double* v, size_t n, double rhs,
                           uint8_t* mask) {
  if (std::isnan(rhs)) {
    std::memset(mask, 0, n);
    return;
  }
  switch (op) {
    case CmpOp::kEq:
      EvalMaskLoop<_CMP_EQ_OQ>(v, n, rhs, op, mask);
      return;
    case CmpOp::kNe:
      // Ordered non-equal: NaN lhs compares false, matching the scalar
      // (v == v) & (v != rhs).
      EvalMaskLoop<_CMP_NEQ_OQ>(v, n, rhs, op, mask);
      return;
    case CmpOp::kLt:
      EvalMaskLoop<_CMP_LT_OQ>(v, n, rhs, op, mask);
      return;
    case CmpOp::kLe:
      EvalMaskLoop<_CMP_LE_OQ>(v, n, rhs, op, mask);
      return;
    case CmpOp::kGt:
      EvalMaskLoop<_CMP_GT_OQ>(v, n, rhs, op, mask);
      return;
    case CmpOp::kGe:
      EvalMaskLoop<_CMP_GE_OQ>(v, n, rhs, op, mask);
      return;
  }
  // Unreachable for a valid CmpOp; a drifted cast from a wider caller enum
  // must yield an empty match set, never stale mask bytes.
  std::memset(mask, 0, n);
}

size_t CompactMaskedAvx2(const double* v, const uint8_t* mask, size_t n,
                         double* out) {
  size_t m = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32_t bits = MaskNibble(mask + i);
    if (bits == 0) continue;
    // Writing the full 4-wide group past slot m is within the out[n]
    // capacity contract, and in-place (out == v) stays safe because
    // m <= i: the store never touches v[i + 4] and beyond.
    _mm256_storeu_pd(out + m, CompressPd(_mm256_loadu_pd(v + i), bits));
    m += kPop4[bits];
  }
  for (; i < n; ++i) {
    if (mask[i] != 0) out[m++] = v[i];
  }
  return m;
}

size_t CompactGroupedAvx2(const double* v, const double* keys,
                          const uint8_t* mask, size_t n, double* out_v,
                          double* out_k) {
  if (mask == nullptr && keys == nullptr) {
    if (out_v != v) std::memcpy(out_v, v, n * sizeof(double));
    return n;
  }
  size_t m = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t bits = 0xFu;
    if (mask != nullptr) bits &= MaskNibble(mask + i);
    __m256d kvec = _mm256_setzero_pd();
    if (keys != nullptr) {
      kvec = _mm256_loadu_pd(keys + i);
      bits &= static_cast<uint32_t>(
          _mm256_movemask_pd(_mm256_cmp_pd(kvec, kvec, _CMP_ORD_Q)));
    }
    if (bits == 0) continue;
    _mm256_storeu_pd(out_v + m, CompressPd(_mm256_loadu_pd(v + i), bits));
    if (keys != nullptr) {
      _mm256_storeu_pd(out_k + m, CompressPd(kvec, bits));
    }
    m += kPop4[bits];
  }
  for (; i < n; ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    if (keys != nullptr) {
      const double k = keys[i];
      if (k != k) continue;
      out_k[m] = k;
    }
    out_v[m] = v[i];
    ++m;
  }
  return m;
}

void ClassifyRegionsAvx2(const double* v, size_t n, double shift,
                         double lo_outer, double lo_inner, double hi_inner,
                         double hi_outer, double* out_s, size_t* s_count,
                         double* out_l, size_t* l_count) {
  const __m256d sh = _mm256_set1_pd(shift);
  const __m256d lo2 = _mm256_set1_pd(lo_outer);
  const __m256d lo1 = _mm256_set1_pd(lo_inner);
  const __m256d hi1 = _mm256_set1_pd(hi_inner);
  const __m256d hi2 = _mm256_set1_pd(hi_outer);
  size_t ns = 0;
  size_t nl = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_add_pd(_mm256_loadu_pd(v + i), sh);
    const __m256d s_cond =
        _mm256_and_pd(_mm256_cmp_pd(a, lo2, _CMP_GT_OQ),
                      _mm256_cmp_pd(a, lo1, _CMP_LT_OQ));
    const uint32_t sb =
        static_cast<uint32_t>(_mm256_movemask_pd(s_cond));
    // andnot gives S precedence on (contract-pathological) overlapping
    // windows, mirroring the scalar reference's else-if.
    const uint32_t lb = static_cast<uint32_t>(_mm256_movemask_pd(
        _mm256_andnot_pd(s_cond,
                         _mm256_and_pd(_mm256_cmp_pd(a, hi1, _CMP_GT_OQ),
                                       _mm256_cmp_pd(a, hi2, _CMP_LT_OQ)))));
    if (sb != 0) {
      _mm256_storeu_pd(out_s + ns, CompressPd(a, sb));
      ns += kPop4[sb];
    }
    if (lb != 0) {
      _mm256_storeu_pd(out_l + nl, CompressPd(a, lb));
      nl += kPop4[lb];
    }
  }
  for (; i < n; ++i) {
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

bool IndicesInRangeAvx2(const uint64_t* idx, size_t n, uint64_t bound) {
  if (bound == 0) return n == 0;
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i limit = _mm256_set1_epi64x(
      static_cast<long long>((bound - 1) ^ 0x8000000000000000ull));
  __m256i bad = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i)),
        bias);
    bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(x, limit));
  }
  uint64_t tail_bad = 0;
  for (; i < n; ++i) tail_bad |= idx[i] >= bound ? 1u : 0u;
  return _mm256_movemask_epi8(bad) == 0 && tail_bad == 0;
}

/// One vector Neumaier step: the branchless select of the scalar
/// NeumaierStep's two arms (both arms are computed from identical
/// operands, so the selected lane value is bit-identical to the branch).
inline void NeumaierStepPd(__m256d& sum, __m256d& comp, __m256d v) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d t = _mm256_add_pd(sum, v);
  const __m256d ge = _mm256_cmp_pd(_mm256_andnot_pd(sign, sum),
                                   _mm256_andnot_pd(sign, v), _CMP_GE_OQ);
  const __m256d a = _mm256_add_pd(_mm256_sub_pd(sum, t), v);
  const __m256d b = _mm256_add_pd(_mm256_sub_pd(v, t), sum);
  comp = _mm256_add_pd(comp, _mm256_blendv_pd(b, a, ge));
  sum = t;
}

double SumAvx2(const double* v, size_t n) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  __m256d c0 = _mm256_setzero_pd();
  __m256d c1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + kStripeLanes <= n; i += kStripeLanes) {
    NeumaierStepPd(s0, c0, _mm256_loadu_pd(v + i));
    NeumaierStepPd(s1, c1, _mm256_loadu_pd(v + i + 4));
  }
  alignas(32) double lanes[kStripeLanes];
  alignas(32) double comps[kStripeLanes];
  _mm256_store_pd(lanes, s0);
  _mm256_store_pd(lanes + 4, s1);
  _mm256_store_pd(comps, c0);
  _mm256_store_pd(comps + 4, c1);
  SumTail(v, i, n, lanes, comps);
  return ReduceStripedSum(lanes, comps);
}

// _mm256_min_pd(v, lane) == (v < lane) ? v : lane exactly: the second
// operand wins on NaN and on ±0.0 ties, matching MinStep.
double MinAvx2(const double* v, size_t n) {
  const __m256d inf = _mm256_set1_pd(
      std::numeric_limits<double>::infinity());
  __m256d m0 = inf;
  __m256d m1 = inf;
  size_t i = 0;
  for (; i + kStripeLanes <= n; i += kStripeLanes) {
    m0 = _mm256_min_pd(_mm256_loadu_pd(v + i), m0);
    m1 = _mm256_min_pd(_mm256_loadu_pd(v + i + 4), m1);
  }
  alignas(32) double lanes[kStripeLanes];
  _mm256_store_pd(lanes, m0);
  _mm256_store_pd(lanes + 4, m1);
  MinTail(v, i, n, lanes);
  return ReduceStripedMin(lanes);
}

size_t CompactStride2Avx2(const double* v, size_t n, size_t offset,
                          double* out) {
  size_t m = 0;
  size_t i = offset;
  // Eight input elements -> four survivors per step: shuffle_pd with
  // imm 0 interleaves the even lanes per 128-bit half ([x0,x4,x2,x6]),
  // and permute4x64 restores index order. Writes trail reads, so
  // in-place (out == v) stays safe.
  for (; i + 8 <= n; i += 8) {
    const __m256d lo = _mm256_loadu_pd(v + i);
    const __m256d hi = _mm256_loadu_pd(v + i + 4);
    const __m256d even = _mm256_shuffle_pd(lo, hi, 0);
    _mm256_storeu_pd(out + m,
                     _mm256_permute4x64_pd(even, _MM_SHUFFLE(3, 1, 2, 0)));
    m += 4;
  }
  for (; i < n; i += 2) out[m++] = v[i];
  return m;
}

}  // namespace

const KernelOps* Avx2Ops() {
  static const KernelOps ops = {
      // Measured, not assumed: the index stream is a bit-pinned sequential
      // Xoshiro recurrence (~83% of per-draw cost is the serial state
      // chain — util/rng.h), and AVX2 has no 64x64 high-multiply, so a
      // 4-lane Lemire reduction over pre-drawn raws benched at 0.8x of the
      // scalar mulx loop on Zen-class hardware. Dispatch the scalar entry;
      // revisit only with a counter-based (SplitMix64) stream whose draws
      // are genuinely lane-parallel.
      ScalarOps().generate_uniform_indices,
      EvalPredicateMaskAvx2,
      CompactMaskedAvx2,
      CompactGroupedAvx2,
      ClassifyRegionsAvx2,
      // A hardware gather (_mm256_i64gather_pd) measured 0.97-1.19x the
      // scalar loop in bench_kernels on a 4-thread AVX2 host, and
      // perfbench scan_heavy's mmap gathers ran no slower without it: the
      // loads, not the loop, are the cost. Dispatch the scalar entry.
      ScalarOps().gather_f64,
      IndicesInRangeAvx2,
      SumAvx2,
      MinAvx2,
      CompactStride2Avx2,
  };
  return &ops;
}

}  // namespace internal
}  // namespace kernels
}  // namespace runtime
}  // namespace isla

#else  // non-x86-64 build or AVX2 not enabled for this TU

namespace isla {
namespace runtime {
namespace kernels {
namespace internal {

const KernelOps* Avx2Ops() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace runtime
}  // namespace isla

#endif

// Kernel dispatch contracts: every SIMD tier must be bit-identical to the
// scalar reference for every kernel — across unaligned bases, tail lengths
// 0..2·stripe width, NaN/±inf/−0.0 payloads, all-true/all-false masks, and
// the Lemire-rejection replay path of index generation — and the kernels
// must never touch the heap (operator-new counting hook). CI runs this
// suite (with the rest of ctest) under ISLA_KERNELS=scalar as well, which
// the Dispatch.HonorsIslaKernelsEnv test turns into a hard assertion.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "runtime/kernels/kernels.h"
#include "util/rng.h"

// --- Allocation-counting hook (same pattern as hotpath_test.cc) ---------
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace isla {
namespace {

namespace kernels = runtime::kernels;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The SIMD tiers under test (everything supported beyond scalar).
std::vector<kernels::DispatchLevel> SimdLevels() {
  auto levels = kernels::SupportedLevels();
  levels.erase(levels.begin());
  return levels;
}

std::string LevelTag(kernels::DispatchLevel level) {
  return std::string(kernels::DispatchLevelName(level));
}

/// Data with every special value the predicate/accumulate kernels must
/// handle, at positions that land in both vector bodies and scalar tails.
/// The +1 element at the front lets tests run off an unaligned base.
std::vector<double> SpecialData(size_t n, uint64_t seed) {
  std::vector<double> v(n + 1);
  Xoshiro256 rng(seed);
  for (auto& x : v) x = 200.0 * rng.NextDouble() - 100.0;
  const double specials[] = {kNan, kInf, -kInf, -0.0, 0.0, 42.0, -42.0};
  for (size_t i = 0; i < v.size(); ++i) {
    if (rng.NextBounded(4) == 0) v[i] = specials[rng.NextBounded(7)];
  }
  return v;
}

std::vector<uint8_t> RandomMask(size_t n, uint64_t seed) {
  std::vector<uint8_t> mask(n + 1);
  Xoshiro256 rng(seed);
  for (auto& m : mask) m = static_cast<uint8_t>(rng.NextBounded(2));
  return mask;
}

/// Bitwise double equality (EXPECT_EQ would call -0.0 == 0.0 and NaN != NaN).
bool BitEqual(double a, double b) {
  uint64_t ba;
  uint64_t bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

/// Sum-kernel equality: bit-identical, except that once a sum is NaN the
/// particular NaN is unspecified (see the sum contract in kernels.h).
bool SumEqual(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return BitEqual(a, b);
}

#define EXPECT_BITEQ(a, b) \
  EXPECT_PRED2(BitEqual, (a), (b))

// Tail lengths 0..2·stripe width (16) plus batch-scale sizes so every
// vector-body/tail split gets exercised.
const size_t kSizes[] = {0, 1,  2,  3,  4,  5,  6,  7,  8,  9,   10,  11,
                         12, 13, 14, 15, 16, 17, 31, 33, 100, 4096, 4099};

TEST(Dispatch, NamesRoundTrip) {
  for (auto level :
       {kernels::DispatchLevel::kScalar, kernels::DispatchLevel::kAvx2}) {
    kernels::DispatchLevel parsed;
    ASSERT_TRUE(kernels::DispatchLevelFromString(
        kernels::DispatchLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  kernels::DispatchLevel parsed;
  EXPECT_FALSE(kernels::DispatchLevelFromString("sse2", &parsed));
  EXPECT_FALSE(kernels::DispatchLevelFromString("avx512", &parsed));
  EXPECT_FALSE(kernels::DispatchLevelFromString("", &parsed));
}

TEST(Dispatch, ActiveLevelIsExecutable) {
  EXPECT_TRUE(kernels::LevelSupported(kernels::ActiveLevel()));
  EXPECT_LE(static_cast<int>(kernels::ActiveLevel()),
            static_cast<int>(kernels::DetectBestLevel()));
}

TEST(Dispatch, HonorsIslaKernelsEnv) {
  // When the suite runs under a forced tier (the CI scalar-fallback job),
  // assert the dispatch actually obeyed; otherwise just require the
  // default to be the best detected tier.
  const char* env = std::getenv("ISLA_KERNELS");
  kernels::DispatchLevel forced;
  if (env != nullptr && kernels::DispatchLevelFromString(env, &forced) &&
      kernels::LevelSupported(forced)) {
    EXPECT_EQ(kernels::ActiveLevel(), forced)
        << "ISLA_KERNELS=" << env << " was not honored";
  } else if (env == nullptr) {
    EXPECT_EQ(kernels::ActiveLevel(), kernels::DetectBestLevel());
  }
}

TEST(Dispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kernels::LevelCompiled(kernels::DispatchLevel::kScalar));
  EXPECT_TRUE(kernels::LevelSupported(kernels::DispatchLevel::kScalar));
}

TEST(PredicateMaskEquivalence, AllOpsAllTiersAllTails) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  const double literals[] = {10.0, -0.0, 0.0, kInf, -kInf, kNan};
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (size_t n : kSizes) {
      const std::vector<double> data = SpecialData(n, 7 + n);
      for (int align = 0; align < 2; ++align) {
        const double* base = data.data() + align;
        for (int op = 0; op < 6; ++op) {
          for (double lit : literals) {
            std::vector<uint8_t> want(n + 1, 0xcc);
            std::vector<uint8_t> got(n + 1, 0xcc);
            scalar.eval_predicate_mask(static_cast<kernels::CmpOp>(op), base,
                                       n, lit, want.data());
            simd.eval_predicate_mask(static_cast<kernels::CmpOp>(op), base,
                                     n, lit, got.data());
            ASSERT_EQ(std::memcmp(want.data(), got.data(), n), 0)
                << LevelTag(level) << " op=" << op << " n=" << n
                << " lit=" << lit << " align=" << align;
          }
        }
      }
    }
  }
}

TEST(MaskKernelsEquivalence, PopcountAndCompact) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (size_t n : kSizes) {
      const std::vector<double> data = SpecialData(n, 11 + n);
      std::vector<std::vector<uint8_t>> masks = {RandomMask(n, 3 + n)};
      masks.emplace_back(n + 1, uint8_t{1});  // all-true
      masks.emplace_back(n + 1, uint8_t{0});  // all-false
      for (const auto& mask : masks) {
        for (int align = 0; align < 2; ++align) {
          const double* base = data.data() + align;
          const uint8_t* mbase = mask.data() + align;
          std::vector<double> want(n + 8, 0.0);
          std::vector<double> got(n + 8, 0.0);
          const size_t wm = scalar.compact_masked(base, mbase, n,
                                                  want.data());
          const size_t gm = simd.compact_masked(base, mbase, n, got.data());
          ASSERT_EQ(wm, gm) << LevelTag(level) << " n=" << n;
          for (size_t i = 0; i < wm; ++i) {
            ASSERT_PRED2(BitEqual, want[i], got[i])
                << LevelTag(level) << " n=" << n << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(MaskKernelsEquivalence, CompactGroupedAllNullCombinations) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (size_t n : kSizes) {
      const std::vector<double> values = SpecialData(n, 17 + n);
      const std::vector<double> keys = SpecialData(n, 23 + n);  // has NaNs
      const std::vector<uint8_t> mask = RandomMask(n, 29 + n);
      struct Case {
        const double* k;
        const uint8_t* m;
      };
      const Case cases[] = {
          {nullptr, nullptr},
          {keys.data(), nullptr},
          {nullptr, mask.data()},
          {keys.data(), mask.data()},
      };
      for (const Case& c : cases) {
        std::vector<double> want_v(n + 8), got_v(n + 8);
        std::vector<double> want_k(n + 8), got_k(n + 8);
        const size_t wm = scalar.compact_grouped(
            values.data(), c.k, c.m, n, want_v.data(), want_k.data());
        const size_t gm = simd.compact_grouped(values.data(), c.k, c.m, n,
                                               got_v.data(), got_k.data());
        ASSERT_EQ(wm, gm) << LevelTag(level) << " n=" << n;
        for (size_t i = 0; i < wm; ++i) {
          ASSERT_PRED2(BitEqual, want_v[i], got_v[i]) << LevelTag(level);
          if (c.k != nullptr) {
            ASSERT_PRED2(BitEqual, want_k[i], got_k[i]) << LevelTag(level);
          }
        }
      }
    }
  }
}

TEST(CompactStride2Equivalence, AllTiersOffsetsAndInPlace) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (size_t n : kSizes) {
      const std::vector<double> data = SpecialData(n, 73 + n);
      for (int align = 0; align < 2; ++align) {
        const double* base = data.data() + align;
        for (size_t offset : {size_t{0}, size_t{1}}) {
          std::vector<double> want(n + 8, kNan), got(n + 8, kNan);
          const size_t wm = scalar.compact_stride2(base, n, offset,
                                                   want.data());
          const size_t gm = simd.compact_stride2(base, n, offset,
                                                 got.data());
          ASSERT_EQ(wm, gm)
              << LevelTag(level) << " n=" << n << " offset=" << offset;
          ASSERT_EQ(wm, n > offset ? (n - offset + 1) / 2 : 0);
          for (size_t i = 0; i < wm; ++i) {
            ASSERT_PRED2(BitEqual, want[i], got[i])
                << LevelTag(level) << " n=" << n << " offset=" << offset
                << " i=" << i;
            // The contract: survivor i is v[offset + 2i].
            ASSERT_PRED2(BitEqual, want[i], base[offset + 2 * i]);
          }
          // In-place (out == v): writes must trail reads on every tier.
          std::vector<double> in_place(data.begin() + align, data.end());
          const size_t im = simd.compact_stride2(in_place.data(), n, offset,
                                                 in_place.data());
          ASSERT_EQ(im, wm) << LevelTag(level) << " n=" << n;
          for (size_t i = 0; i < im; ++i) {
            ASSERT_PRED2(BitEqual, in_place[i], want[i])
                << LevelTag(level) << " n=" << n << " offset=" << offset
                << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(ClassifyRegionsEquivalence, AllTiersWithSpecials) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (size_t n : kSizes) {
      const std::vector<double> data = SpecialData(n, 31 + n);
      // Disjoint windows (every real DataBoundaries) plus an overlapping
      // pair (lo_inner > hi_inner) that pins the S-takes-precedence rule.
      struct Windows {
        double lo2, lo1, hi1, hi2;
      };
      const Windows windows[] = {{-50.0, -10.0, 10.0, 50.0},
                                 {-50.0, 30.0, -30.0, 50.0}};
      for (const Windows& w : windows) {
        for (double shift : {0.0, 117.5}) {
          std::vector<double> ws(n + 8), wl(n + 8), gs(n + 8), gl(n + 8);
          size_t wsn = 0, wln = 0, gsn = 0, gln = 0;
          scalar.classify_regions(data.data(), n, shift, w.lo2, w.lo1,
                                  w.hi1, w.hi2, ws.data(), &wsn, wl.data(),
                                  &wln);
          simd.classify_regions(data.data(), n, shift, w.lo2, w.lo1, w.hi1,
                                w.hi2, gs.data(), &gsn, gl.data(), &gln);
          ASSERT_EQ(wsn, gsn) << LevelTag(level) << " n=" << n;
          ASSERT_EQ(wln, gln) << LevelTag(level) << " n=" << n;
          for (size_t i = 0; i < wsn; ++i) {
            ASSERT_PRED2(BitEqual, ws[i], gs[i]) << LevelTag(level);
          }
          for (size_t i = 0; i < wln; ++i) {
            ASSERT_PRED2(BitEqual, wl[i], gl[i]) << LevelTag(level);
          }
        }
      }
    }
  }
}

TEST(AccumulateEquivalence, SumMinMaxMaskedAndNot) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (size_t n : kSizes) {
      // Two payloads: finite-but-wild magnitudes (the compensation must
      // agree exactly) and one laced with NaN/±inf/−0.0.
      std::vector<double> finite_mut(n + 1);
      Xoshiro256 rng(41 + n);
      for (auto& x : finite_mut) {
        x = std::ldexp(2.0 * rng.NextDouble() - 1.0,
                       static_cast<int>(rng.NextBounded(60)) - 30);
      }
      const std::vector<double> finite = std::move(finite_mut);
      const std::vector<double> wild = SpecialData(n, 43 + n);
      for (const auto* data : {&finite, &wild}) {
        for (int align = 0; align < 2; ++align) {
          const double* base = data->data() + align;
          EXPECT_PRED2(SumEqual, scalar.sum(base, n), simd.sum(base, n))
              << LevelTag(level) << " n=" << n;
          EXPECT_BITEQ(scalar.min(base, n), simd.min(base, n))
              << LevelTag(level) << " n=" << n;
        }
      }
    }
  }
}

TEST(AccumulateSemantics, EmptyAndNanOnly) {
  for (auto level : kernels::SupportedLevels()) {
    const auto& ops = kernels::OpsFor(level);
    EXPECT_EQ(ops.sum(nullptr, 0), 0.0) << LevelTag(level);
    EXPECT_EQ(ops.min(nullptr, 0), kInf) << LevelTag(level);
    const std::vector<double> nans(20, kNan);
    EXPECT_EQ(ops.min(nans.data(), nans.size()), kInf) << LevelTag(level);
    EXPECT_TRUE(std::isnan(ops.sum(nans.data(), nans.size())))
        << LevelTag(level);
  }
}

TEST(GatherEquivalence, GatherAndRangeCheck) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  const std::vector<double> base = SpecialData(5000, 53);
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (size_t n : kSizes) {
      std::vector<uint64_t> idx(n + 1);
      Xoshiro256 rng(59 + n);
      for (auto& i : idx) i = rng.NextBounded(base.size());
      std::vector<double> want(n + 1), got(n + 1);
      scalar.gather_f64(base.data(), idx.data(), n, want.data());
      simd.gather_f64(base.data(), idx.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_PRED2(BitEqual, want[i], got[i])
            << LevelTag(level) << " n=" << n;
      }
      EXPECT_TRUE(simd.indices_in_range(idx.data(), n, base.size()));
      EXPECT_EQ(scalar.indices_in_range(idx.data(), n, 100),
                simd.indices_in_range(idx.data(), n, 100))
          << LevelTag(level) << " n=" << n;
      if (n > 0) {
        idx[n - 1] = base.size();  // one past the end, in the tail
        EXPECT_FALSE(simd.indices_in_range(idx.data(), n, base.size()));
        idx[0] = ~uint64_t{0};  // huge index, in the vector body
        EXPECT_FALSE(simd.indices_in_range(idx.data(), n, base.size()));
      }
    }
    EXPECT_TRUE(simd.indices_in_range(nullptr, 0, 0)) << LevelTag(level);
  }
}

TEST(IndexGenerationEquivalence, SequenceAndRngStateMatchScalar) {
  const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
  // (1<<63)+1 has Lemire acceptance threshold 2^63-1: roughly half of all
  // draws replay, forcing the SIMD tiers through the scalar-replay path.
  const uint64_t bounds[] = {1,
                             2,
                             3,
                             5,
                             1000,
                             4096,
                             1234567891,
                             (uint64_t{1} << 62) + 12345,
                             (uint64_t{1} << 63) + 1};
  for (auto level : SimdLevels()) {
    const auto& simd = kernels::OpsFor(level);
    for (uint64_t n : bounds) {
      for (uint64_t count : {0, 1, 3, 7, 8, 9, 64, 4096}) {
        Xoshiro256 rng_a(77);
        Xoshiro256 rng_b(77);
        std::vector<uint64_t> want(count + 1, ~uint64_t{0});
        std::vector<uint64_t> got(count + 1, ~uint64_t{0});
        scalar.generate_uniform_indices(n, count, &rng_a, want.data());
        simd.generate_uniform_indices(n, count, &rng_b, got.data());
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              count * sizeof(uint64_t)),
                  0)
            << LevelTag(level) << " n=" << n << " count=" << count;
        // Identical RNG consumption: the streams must stay in lockstep.
        EXPECT_EQ(rng_a.Next(), rng_b.Next())
            << LevelTag(level) << " n=" << n << " count=" << count;
      }
    }
  }
}

TEST(IndexGenerationEquivalence, MatchesHistoricNextBoundedLoop) {
  // The scalar kernel *is* the historical definition of the index stream;
  // pin it against a literal NextBounded loop so no tier can drift.
  const auto& ops = kernels::Ops();
  Xoshiro256 rng_a(123);
  Xoshiro256 rng_b(123);
  std::vector<uint64_t> got(1000);
  ops.generate_uniform_indices(999983, got.size(), &rng_a, got.data());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], rng_b.NextBounded(999983)) << "i=" << i;
  }
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(KernelAlloc, SteadyStateKernelsAreAllocationFree) {
  const auto& ops = kernels::Ops();
  const size_t n = 4096;
  std::vector<double> data = SpecialData(n, 61);
  std::vector<uint8_t> mask = RandomMask(n, 67);
  std::vector<double> out_v(n + 8), out_k(n + 8), out_s(n + 8),
      out_l(n + 8);
  std::vector<uint64_t> idx(n);
  std::vector<uint64_t> small_idx(n);
  std::vector<double> gathered(n);
  Xoshiro256 rng(71);

  const int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  ops.generate_uniform_indices(123457, n, &rng, idx.data());
  ops.eval_predicate_mask(kernels::CmpOp::kGe, data.data(), n, 0.0,
                          mask.data());
  (void)ops.compact_masked(data.data(), mask.data(), n, out_v.data());
  (void)ops.compact_grouped(data.data(), data.data(), mask.data(), n,
                            out_v.data(), out_k.data());
  size_t ns = 0, nl = 0;
  ops.classify_regions(data.data(), n, 1.0, -50.0, -10.0, 10.0, 50.0,
                       out_s.data(), &ns, out_l.data(), &nl);
  (void)ops.indices_in_range(idx.data(), n, 123457);
  for (size_t i = 0; i < n; ++i) small_idx[i] = idx[i] % data.size();
  ops.gather_f64(data.data(), small_idx.data(), n, gathered.data());
  (void)ops.sum(data.data(), n);
  (void)ops.min(data.data(), n);
  (void)ops.compact_stride2(data.data(), n, 0, out_v.data());
  (void)ops.compact_stride2(data.data(), n, 1, out_v.data());
  const int64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "kernels must never touch the heap";
}

}  // namespace
}  // namespace isla

// Per-kernel dispatch-tier microbenchmarks with a machine-readable perf
// trajectory: measures rows/sec of every hot-path kernel at every dispatch
// tier this machine supports — same run, same buffers — hard-checks that
// the SIMD tiers are bit-identical to scalar, and emits BENCH_kernels.json.
//
// Thresholds are relative only (tier-vs-tier ratios in one run; absolute
// timings on shared machines are noise): on AVX2 hardware the predicate-
// mask, compaction (masked, grouped, region split) and sum kernels must
// beat scalar by --min-simd-speedup (default 2x). Without AVX2 the check
// is skipped with a logged notice. The tiers are timed interleaved — each
// of kRepetitions rounds times every tier back to back, alternating their
// order — and a speedup is the median of the per-round scalar/tier time
// ratios, so load that drifts over the run hits both sides of a ratio.
//
// Flags: --rows N          total elements processed per measurement
//        --buffer N        working-set elements (fits L2 by default, so
//                          ratios measure vector width, not DRAM)
//        --out PATH        JSON output (default BENCH_kernels.json)
//        --min-simd-speedup X   0 disables the hard check

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "runtime/kernels/kernels.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using isla::Timer;
using isla::Xoshiro256;
namespace kernels = isla::runtime::kernels;

struct Config {
  uint64_t rows = 64'000'000;
  uint64_t buffer = 1 << 15;  // 32k doubles = 256 KiB, L2-resident
  std::string out = "BENCH_kernels.json";
  double min_simd_speedup = 2.0;
};

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--rows") {
      cfg.rows = std::strtoull(next(), nullptr, 10);
    } else if (a == "--buffer") {
      cfg.buffer = std::strtoull(next(), nullptr, 10);
    } else if (a == "--out") {
      cfg.out = next();
    } else if (a == "--min-simd-speedup") {
      cfg.min_simd_speedup = std::strtod(next(), nullptr);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      std::exit(2);
    }
  }
  return cfg;
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: %s\n", what);
    std::exit(1);
  }
}

/// Bitwise double equality: the contract is bit-identity, and numeric ==
/// would wave through a -0.0 vs +0.0 divergence (and trip over NaN). The
/// fixtures are finite, so NaN-payload freedom (see kernels.h) is moot.
bool BitEqual(double a, double b) {
  uint64_t ba;
  uint64_t bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

/// Interleaved timing rounds per kernel (odd, so a median is one round).
constexpr int kRepetitions = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Row {
  std::string kernel;
  std::string level;
  double rows_per_sec;
};

/// Keep the optimizer from discarding a result.
volatile double g_sink_d = 0.0;
volatile uint64_t g_sink_u = 0;

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);
  const size_t n = static_cast<size_t>(cfg.buffer);
  const uint64_t reps = std::max<uint64_t>(1, cfg.rows / cfg.buffer);

  std::printf("== bench_kernels: SIMD kernel tiers ==\n");
  std::printf("active dispatch: %s   cpu: %s\n",
              std::string(kernels::ActiveLevelName()).c_str(),
              kernels::CpuFeatureString().c_str());
  std::printf("buffer=%zu doubles, %" PRIu64 " reps (%" PRIu64
              " rows per measurement)\n\n",
              n, reps, reps * n);

  // --- Fixtures: one shared working set per kernel family. ---
  std::vector<double> data(n);
  std::vector<double> keys(n);
  Xoshiro256 rng(42);
  for (size_t i = 0; i < n; ++i) {
    data[i] = 100.0 + 40.0 * (2.0 * rng.NextDouble() - 1.0);
    keys[i] = static_cast<double>(rng.NextBounded(8));
  }
  std::vector<uint8_t> mask(n);
  std::vector<uint64_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = rng.NextBounded(n);
  std::vector<uint8_t> mask_out(n);
  std::vector<double> out_a(n + 8);
  std::vector<double> out_b(n + 8);
  std::vector<uint64_t> idx_out(n);
  // Second outputs (grouped keys, region L) of the two-output kernels.
  std::vector<double> aux_a(n + 8);
  std::vector<double> aux_b(n + 8);
  // Every 11th key NaN, so the grouped compaction drops rows by key too.
  std::vector<double> nan_keys = keys;
  for (size_t i = 0; i < n; i += 11) {
    nan_keys[i] = std::numeric_limits<double>::quiet_NaN();
  }
  // The predicate fixture: literal at the median, ~50% selectivity.
  const double literal = 100.0;
  kernels::OpsFor(kernels::DispatchLevel::kScalar)
      .eval_predicate_mask(kernels::CmpOp::kGe, data.data(), n, literal,
                          mask.data());

  const std::vector<kernels::DispatchLevel> levels =
      kernels::SupportedLevels();

  // --- Bit-identity hard checks: every tier vs scalar, same inputs. ---
  {
    const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
    for (auto level : levels) {
      const auto& ops = kernels::OpsFor(level);
      ops.eval_predicate_mask(kernels::CmpOp::kGe, data.data(), n, literal,
                              mask_out.data());
      Check(std::memcmp(mask_out.data(), mask.data(), n) == 0,
            "predicate masks must be bit-identical across tiers");
      const size_t ma =
          scalar.compact_masked(data.data(), mask.data(), n, out_a.data());
      const size_t mb =
          ops.compact_masked(data.data(), mask.data(), n, out_b.data());
      Check(ma == mb && std::memcmp(out_a.data(), out_b.data(),
                                    ma * sizeof(double)) == 0,
            "compactions must be bit-identical across tiers");
      Check(BitEqual(ops.sum(data.data(), n), scalar.sum(data.data(), n)),
            "sums must be bit-identical across tiers");
      Check(BitEqual(ops.min(data.data(), n), scalar.min(data.data(), n)),
            "min must be bit-identical across tiers");
      ops.gather_f64(data.data(), idx.data(), n, out_b.data());
      scalar.gather_f64(data.data(), idx.data(), n, out_a.data());
      Check(std::memcmp(out_a.data(), out_b.data(), n * sizeof(double)) ==
                0,
            "gathers must be bit-identical across tiers");
      Xoshiro256 ra(7);
      Xoshiro256 rb(7);
      scalar.generate_uniform_indices(n, n, &ra, idx_out.data());
      std::vector<uint64_t> idx_ref = idx_out;
      ops.generate_uniform_indices(n, n, &rb, idx_out.data());
      Check(std::memcmp(idx_ref.data(), idx_out.data(),
                        n * sizeof(uint64_t)) == 0 &&
                ra.Next() == rb.Next(),
            "index streams must be bit-identical across tiers");

      // compact_grouped with and without each filter, NaN keys included.
      for (const uint8_t* m : {mask.data(), static_cast<uint8_t*>(nullptr)}) {
        for (const double* k :
             {nan_keys.data(), static_cast<double*>(nullptr)}) {
          const size_t ga = scalar.compact_grouped(data.data(), k, m, n,
                                                   out_a.data(), aux_a.data());
          const size_t gb = ops.compact_grouped(data.data(), k, m, n,
                                                out_b.data(), aux_b.data());
          Check(ga == gb &&
                    std::memcmp(out_a.data(), out_b.data(),
                                ga * sizeof(double)) == 0 &&
                    (k == nullptr ||
                     std::memcmp(aux_a.data(), aux_b.data(),
                                 ga * sizeof(double)) == 0),
                "grouped compactions must be bit-identical across tiers");
        }
      }
      size_t sa = 0, la = 0, sb = 0, lb = 0;
      scalar.classify_regions(data.data(), n, 0.0, 60.0, 90.0, 110.0, 140.0,
                              out_a.data(), &sa, aux_a.data(), &la);
      ops.classify_regions(data.data(), n, 0.0, 60.0, 90.0, 110.0, 140.0,
                           out_b.data(), &sb, aux_b.data(), &lb);
      Check(sa == sb && la == lb &&
                std::memcmp(out_a.data(), out_b.data(),
                            sa * sizeof(double)) == 0 &&
                std::memcmp(aux_a.data(), aux_b.data(),
                            la * sizeof(double)) == 0,
            "region splits must be bit-identical across tiers");
      for (size_t len : {n, n - 1}) {
        for (size_t offset : {size_t{0}, size_t{1}}) {
          const size_t ka =
              scalar.compact_stride2(data.data(), len, offset, out_a.data());
          const size_t kb =
              ops.compact_stride2(data.data(), len, offset, out_b.data());
          Check(ka == kb && std::memcmp(out_a.data(), out_b.data(),
                                        ka * sizeof(double)) == 0,
                "stride-2 compactions must be bit-identical across tiers");
        }
      }
      // idx holds draws below n, so bound n passes and bound max_idx fails.
      const uint64_t max_idx = *std::max_element(idx.begin(), idx.end());
      for (uint64_t bound : {uint64_t{n}, max_idx + 1, max_idx, uint64_t{0}}) {
        Check(ops.indices_in_range(idx.data(), n, bound) ==
                      scalar.indices_in_range(idx.data(), n, bound) &&
                  ops.indices_in_range(idx.data(), 0, bound),
              "index range checks must agree across tiers");
      }
    }
  }

  // --- Per-kernel rows/sec at each tier, timed interleaved. ---
  using Body = std::function<void(const kernels::KernelOps&)>;
  const std::vector<std::pair<const char*, Body>> bodies = {
      {"generate_indices",
       [&](const kernels::KernelOps& ops) {
         Xoshiro256 r(9);
         ops.generate_uniform_indices(n, n, &r, idx_out.data());
       }},
      {"eval_predicate_mask",
       [&](const kernels::KernelOps& ops) {
         ops.eval_predicate_mask(kernels::CmpOp::kGe, data.data(), n, literal,
                                 mask_out.data());
       }},
      {"compact_masked",
       [&](const kernels::KernelOps& ops) {
         g_sink_u = ops.compact_masked(data.data(), mask.data(), n,
                                       out_a.data());
       }},
      {"compact_grouped",
       [&](const kernels::KernelOps& ops) {
         g_sink_u = ops.compact_grouped(data.data(), keys.data(), mask.data(),
                                        n, out_a.data(), out_b.data());
       }},
      {"classify_regions",
       [&](const kernels::KernelOps& ops) {
         size_t ns = 0;
         size_t nl = 0;
         ops.classify_regions(data.data(), n, 0.0, 60.0, 90.0, 110.0, 140.0,
                              out_a.data(), &ns, out_b.data(), &nl);
         g_sink_u = ns + nl;
       }},
      {"gather_f64",
       [&](const kernels::KernelOps& ops) {
         ops.gather_f64(data.data(), idx.data(), n, out_a.data());
       }},
      {"sum",
       [&](const kernels::KernelOps& ops) {
         g_sink_d = ops.sum(data.data(), n);
       }},
      {"min",
       [&](const kernels::KernelOps& ops) {
         g_sink_d = ops.min(data.data(), n);
       }},
  };
  const std::string best =
      std::string(kernels::DispatchLevelName(levels.back()));
  std::vector<Row> rows;
  std::vector<std::pair<std::string, double>> speedups;
  const double processed = static_cast<double>(reps) * static_cast<double>(n);
  for (const auto& [kernel, body] : bodies) {
    // ms[level][round]; odd rounds run the tiers in reverse order.
    std::vector<std::vector<double>> ms(levels.size());
    for (int round = 0; round < kRepetitions; ++round) {
      for (size_t i = 0; i < levels.size(); ++i) {
        const size_t li = round % 2 == 0 ? i : levels.size() - 1 - i;
        const auto& ops = kernels::OpsFor(levels[li]);
        Timer timer;
        for (uint64_t r = 0; r < reps; ++r) body(ops);
        ms[li].push_back(timer.ElapsedMillis());
      }
    }
    for (size_t li = 0; li < levels.size(); ++li) {
      const std::string level(kernels::DispatchLevelName(levels[li]));
      const double rps = processed / (Median(ms[li]) / 1000.0);
      rows.push_back({kernel, level, rps});
      std::printf("%-22s %-6s  %.3e rows/sec\n", kernel, level.c_str(), rps);
    }
    // levels.front() is scalar: SupportedLevels() runs weakest first.
    std::vector<double> ratios;
    for (int round = 0; round < kRepetitions; ++round) {
      ratios.push_back(ms.front()[round] / ms.back()[round]);
    }
    speedups.emplace_back(kernel, Median(ratios));
  }

  // --- Speedups of the strongest tier vs scalar. ---
  const bool have_avx2 =
      kernels::LevelSupported(kernels::DispatchLevel::kAvx2);
  std::printf("\nspeedup (%s vs scalar, median of %d interleaved rounds):\n",
              best.c_str(), kRepetitions);
  for (const auto& [kernel, speedup] : speedups) {
    std::printf("  %-22s %.2fx\n", kernel.c_str(), speedup);
  }
  auto speedup_of = [&](const std::string& kernel) -> double {
    for (const auto& [name, speedup] : speedups) {
      if (name == kernel) return speedup;
    }
    return 0.0;
  };

  // --- Emit BENCH_kernels.json. ---
  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  Check(f != nullptr, "cannot open --out file");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"kernel_dispatch_active\": \"%s\",\n",
               std::string(kernels::ActiveLevelName()).c_str());
  std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
               kernels::CpuFeatureString().c_str());
  std::fprintf(f, "  \"buffer_doubles\": %zu,\n", n);
  std::fprintf(f, "  \"rows_per_measurement\": %" PRIu64 ",\n", reps * n);
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"level\": \"%s\", "
                 "\"rows_per_sec\": %.6e}%s\n",
                 rows[i].kernel.c_str(), rows[i].level.c_str(),
                 rows[i].rows_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_%s_vs_scalar\": {\n", best.c_str());
  for (size_t i = 0; i < speedups.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.3f%s\n", speedups[i].first.c_str(),
                 speedups[i].second, i + 1 < speedups.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.out.c_str());

  // Acceptance gate last, so the JSON exists even on failure for triage.
  if (have_avx2 && cfg.min_simd_speedup > 0.0) {
    bool ok = true;
    for (const char* kernel :
         {"eval_predicate_mask", "compact_masked", "compact_grouped",
          "classify_regions", "sum"}) {
      const double s = speedup_of(kernel);
      if (s < cfg.min_simd_speedup) {
        std::fprintf(stderr, "FATAL: %s avx2 speedup %.2fx < required %.2fx\n",
                     kernel, s, cfg.min_simd_speedup);
        ok = false;
      }
    }
    if (!ok) return 1;
  } else if (!have_avx2) {
    std::printf(
        "note: AVX2 unavailable on this machine; SIMD speedup gate "
        "skipped\n");
  }
  return 0;
}

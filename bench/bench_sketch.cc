// Quantile-sketch microbenchmarks with a machine-readable perf trajectory:
// measures the sketch-update hot path — the sort + stride-2 survivor pass
// behind QuantileSketch::Add — at every dispatch tier this machine
// supports, hard-checks that the tiers produce bit-identical sketch
// states, sweeps the capacity budget to map reported rank error against
// the observed error on exact sorted data, and emits BENCH_sketch.json.
//
// It also prints the sketch scan plan against the m each contract needs:
// for e in {0.01, 0.05, 0.1, 0.5} at β = 0.95, the rows PlanGroupedScan
// gives a MEDIAN over a selectivity-1 group, the DKW-only m, and the
// value-space m of Eq. (1) at σ = 20 (the AVG plan sketch runs once took).
// It hard-fails if a plan's predicted rank band (DKW + RankErrorBound)
// exceeds e where some m fits e, and, where none does (small e at this
// capacity), unless the plan is the m with the narrowest band.
//
// The per-tier numbers share one process: compact_stride2 (the raw
// kernel) and level_compaction (sort + compact over a capacity-sized
// buffer, the sketch's actual compaction step) run through OpsFor(level).
// The end-to-end sketch_add rate runs at the process's active dispatch
// tier only, since QuantileSketch binds to Ops() — CI sweeps the other
// tiers via ISLA_KERNELS.
//
// Flags: --rows N      values folded per sketch_add measurement
//        --buffer N    working-set elements for the kernel loops
//        --curve-rows N  values per error-curve point (exact-sorted, so
//                        memory is 8N bytes per point)
//        --out PATH    JSON output (default BENCH_sketch.json)

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/group_by.h"
#include "runtime/kernels/kernels.h"
#include "stats/confidence.h"
#include "stats/sketch.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using isla::Timer;
using isla::Xoshiro256;
using isla::stats::QuantileSketch;
namespace kernels = isla::runtime::kernels;

struct Config {
  uint64_t rows = 16'000'000;
  uint64_t buffer = 1 << 15;  // 32k doubles = 256 KiB, L2-resident
  uint64_t curve_rows = 1'000'000;
  std::string out = "BENCH_sketch.json";
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
    } else if (a == "--curve-rows") {
      cfg.curve_rows = std::strtoull(next(), nullptr, 10);
    } else if (a == "--out") {
      cfg.out = next();
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

bool BitEqual(double a, double b) {
  uint64_t ba;
  uint64_t bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

/// Full-state bit equality of two sketches: the determinism invariant is
/// on the state, not just the answers.
bool SketchStateIdentical(const QuantileSketch& a, const QuantileSketch& b) {
  if (a.count() != b.count() || a.error_weight() != b.error_weight() ||
      !BitEqual(a.min(), b.min()) || !BitEqual(a.max(), b.max()) ||
      a.num_levels() != b.num_levels()) {
    return false;
  }
  for (size_t l = 0; l < a.num_levels(); ++l) {
    if (a.level_parity(l) != b.level_parity(l)) return false;
    const auto& la = a.level(l);
    const auto& lb = b.level(l);
    if (la.size() != lb.size()) return false;
    for (size_t i = 0; i < la.size(); ++i) {
      if (!BitEqual(la[i], lb[i])) return false;
    }
  }
  return true;
}

/// Median-of-3 wall-clock of `fn` in milliseconds.
template <typename Fn>
double MedianMillis(Fn&& fn) {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    fn();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[1];
}

struct Row {
  std::string kernel;
  std::string level;
  double rows_per_sec;
};

struct CurvePoint {
  uint64_t capacity;
  uint64_t stored_values;
  double reported_eps;
  double observed_eps;
};

struct PlanRow {
  double e;
  uint64_t planned;      // PlanGroupedScan rows at selectivity 1
  uint64_t dkw_only;     // ⌈ln(2/(1−β))/(2e²)⌉
  uint64_t value_space;  // Eq. (1) at σ = 20
  double predicted;      // DKW(planned) + RankErrorBound(planned)
  uint64_t best_m;       // the m with the narrowest predicted band
  double best_band;
};

/// The rank band ApplyQuantileSummary predicts for a sampled sketch of m
/// rows at the default capacity.
double PredictedBand(uint64_t m, double beta) {
  return QuantileSketch::RankErrorBound(m) +
         std::sqrt(std::log(2.0 / (1.0 - beta)) /
                   (2.0 * static_cast<double>(m)));
}

volatile double g_sink_d = 0.0;
volatile uint64_t g_sink_u = 0;

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);
  const size_t n = static_cast<size_t>(cfg.buffer);

  std::printf("== bench_sketch: quantile sketch update path ==\n");
  std::printf("active dispatch: %s   cpu: %s\n",
              std::string(kernels::ActiveLevelName()).c_str(),
              kernels::CpuFeatureString().c_str());
  std::printf("buffer=%zu doubles, %" PRIu64 " rows per sketch_add run\n\n",
              n, cfg.rows);

  std::vector<double> data(n);
  Xoshiro256 rng(42);
  for (size_t i = 0; i < n; ++i) {
    data[i] = 100.0 + 40.0 * (2.0 * rng.NextDouble() - 1.0);
  }
  std::vector<double> out_a(n + 8);
  std::vector<double> out_b(n + 8);
  std::vector<double> scratch(n);

  const std::vector<kernels::DispatchLevel> levels =
      kernels::SupportedLevels();

  // --- Bit-identity hard checks. ---
  {
    // The survivor-pass kernel, every tier vs scalar, both offsets.
    const auto& scalar = kernels::OpsFor(kernels::DispatchLevel::kScalar);
    for (auto level : levels) {
      const auto& ops = kernels::OpsFor(level);
      for (size_t offset : {size_t{0}, size_t{1}}) {
        const size_t ka =
            scalar.compact_stride2(data.data(), n, offset, out_a.data());
        const size_t kb =
            ops.compact_stride2(data.data(), n, offset, out_b.data());
        Check(ka == kb && std::memcmp(out_a.data(), out_b.data(),
                                      ka * sizeof(double)) == 0,
              "compact_stride2 must be bit-identical across tiers");
      }
    }
    // Whole-sketch determinism: same insertion sequence twice, and
    // per-chunk sketches merged in chunk order no matter which order the
    // chunks were built in — the engine's any-parallelism invariant.
    QuantileSketch s1(256);
    QuantileSketch s2(256);
    for (double v : data) {
      s1.Add(v);
      s2.Add(v);
    }
    Check(SketchStateIdentical(s1, s2),
          "identical insertion sequences must give identical sketches");
    const size_t chunk = n / 7;
    std::vector<QuantileSketch> fwd;
    std::vector<QuantileSketch> bwd;
    for (int dir = 0; dir < 2; ++dir) {
      auto& out = dir == 0 ? fwd : bwd;
      for (size_t c = 0; c < 7; ++c) {
        const size_t idx = dir == 0 ? c : 6 - c;
        QuantileSketch s(256);
        const size_t lo = idx * chunk;
        const size_t hi = idx == 6 ? n : lo + chunk;
        for (size_t i = lo; i < hi; ++i) s.Add(data[i]);
        if (dir == 0) {
          out.push_back(std::move(s));
        } else {
          out.insert(out.begin(), std::move(s));
        }
      }
    }
    QuantileSketch mf(256);
    QuantileSketch mb(256);
    for (size_t c = 0; c < 7; ++c) {
      Check(mf.Merge(fwd[c]).ok() && mb.Merge(bwd[c]).ok(),
            "merges must succeed");
    }
    Check(SketchStateIdentical(mf, mb),
          "block-order merges must not depend on block build order");
  }

  // --- Rows/sec. ---
  std::vector<Row> rows;
  auto record = [&](const char* kernel, const std::string& level,
                    uint64_t processed, double ms) {
    const double rps = static_cast<double>(processed) / (ms / 1000.0);
    rows.push_back({kernel, level, rps});
    std::printf("%-20s %-6s  %.3e rows/sec\n", kernel, level.c_str(), rps);
  };

  const uint64_t reps = std::max<uint64_t>(1, cfg.rows / cfg.buffer);
  for (auto level : levels) {
    const auto& ops = kernels::OpsFor(level);
    const std::string name(kernels::DispatchLevelName(level));
    // The raw survivor pass.
    double ms = MedianMillis([&] {
      for (uint64_t r = 0; r < reps; ++r) {
        g_sink_u = ops.compact_stride2(data.data(), n, r & 1, out_a.data());
      }
    });
    record("compact_stride2", name, reps * n, ms);
    // The sketch's actual compaction step: sort a capacity-sized buffer,
    // then promote every other element — per 256-value level fill.
    constexpr size_t kCap = 256;
    const uint64_t fills = std::max<uint64_t>(1, (reps * n) / kCap);
    ms = MedianMillis([&] {
      for (uint64_t f = 0; f < fills; ++f) {
        double* buf = scratch.data() + (f % (n / kCap)) * kCap;
        std::memcpy(buf, data.data() + (f % (n / kCap)) * kCap,
                    kCap * sizeof(double));
        std::sort(buf, buf + kCap);
        g_sink_u = ops.compact_stride2(buf, kCap, f & 1, buf);
      }
    });
    record("level_compaction", name, fills * kCap, ms);
  }

  // End-to-end Add() at the active tier (the sketch binds to Ops()).
  {
    const std::string active(kernels::ActiveLevelName());
    QuantileSketch sink(256);
    const double ms = MedianMillis([&] {
      QuantileSketch s(256);
      for (uint64_t r = 0; r < reps; ++r) {
        for (size_t i = 0; i < n; ++i) s.Add(data[i]);
      }
      sink = std::move(s);
    });
    record("sketch_add", active, reps * n, ms);
    g_sink_d = sink.Query(0.5);
  }

  // --- Rank-error vs capacity budget, graded on exact sorted data. ---
  std::printf("\nrank error vs capacity (n=%" PRIu64 "):\n", cfg.curve_rows);
  std::vector<CurvePoint> curve;
  {
    std::vector<double> values(cfg.curve_rows);
    Xoshiro256 vr(7);
    for (auto& v : values) v = 1000.0 * vr.NextDouble() - 500.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double nn = static_cast<double>(sorted.size());
    for (uint64_t capacity : {64u, 128u, 256u, 512u, 1024u, 4096u}) {
      QuantileSketch s(capacity);
      for (double v : values) s.Add(v);
      uint64_t stored = 0;
      for (size_t l = 0; l < s.num_levels(); ++l) stored += s.level(l).size();
      double observed = 0.0;
      for (int qi = 1; qi <= 99; ++qi) {
        const double q = qi / 100.0;
        const double v = s.Query(q);
        const double lo = static_cast<double>(
            std::lower_bound(sorted.begin(), sorted.end(), v) -
            sorted.begin());
        const double hi = static_cast<double>(
            std::upper_bound(sorted.begin(), sorted.end(), v) -
            sorted.begin());
        const double target = q * nn;
        double err = 0.0;
        if (target < lo) err = (lo - target) / nn;
        if (target > hi) err = (target - hi) / nn;
        observed = std::max(observed, err);
      }
      const double reported = s.RankErrorFraction();
      curve.push_back({capacity, stored, reported, observed});
      std::printf("  capacity %-5" PRIu64 " stored %-6" PRIu64
                  " reported eps %.5f   observed eps %.5f\n",
                  capacity, stored, reported, observed);
      // The deterministic guarantee itself: the observed rank error can
      // never exceed the reported bound (plus the 1/n rank-grid quantum).
      Check(observed <= reported + 1.0 / nn,
            "observed rank error exceeded the reported bound");
    }
  }

  // --- Planned sketch scan vs the m each contract needs. ---
  constexpr double kBeta = 0.95;
  constexpr uint64_t kTableRows = 16'000'000;
  std::printf("\nsketch scan plan (beta=%.2f, selectivity 1, %" PRIu64
              "-row table):\n",
              kBeta, kTableRows);
  std::printf("  %-6s %10s %10s %14s %10s\n", "e", "planned", "dkw_only",
              "value(s=20)", "band");
  std::vector<PlanRow> plan;
  {
    isla::core::GroupedPilot pilot;
    pilot.pilot_samples = 1000;
    for (int i = 0; i < 1000; ++i) pilot.groups[0.0].Add(100.0 + i % 41);
    pilot.all = pilot.groups[0.0];
    for (double e : {0.01, 0.05, 0.1, 0.5}) {
      isla::core::IslaOptions options;
      options.precision = e;
      options.confidence = kBeta;
      auto planned = isla::core::PlanGroupedScan(pilot, options, kTableRows,
                                                 /*want_sketch=*/true);
      auto value_space = isla::stats::RequiredSampleSize(20.0, e, kBeta);
      Check(planned.ok() && value_space.ok(), "plan must succeed");
      const auto dkw_only = static_cast<uint64_t>(
          std::ceil(std::log(2.0 / (1.0 - kBeta)) / (2.0 * e * e)));
      PlanRow row{e, *planned, dkw_only, *value_space,
                  PredictedBand(*planned, kBeta), 0, 2.0};
      // The band narrows within each step of RankErrorBound, so its
      // minimum sits at a step's last m: (k−1)·2^j − 1, or the table.
      const uint64_t k1 = QuantileSketch::kDefaultCapacity - 1;
      for (uint64_t end = k1 - 1;; end = 2 * end + 1) {
        const uint64_t m = std::min(end, kTableRows);
        if (PredictedBand(m, kBeta) < row.best_band) {
          row.best_band = PredictedBand(m, kBeta);
          row.best_m = m;
        }
        if (m == kTableRows) break;
      }
      plan.push_back(row);
      std::printf("  %-6.2f %10" PRIu64 " %10" PRIu64 " %14" PRIu64
                  " %10.5f%s\n",
                  e, row.planned, row.dkw_only, row.value_space,
                  row.predicted,
                  row.predicted > e ? "  (no m fits e: narrowest band)" : "");
      if (row.best_band <= e) {
        Check(row.predicted <= e,
              "a planned sketch scan's predicted rank band exceeds e");
      } else {
        Check(row.planned == row.best_m,
              "where no m fits e, the plan must be the narrowest band");
      }
    }
  }

  // --- Emit BENCH_sketch.json. ---
  std::FILE* f = std::fopen(cfg.out.c_str(), "w");
  Check(f != nullptr, "cannot open --out file");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"sketch\",\n");
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
  std::fprintf(f, "  \"error_curve_rows\": %" PRIu64 ",\n", cfg.curve_rows);
  std::fprintf(f, "  \"error_curve\": [\n");
  for (size_t i = 0; i < curve.size(); ++i) {
    std::fprintf(f,
                 "    {\"capacity\": %" PRIu64 ", \"stored_values\": %" PRIu64
                 ", \"reported_eps\": %.6e, \"observed_eps\": %.6e}%s\n",
                 curve[i].capacity, curve[i].stored_values,
                 curve[i].reported_eps, curve[i].observed_eps,
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"plan_table_rows\": %" PRIu64 ",\n", kTableRows);
  std::fprintf(f, "  \"plan\": [\n");
  for (size_t i = 0; i < plan.size(); ++i) {
    std::fprintf(f,
                 "    {\"e\": %.2f, \"planned\": %" PRIu64
                 ", \"dkw_only\": %" PRIu64
                 ", \"value_space_sigma20\": %" PRIu64
                 ", \"predicted_band\": %.6e, \"best_m\": %" PRIu64
                 ", \"best_band\": %.6e}%s\n",
                 plan[i].e, plan[i].planned, plan[i].dkw_only,
                 plan[i].value_space, plan[i].predicted, plan[i].best_m,
                 plan[i].best_band, i + 1 < plan.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.out.c_str());
  return 0;
}

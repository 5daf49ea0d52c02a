#include "layers.h"

#include <algorithm>
#include <thread>

#include "core/engine.h"
#include "core/pre_estimation.h"
#include "runtime/kernels/kernels.h"
#include "runtime/scratch_arena.h"
#include "sampling/samplers.h"
#include "storage/block.h"
#include "util/rng.h"

namespace perfbench {

using isla::core::GroupByEngine;
using isla::core::GroupedSpec;
using isla::core::IslaEngine;
using isla::core::IslaOptions;

GroupedSpec MakeGroupedSpec(const LayerInputs& in, const CoreCall& call) {
  GroupedSpec spec;
  spec.values = in.values;
  if (call.where) {
    spec.predicate = in.predicate != nullptr ? in.predicate : in.values;
    spec.op = call.op;
    spec.literal = call.literal;
  }
  if (call.group) spec.keys = in.keys;
  if (call.kind == Kind::kSketch) {
    spec.want_sketch = true;
    spec.summary.quantile_q = call.q;
  }
  return spec;
}

IslaOptions MakeOptions(double precision, const CoreCall& call,
                        uint32_t parallelism) {
  IslaOptions options;
  options.precision = precision;
  options.confidence = call.confidence;
  options.seed = call.seed;
  options.parallelism = parallelism;
  return options;
}

namespace {

struct CoreOutcome {
  bool ok = false;
  uint64_t pilot = 0;
  uint64_t main = 0;
};

CoreOutcome RunCore(const LayerInputs& in, const CoreCall& call,
                    uint32_t parallelism, isla::runtime::ScratchPool* pool) {
  CoreOutcome out;
  const IslaOptions options =
      MakeOptions(in.precision, call, parallelism);
  if (call.kind == Kind::kUngrouped && !call.where) {
    IslaEngine engine(options, pool);
    auto r = call.sum ? engine.AggregateSum(*in.values)
                      : engine.AggregateAvg(*in.values);
    if (!r.ok()) return out;
    out.ok = true;
    out.pilot = r->pilot_samples;
    out.main = r->total_samples;
    return out;
  }
  GroupByEngine engine(options, pool);
  auto r = engine.Aggregate(MakeGroupedSpec(in, call));
  if (!r.ok()) return out;
  out.ok = true;
  out.pilot = r->pilot_samples;
  out.main = r->scanned_samples;
  return out;
}

/// Median over `reps` runs of `f`'s duration in milliseconds.
template <typename F>
double MedianMs(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(TimeMs(f));
  return Percentile(t, 0.5);
}

}  // namespace

void MeasureLayers(const LayerInputs& in, bool smoke, Output* out) {
  isla::runtime::ScratchPool pool;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  // --- core: the engine entry points, at the default parallelism. ---
  std::vector<double> by_kind[3], pilot_ms;
  double pilot_samples = 0.0, main_samples = 0.0;
  uint64_t calls_ok = 0;
  for (const CoreCall& call : in.calls) {
    RunCore(in, call, 0, &pool);  // warm the arenas and the page cache
    CoreOutcome o;
    const double ms = TimeMs([&] { o = RunCore(in, call, 0, &pool); });
    if (!o.ok) {
      out->Fail("core call failed during the layer measurements");
      continue;
    }
    ++calls_ok;
    by_kind[static_cast<int>(call.kind)].push_back(ms);
    pilot_samples += static_cast<double>(o.pilot);
    main_samples += static_cast<double>(o.main);
    // The ungrouped pilot (RunPreEstimation) on the same column/options.
    const IslaOptions options = MakeOptions(in.precision, call);
    isla::runtime::ScratchPool::Lease lease = pool.Acquire();
    isla::Xoshiro256 rng(isla::SplitMix64::Hash(options.seed, calls_ok));
    pilot_ms.push_back(TimeMs([&] {
      (void)isla::core::RunPreEstimation(*in.values, options, &rng,
                                         lease.get());
    }));
  }
  const double n_calls = std::max<double>(1.0, static_cast<double>(calls_ok));
  out->Set("core.ungrouped_ms", Percentile(by_kind[0], 0.5), "ms");
  out->Set("core.grouped_ms", Percentile(by_kind[1], 0.5), "ms");
  out->Set("core.sketch_ms", Percentile(by_kind[2], 0.5), "ms");
  out->Set("core.pilot_ms", Percentile(pilot_ms, 0.5), "ms");
  out->Set("core.pilot_samples_per_stmt", pilot_samples / n_calls, "rows");
  out->Set("core.main_samples_per_stmt", main_samples / n_calls, "rows");

  // --- runtime: the same core calls at parallelism 1 versus nproc. ---
  const size_t speedup_calls = std::min<size_t>(in.calls.size(), smoke ? 2 : 6);
  double serial_ms = 0.0, parallel_ms = 0.0;
  for (size_t i = 0; i < speedup_calls; ++i) {
    serial_ms += TimeMs([&] { RunCore(in, in.calls[i], 1, &pool); });
    parallel_ms += TimeMs([&] { RunCore(in, in.calls[i], nproc, &pool); });
  }
  out->Set("runtime.block_parallel_speedup",
           parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0, "x");
  out->Info("runtime.block_parallel_speedup.threads", nproc);

  // --- sampling / storage at the workload's per-block draw counts. ---
  const auto& blocks = in.values->blocks();
  const uint64_t per_block = std::max<uint64_t>(
      1, static_cast<uint64_t>(main_samples / n_calls /
                               static_cast<double>(blocks.size())));
  const int reps = smoke ? 2 : 5;
  std::vector<uint64_t> indices;
  std::vector<double> gathered, drawn;
  double index_ms = 0.0, gather_ms = 0.0, draw_ms = 0.0;
  for (size_t j = 0; j < blocks.size(); ++j) {
    const isla::storage::Block& block = *blocks[j];
    index_ms += MedianMs(reps, [&] {
      isla::Xoshiro256 rng(isla::SplitMix64::Hash(7, j));
      isla::sampling::GenerateUniformIndices(block.size(), per_block, &rng,
                                             &indices);
    });
    gathered.resize(indices.size());
    gather_ms += MedianMs(reps, [&] {
      for (uint64_t at = 0; at < indices.size();
           at += isla::sampling::kGatherBatch) {
        const uint64_t n = std::min<uint64_t>(isla::sampling::kGatherBatch,
                                              indices.size() - at);
        if (!isla::storage::GatherInto(block, {indices.data() + at, n},
                                       gathered.data() + at)
                 .ok()) {
          out->Fail("GatherInto failed on a workload block");
          return;
        }
      }
    });
    isla::runtime::ScratchPool::Lease lease = pool.Acquire();
    draw_ms += MedianMs(reps, [&] {
      isla::Xoshiro256 rng(isla::SplitMix64::Hash(11, j));
      if (!isla::sampling::DrawBlockSampleInto(block, per_block, &rng,
                                               lease.get(), &drawn)
               .ok()) {
        out->Fail("DrawBlockSampleInto failed on a workload block");
      }
    });
  }
  const double draws = static_cast<double>(per_block * blocks.size());
  out->Set("sampling.index_ns_per_draw", index_ms * 1e6 / draws, "ns");
  out->Set("storage.gather_ns_per_row", gather_ms * 1e6 / draws, "ns");
  out->Set("sampling.draw_ns_per_row", draw_ms * 1e6 / draws, "ns");
  out->Info("sampling.draws_per_block", static_cast<double>(per_block));

  // --- runtime kernels at the active tier, on 4096-row batches of the
  // workload's own values. ---
  constexpr size_t kBatch = 4096;
  constexpr size_t kBatches = 16;
  std::vector<double> data;
  {
    const isla::storage::Block& block = *blocks.front();
    const uint64_t n = std::min<uint64_t>(block.size(), kBatch * kBatches);
    if (!block.ReadRange(0, n, &data).ok()) {
      out->Fail("ReadRange failed on a workload block");
      return;
    }
    while (data.size() < kBatch * kBatches) {
      data.push_back(data[data.size() % std::max<size_t>(1, n)]);
    }
  }
  std::vector<double> sorted = data;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  const auto& ops = isla::runtime::kernels::Ops();
  std::vector<uint8_t> mask(kBatch);
  std::vector<double> scratch(kBatch);
  const int rounds = smoke ? 20 : 400;
  double sink = 0.0;
  auto rate = [&](auto&& body) {
    const double ms = MedianMs(reps, [&] {
      for (int r = 0; r < rounds; ++r) {
        for (size_t b = 0; b < kBatches; ++b) body(data.data() + b * kBatch);
      }
    });
    return static_cast<double>(rounds) * kBatches * kBatch / (ms / 1e3);
  };
  out->Set("kernels.predicate_mask_rows_per_s", rate([&](const double* v) {
             ops.eval_predicate_mask(isla::runtime::kernels::CmpOp::kGt, v,
                                     kBatch, median, mask.data());
             sink += mask[0];
           }),
           "rows/s");
  ops.eval_predicate_mask(isla::runtime::kernels::CmpOp::kGt, data.data(),
                          kBatch, median, mask.data());
  out->Set("kernels.compact_masked_rows_per_s", rate([&](const double* v) {
             sink += static_cast<double>(
                 ops.compact_masked(v, mask.data(), kBatch, scratch.data()));
           }),
           "rows/s");
  out->Set("kernels.sum_rows_per_s",
           rate([&](const double* v) { sink += ops.sum(v, kBatch); }),
           "rows/s");
  out->Set("kernels.compact_stride2_rows_per_s", rate([&](const double* v) {
             sink += static_cast<double>(
                 ops.compact_stride2(v, kBatch, 0, scratch.data()));
           }),
           "rows/s");
  out->Info("kernels.checksum", sink);
}

}  // namespace perfbench

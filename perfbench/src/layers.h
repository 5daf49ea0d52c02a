// Per-layer measurements below the engine: direct core calls, the
// sampling/storage primitives and the runtime kernels, each timed from the
// benchmark's side of the public API on the workload's own data.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/group_by.h"
#include "core/options.h"
#include "storage/table.h"

namespace perfbench {

/// One core-level call: the engine entry point a statement of the
/// workload ends up in, with its parameters.
struct CoreCall {
  Kind kind = Kind::kUngrouped;
  bool sum = false;       // ungrouped: SUM instead of AVG
  bool where = false;     // predicate present
  isla::core::PredicateOp op = isla::core::PredicateOp::kGt;
  double literal = 0.0;
  bool group = false;     // GROUP BY the key column
  double q = 0.5;         // sketch: the quantile asked for
  double confidence = 0.95;
  /// Engine seed the statement runs under (IslaOptions::seed).
  uint64_t seed = isla::core::IslaOptions{}.seed;
};

struct LayerInputs {
  const isla::storage::Column* values = nullptr;
  /// Predicate column (nullptr: the predicate reads `values` itself).
  const isla::storage::Column* predicate = nullptr;
  const isla::storage::Column* keys = nullptr;
  double precision = 0.1;
  std::vector<CoreCall> calls;
};

/// The grouped spec the executor would build for `call`.
isla::core::GroupedSpec MakeGroupedSpec(const LayerInputs& in,
                                        const CoreCall& call);

/// Options of `call` on top of the defaults.
isla::core::IslaOptions MakeOptions(double precision, const CoreCall& call,
                                    uint32_t parallelism = 0);

/// Fills core.*, sampling.*, storage.*, kernels.* and runtime.* metrics.
void MeasureLayers(const LayerInputs& in, bool smoke, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

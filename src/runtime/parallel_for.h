#ifndef ISLA_RUNTIME_PARALLEL_FOR_H_
#define ISLA_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

#include "common/status.h"

namespace isla {
namespace runtime {

/// Resolves a parallelism request to a concrete thread count: 0 means "use
/// all hardware threads", anything else is taken literally (>= 1).
unsigned EffectiveParallelism(uint32_t requested);

/// Runs `body(i)` for every i in [0, n) across at most `parallelism`
/// threads of the shared pool, blocking until all iterations finish or
/// are skipped after a failure (see below).
///
/// The range is cut into `parallelism` contiguous shards, one task per
/// shard — static partitioning to match the sharded (steal-free) pool.
/// Because callers derive any randomness from i, not from execution order,
/// results are independent of the schedule; callers writing to slot i of a
/// pre-sized vector get deterministic output for free.
///
/// Callers discard a round whole on any error, so once iteration i has
/// failed, iterations above i that have not started yet are skipped
/// instead of paying for their work. The returned Status is the error of
/// the *smallest failing index*, so error reporting is deterministic too:
/// that iteration is never skipped (a skip needs an even smaller failure),
/// however the schedule interleaves. Runs inline (sequentially) when
/// parallelism <= 1, n <= 1, or the caller is itself a pool worker (nested
/// sections never wait on their own queue).
Status ParallelFor(uint64_t n, uint32_t parallelism,
                   const std::function<Status(uint64_t)>& body);

}  // namespace runtime
}  // namespace isla

#endif  // ISLA_RUNTIME_PARALLEL_FOR_H_

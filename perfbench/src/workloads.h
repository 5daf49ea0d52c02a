// The four workloads. Each fills `out` with its metrics (end-to-end ones
// untraced, per-layer ones when args.trace) and its correctness verdict.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// In-process engine::Session over a 16M-row, 4-shard memory-mapped file
/// table: sampling, gather, kernels and the core phases do the work.
void RunScanHeavy(const Args& args, Output* out);

/// In-process net::QueryServer with 4 TCP sessions: half first-seen
/// statements, half a repeated dashboard set, so per-statement overhead
/// and the caches do the work.
void RunServerMixed(const Args& args, Output* out);

/// Coordinator over FailoverTransport over TcpTransport to 8 in-process
/// workers (4 shards x 2 replicas). With `one_dead`, the replica each
/// shard tries first is stopped before the timed window.
void RunCluster(const Args& args, bool one_dead, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

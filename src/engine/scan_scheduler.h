#ifndef ISLA_ENGINE_SCAN_SCHEDULER_H_
#define ISLA_ENGINE_SCAN_SCHEDULER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "common/result.h"
#include "common/status.h"
#include "core/group_by.h"
#include "core/options.h"
#include "runtime/scratch_arena.h"

namespace isla {
namespace engine {

struct ScanSchedulerOptions {
  /// Reuse pilot (Pre-estimation) results across queries that share
  /// (column content, predicate, keys, seed, method salt, pilot size).
  bool enable_pilot_cache = true;
  /// Reuse full grouped answers when the precision/confidence/rate-scale
  /// also match. A hit returns the exact bytes of the original execution.
  bool enable_result_cache = true;
  /// LRU capacity of each cache, in entries.
  size_t cache_capacity = 256;
};

/// Monitoring counters, surfaced through SHOW STATS. `rows_requested` is
/// what every caller's standalone execution would have sampled (pilot +
/// main scan, cache hits and joiners included); `rows_gathered` is what the
/// scheduler's own runs actually sampled. Their ratio is the I/O the caches
/// and single-flight saved.
struct ScanSchedulerStats {
  uint64_t queries = 0;          // Execute() calls admitted
  uint64_t shared_batches = 0;   // in-flight runs that had >= 1 joiner
  uint64_t batched_queries = 0;  // callers that joined an in-flight run
  uint64_t pilot_cache_hits = 0;
  uint64_t pilot_cache_misses = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t rows_gathered = 0;
  uint64_t rows_requested = 0;
};

/// A cache in front of core::GroupByEngine for grouped queries. Execute
/// does, in order:
///
///  1. a result-cache lookup — a hit returns the bytes of the original run;
///  2. single-flight on the result key — a caller whose identical query is
///     already running waits for that run and receives a copy of its bytes;
///  3. a pilot-cache lookup — a hit skips Pre-estimation;
///  4. GroupByEngine::Pilot (on a miss) and GroupByEngine::AggregateWithPilot;
///  5. the cache inserts.
///
/// Every answer is bit-identical to GroupByEngine::Aggregate: the engine's
/// per-block RNG streams make a run a pure function of the cache key, and
/// answers do not depend on parallelism, which the keys leave out.
///
/// Cache keys are built from column *content fingerprints*
/// (storage::Column::ContentFingerprint), so entries from a dropped or
/// re-CREATEd table are unreachable unless the new table provably holds
/// the same bytes — invalidation is automatic, with no DDL hooks.
///
/// Thread-safe; queries Execute() concurrently from session threads.
class ScanScheduler {
 public:
  explicit ScanScheduler(ScanSchedulerOptions options = {});
  ~ScanScheduler();

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  /// Runs one grouped aggregation through the caches. Semantics and result
  /// bytes are exactly core::GroupByEngine(options).Aggregate(spec,
  /// seed_salt). Sketch (want_sketch) and top-k specs are not part of the
  /// cached shape and are refused with InvalidArgument; run them on the
  /// engine directly.
  ///
  /// The caller must keep `spec`'s columns alive until Execute returns.
  Result<core::GroupedAggregateResult> Execute(const core::GroupedSpec& spec,
                                               const core::IslaOptions& options,
                                               uint64_t seed_salt);

  ScanSchedulerStats stats() const;

  /// Drops every cached pilot and result (tests; memory pressure).
  void ClearCaches();

 private:
  /// Full execution identity; index semantics in MakeCacheKey. Pilot keys
  /// zero the precision/confidence/rate-scale slots (the pilot does not
  /// depend on them) and flip the kind tag.
  using CacheKey = std::array<uint64_t, 12>;

  /// One leader's run of a result key, awaited by its joiners.
  struct Flight;

  static CacheKey MakeCacheKey(const core::GroupedSpec& spec,
                               const core::IslaOptions& options,
                               uint64_t seed_salt, bool pilot);

  /// Steps 3-4 of Execute: pilot cache, then the engine's phases. Adds the
  /// rows the run sampled to `*rows_gathered`.
  Result<core::GroupedAggregateResult> Run(const core::GroupedSpec& spec,
                                           const core::IslaOptions& options,
                                           uint64_t seed_salt,
                                           uint64_t* rows_gathered);

  ScanSchedulerOptions options_;

  mutable std::mutex mu_;  // guards the two LRUs, in_flight_ and stats_
  std::condition_variable landed_;  // a Flight finished
  std::map<CacheKey, std::shared_ptr<Flight>> in_flight_;
  using PilotLru = std::list<std::pair<CacheKey, core::GroupedPilot>>;
  using ResultLru =
      std::list<std::pair<CacheKey, core::GroupedAggregateResult>>;
  PilotLru pilot_lru_;
  std::map<CacheKey, PilotLru::iterator> pilot_index_;
  ResultLru result_lru_;
  std::map<CacheKey, ResultLru::iterator> result_index_;
  ScanSchedulerStats stats_;

  runtime::ScratchPool scratch_pool_;
};

}  // namespace engine
}  // namespace isla

#endif  // ISLA_ENGINE_SCAN_SCHEDULER_H_

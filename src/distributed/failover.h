#ifndef ISLA_DISTRIBUTED_FAILOVER_H_
#define ISLA_DISTRIBUTED_FAILOVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "distributed/coordinator.h"
#include "runtime/thread_pool.h"

namespace isla {
namespace distributed {

/// Process-wide fault-recovery counters, aggregated across every
/// FailoverTransport, TcpTransport, and WorkerRegistry in the process.
/// `server_stats` renders these into SHOW SERVER STATS, which is why they
/// are global rather than per-instance: the server's stats probe has no
/// handle on whatever transports its queries happen to construct.
struct FailoverStats {
  std::atomic<uint64_t> shard_retries{0};
  std::atomic<uint64_t> shard_failovers{0};
  std::atomic<uint64_t> hedged_requests{0};
  std::atomic<uint64_t> hedge_wins{0};
  std::atomic<uint64_t> shards_exhausted{0};
  std::atomic<uint64_t> replica_ejections{0};
  std::atomic<uint64_t> transport_reconnects{0};
  std::atomic<uint64_t> workers_registered{0};
  /// Rebalance / replica-integrity counters (PR: elastic rebalancing).
  std::atomic<uint64_t> replicas_joined{0};        // completed shard streams
  std::atomic<uint64_t> shard_blocks_streamed{0};  // chunks served by donors
  std::atomic<uint64_t> fingerprint_rejections{0};  // divergent replicas kept out
  /// Gauge, not a counter: the registry's current placement-lease epoch
  /// (stored on every membership change, never summed).
  std::atomic<uint64_t> placement_epoch{0};
};

/// The process-global instance (never destroyed before exit).
FailoverStats& GlobalFailoverStats();

/// Knobs of the retry/failover/hedge policy.
struct FailoverOptions {
  /// Full rotations over a shard's replica set before giving up. With R
  /// replicas a shard gets at most R * max_rounds attempts. 0 is clamped
  /// to 1: every call makes at least one attempt on every replica.
  uint64_t max_rounds = 2;

  /// Exponential backoff before re-trying a replica the same call has
  /// already tried: base * 2^attempt, capped. Moving on to a replica the
  /// call has not tried yet never sleeps. Jitter (up to one extra base
  /// interval) is derived from SplitMix64::Hash(seed, shard, attempt) —
  /// deterministic, no wall clock, so tests can reason about exact sleep
  /// schedules.
  ///
  /// backoff_max_millis is also the ejection window: a channel whose call
  /// fails with a retryable status ranks behind every healthy replica for
  /// about that long (plus up to one base interval of jitter), and the
  /// next real call to it after that is the probe that heals it.
  uint64_t backoff_base_millis = 5;
  uint64_t backoff_max_millis = 200;

  /// Hedging: when a shard has a second replica, duplicate the request to
  /// it after this delay and take whichever answer lands first. The race
  /// is benign — replicas derive identical RNG streams from the shard id,
  /// so both answers are bit-identical. 0 means derive the delay from the
  /// observed p99 call latency (never below hedge_floor_millis).
  bool enable_hedging = true;
  uint64_t hedge_delay_millis = 0;
  uint64_t hedge_floor_millis = 20;

  /// Seed of the deterministic backoff jitter.
  uint64_t seed = 0x15a0f417ULL;

  /// The placement-lease epoch this transport's placement was snapshotted
  /// at (net::WorkerRegistry::SnapshotCluster). Purely informational —
  /// echoed in failover_snapshot() so probes can tell which lease a
  /// query ran under. The placement itself is immutable for the life of
  /// the transport: callers pick up new replicas *between* queries by
  /// snapshotting again and building a transport on the new lease, which
  /// preserves the frozen-at-query-start determinism.
  uint64_t placement_epoch = 0;
};

/// Lock-free log2-bucketed latency sketch feeding the auto hedge delay.
/// Same construction as net::LatencyHistogram, duplicated here because the
/// dependency direction is net → distributed, not the reverse.
class CallLatencySketch {
 public:
  void Record(uint64_t micros);

  /// Approximate p99 in microseconds (upper bucket bound); 0 when empty.
  uint64_t PercentileMicros(double q) const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kBuckets = 64;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
};

/// A replica-aware Transport decorator. The coordinator keeps addressing
/// logical shards [0, n_shards); this transport owns the shard → replica
/// placement and maps each logical call onto one of the shard's replica
/// channels on the inner transport, retrying on the next replica (bounded
/// exponential backoff + deterministic jitter) when a call fails with a
/// retryable status, and hedging stragglers onto a second replica. A
/// channel that fails is ejected for about backoff_max_millis: later calls
/// start on a healthy replica instead of paying a failed attempt each.
///
/// Correctness leans entirely on the per-block RNG-prefix property: every
/// replica of shard s computes with streams derived from s (not from its
/// channel index), so any replica's answer is bit-identical to any
/// other's and "first answer wins" cannot change the query result.
///
/// Failures that are not Status::IsRetryable() (InvalidArgument,
/// FailedPrecondition, ... — request-level errors a worker answered
/// deliberately via ErrorFrame) propagate immediately: every replica
/// would answer them identically, so retrying only adds latency.
///
/// Thread-safe: Call may run concurrently from the coordinator's fan-out
/// threads. The destructor joins any hedge threads still racing, so the
/// inner transport must outlive this object.
class FailoverTransport : public Transport {
 public:
  /// `placement[s]` lists the inner-transport channels serving shard s,
  /// in preference order (rotated by shard id to spread load). Channels
  /// must be < inner->size(); every shard needs at least one replica.
  FailoverTransport(Transport* inner,
                    std::vector<std::vector<uint64_t>> placement,
                    FailoverOptions options = {});
  ~FailoverTransport() override;

  Result<std::string> Call(uint64_t shard_id,
                           const std::string& frame) override;
  size_t size() const override { return placement_.size(); }
  FailoverCounters failover_snapshot() const override;

  /// In-flight requests currently addressed to `channel` (tests observe
  /// the balancer through this).
  uint64_t outstanding_on(uint64_t channel) const;

 private:
  /// Per inner channel: in-flight requests, and the steady-clock µs until
  /// which the channel is ejected (0: healthy). Both maintained by
  /// CallOnce.
  struct ChannelState {
    std::atomic<uint64_t> outstanding{0};
    std::atomic<uint64_t> ejected_until_micros{0};
  };

  Result<std::string> CallOnce(uint64_t shard_id, uint64_t channel,
                               const std::string& frame);
  Result<std::string> HedgedCall(uint64_t shard_id, uint64_t primary,
                                 uint64_t secondary,
                                 const std::string& frame);
  uint64_t HedgeDelayMillis() const;
  /// Health-then-least-outstanding replica selection: the rotation start
  /// for this call is a replica whose channel is not ejected, if there is
  /// one, and among those the one with the fewest in-flight requests. Ties
  /// are broken deterministically by scanning in rotation order from
  /// `shard_id % n` with strict less-than — so an idle, healthy transport
  /// reproduces the static `shard % n` preference bit for bit, and the
  /// differential suites cannot tell the balancer ever shipped.
  size_t PickStart(uint64_t shard_id,
                   const std::vector<uint64_t>& replicas) const;
  /// Whether `channel` is inside its ejection window. `now` is the
  /// steady-clock µs, read on first need (0: not read yet), so a healthy
  /// replica set never touches the clock.
  bool Ejected(uint64_t channel, uint64_t* now) const;
  /// Opens or refreshes `channel`'s ejection window after a retryable
  /// failure; counts only the healthy → ejected transition.
  void Eject(uint64_t channel);

  Transport* inner_;
  std::vector<std::vector<uint64_t>> placement_;
  FailoverOptions options_;
  CallLatencySketch latency_;
  runtime::ThreadGroup racers_;
  std::vector<ChannelState> channels_;

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> exhausted_{0};
  std::atomic<uint64_t> ejections_{0};
};

/// Builds the canonical replicated placement: `n_shards` logical shards
/// over `n_channels` inner channels, `replicas` channels per shard,
/// assigned round-robin (shard s → channels s, s+n_shards, ... mod
/// n_channels). With n_channels == replicas * n_shards this is the
/// "every shard has `replicas` dedicated workers" layout the tools and
/// tests use.
std::vector<std::vector<uint64_t>> RoundRobinPlacement(size_t n_shards,
                                                       size_t n_channels,
                                                       size_t replicas);

}  // namespace distributed
}  // namespace isla

#endif  // ISLA_DISTRIBUTED_FAILOVER_H_

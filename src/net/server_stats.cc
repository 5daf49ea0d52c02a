#include "net/server_stats.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "distributed/failover.h"

namespace isla {
namespace net {

namespace {

/// Index of the highest set bit; 0 maps to bucket 0.
int BucketOf(uint64_t micros) {
  int b = 0;
  while (micros > 1 && b < LatencyHistogram::kBuckets - 1) {
    micros >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double LatencyHistogram::PercentileMicros(double q) const {
  // Snapshot the buckets once; Record() racing the walk can at worst shift
  // the estimate by the in-flight statements, which is noise at gauge
  // granularity.
  std::array<uint64_t, kBuckets> snap;
  uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    snap[b] = buckets_[b].load(std::memory_order_relaxed);
    total += snap[b];
  }
  if (total == 0) return 0.0;
  // Every sample sub-microsecond: the whole distribution lives in bucket 0
  // ([0, 2) µs), whose only honest point estimate is its lower bound.
  if (snap[0] == total) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += snap[b];
    if (seen > rank) {
      // Interpolate the rank within [2^b, 2^(b+1)) (bucket 0 is [0, 2)).
      // The old geometric-midpoint estimate reported p50 ≈ 1.41 µs for a
      // workload whose every statement was sub-microsecond; interpolating
      // from the bucket's lower bound keeps an all-bucket-0 histogram at 0.
      if (b == kBuckets - 1) {
        // The open-ended top bucket has no width to interpolate over;
        // its lower bound is the only defensible point estimate.
        return std::ldexp(1.0, b);
      }
      double lo = b == 0 ? 0.0 : std::ldexp(1.0, b);
      double hi = std::ldexp(1.0, b + 1);
      uint64_t idx_in_bucket = rank - (seen - snap[b]);
      return lo + (hi - lo) * static_cast<double>(idx_in_bucket) /
                      static_cast<double>(snap[b]);
    }
  }
  return std::ldexp(1.0, kBuckets - 1);  // Unreachable.
}

void ServerStatsRegistry::RecordPeakSessions(uint64_t active_now) {
  uint64_t prev = peak_sessions_.load(std::memory_order_relaxed);
  while (active_now > prev &&
         !peak_sessions_.compare_exchange_weak(prev, active_now,
                                               std::memory_order_relaxed)) {
  }
}

void ServerStatsRegistry::RecordStatement(uint64_t latency_micros,
                                          std::string_view table) {
  statements_.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(latency_micros);
  if (!table.empty()) {
    std::lock_guard<std::mutex> lock(table_mu_);
    ++table_scans_[std::string(table)];
  }
}

std::string ServerStatsRegistry::ScanTargetOf(std::string_view statement) {
  // Tokenize on whitespace, lowercasing as we go; the table name is the
  // token after "from" in a statement whose first token is "select".
  std::vector<std::string> tokens;
  std::string current;
  for (char c : statement) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  if (tokens.empty() || tokens.front() != "select") return "";
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i] == "from") return tokens[i + 1];
  }
  return "";
}

std::string ServerStatsRegistry::Render(uint64_t active_sessions,
                                        uint64_t served,
                                        uint64_t max_sessions,
                                        unsigned io_threads,
                                        unsigned exec_threads,
                                        double uptime_seconds,
                                        std::string_view kernel_tier) const {
  uint64_t stmts = statements();
  double stmts_per_sec =
      uptime_seconds > 0.0 ? static_cast<double>(stmts) / uptime_seconds : 0.0;
  char buf[64];
  std::ostringstream os;
  os << "active_sessions = " << active_sessions
     << "\npeak_sessions = " << peak_sessions()
     << "\nmax_sessions = " << max_sessions
     << "\nsessions_served = " << served
     << "\nsessions_refused = " << refused()
     << "\nslow_client_disconnects = " << slow_client_disconnects()
     << "\nio_threads = " << io_threads
     << "\nexec_threads = " << exec_threads
     << "\nstatements = " << stmts;
  std::snprintf(buf, sizeof(buf), "%.1f", stmts_per_sec);
  os << "\nstmts_per_sec = " << buf;
  std::snprintf(buf, sizeof(buf), "%.3f",
                latency_.PercentileMicros(0.50) / 1000.0);
  os << "\nlatency_p50_ms = " << buf;
  std::snprintf(buf, sizeof(buf), "%.3f",
                latency_.PercentileMicros(0.99) / 1000.0);
  os << "\nlatency_p99_ms = " << buf;
  os << "\nkernels = " << kernel_tier;
  // Cluster fault-recovery counters: process-global (see FailoverStats)
  // because the transports doing the retrying are per-query objects the
  // stats registry never sees.
  const distributed::FailoverStats& fo = distributed::GlobalFailoverStats();
  os << "\ntransport_reconnects = "
     << fo.transport_reconnects.load(std::memory_order_relaxed)
     << "\nshard_retries = "
     << fo.shard_retries.load(std::memory_order_relaxed)
     << "\nshard_failovers = "
     << fo.shard_failovers.load(std::memory_order_relaxed)
     << "\nhedged_requests = "
     << fo.hedged_requests.load(std::memory_order_relaxed)
     << "\nhedge_wins = " << fo.hedge_wins.load(std::memory_order_relaxed)
     << "\nshards_exhausted = "
     << fo.shards_exhausted.load(std::memory_order_relaxed)
     << "\nreplica_ejections = "
     << fo.replica_ejections.load(std::memory_order_relaxed)
     << "\nworkers_registered = "
     << fo.workers_registered.load(std::memory_order_relaxed)
     << "\nreplicas_joined = "
     << fo.replicas_joined.load(std::memory_order_relaxed)
     << "\nshard_blocks_streamed = "
     << fo.shard_blocks_streamed.load(std::memory_order_relaxed)
     << "\nfingerprint_rejections = "
     << fo.fingerprint_rejections.load(std::memory_order_relaxed)
     << "\nplacement_epoch = "
     << fo.placement_epoch.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    for (const auto& [table, scans] : table_scans_) {
      os << "\nscans[" << table << "] = " << scans;
    }
  }
  return os.str();
}

}  // namespace net
}  // namespace isla

// isla_client — TCP client for the ISLA daemons. Two modes:
//
// Query-server session (statements from stdin, one response per line
// group, like isla_shell but over the network):
//
//   $ ./isla_client --port 7100
//   isla> CREATE TABLE s FROM NORMAL(100, 20) ROWS 1e8 BLOCKS 8
//   isla> SET precision 0.2
//   isla> SELECT AVG(value) FROM s
//
// Distributed aggregation driver (the center node of §VII-E): runs one
// AVG aggregation across worker daemons and prints the merged answer:
//
//   $ ./isla_client --workers 127.0.0.1:7101,127.0.0.1:7102 --within 0.1
//
// Worker order on the command line defines worker ids; each daemon must
// have been started with the matching --worker-id.
//
// Replicated shards: '|' groups replicas of one shard. Every endpoint in
// a group must serve the same shard files under the same --worker-id —
// replicas answer bit-identically, and the coordinator retries, fails
// over, and hedges between them (tune with --hedge-millis):
//
//   $ ./isla_client --workers 'h:7101|h:7201,h:7102|h:7202' --within 0.1
//
// Registry mode replaces the static worker list with dynamic membership:
// the client hosts the registry, workers started with --coordinator
// announce themselves, and the query runs on whoever registered:
//
//   $ ./isla_client --registry-port 7200 --expect-shards 2 --replicas 2

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "distributed/coordinator.h"
#include "distributed/failover.h"
#include "flag_parse.h"
#include "net/connection.h"
#include "net/partial.h"
#include "net/tcp_transport.h"
#include "net/worker_registry.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: isla_client --port P [--host h] [--stats]\n"
               "       isla_client --workers h:p[|h:p...],... [--within e] "
               "[--confidence b]\n"
               "                   [--hedge-millis n]\n"
               "       isla_client --registry-port P --expect-shards N\n"
               "                   [--replicas R] [--wait-millis n] "
               "[--within e]\n");
}

/// One-shot `SHOW SERVER STATS` probe: connect, print the stats body,
/// exit. For scripts and dashboards that just want the gauges.
int RunStatsProbe(const std::string& host, uint16_t port) {
  auto conn = isla::net::TcpConnect(host, port, /*timeout_millis=*/5'000);
  if (!conn.ok()) {
    std::fprintf(stderr, "error: %s\n", conn.status().ToString().c_str());
    return 1;
  }
  auto greeting = (*conn)->RecvFrame();
  if (!greeting.ok() || greeting->rfind("error: ", 0) == 0) {
    std::fprintf(stderr, "error: %s\n",
                 greeting.ok() ? greeting->c_str()
                               : greeting.status().ToString().c_str());
    return 1;
  }
  if (!(*conn)->SendFrame("SHOW SERVER STATS").ok()) return 1;
  auto response = (*conn)->RecvFrame();
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response->rfind("ok\n", 0) == 0
                          ? response->c_str() + 3
                          : response->c_str());
  (void)(*conn)->SendFrame("quit");
  return 0;
}

int RunSession(const std::string& host, uint16_t port) {
  auto conn = isla::net::TcpConnect(host, port, /*timeout_millis=*/5'000);
  if (!conn.ok()) {
    std::fprintf(stderr, "error: %s\n", conn.status().ToString().c_str());
    return 1;
  }
  // A single statement may legitimately sample for minutes (ROWS 1e9 at a
  // tight precision); don't let the default I/O deadline cut it off.
  (*conn)->set_deadline_millis(10 * 60 * 1000);
  // The server greets each session with one frame — or, when the session
  // limit is reached, answers with a single "error: ..." frame and
  // closes. Surface that refusal instead of prompting into a dead
  // connection.
  auto greeting = (*conn)->RecvFrame();
  if (!greeting.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 greeting.status().ToString().c_str());
    return 1;
  }
  if (greeting->rfind("error: ", 0) == 0) {
    std::fprintf(stderr, "%s\n", greeting->c_str());
    return 1;
  }
  bool interactive = isatty(fileno(stdin));
  std::string line;
  while (true) {
    if (interactive) {
      std::printf("isla> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    size_t begin = line.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) continue;
    size_t end = line.find_last_not_of(" \t\r\n");
    std::string statement = line.substr(begin, end - begin + 1);

    isla::Status sent = (*conn)->SendFrame(statement);
    if (!sent.ok()) {
      std::fprintf(stderr, "error: %s\n", sent.ToString().c_str());
      return 1;
    }
    // Streaming statements interleave PARTIAL frames before the final
    // "ok\n"/"error: " response — print each round as it lands so the
    // user watches the confidence interval tighten live.
    isla::Result<std::string> response = std::string();
    while (true) {
      response = (*conn)->RecvFrame();
      if (!response.ok() || !isla::net::IsPartialFrame(*response)) break;
      auto frame = isla::net::DecodePartialFrame(*response);
      if (!frame.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     frame.status().ToString().c_str());
        return 1;
      }
      std::printf("~ round %u/%u: %.4f +/- %.4f @%.2f (%llu samples)\n",
                  frame->round, frame->total_rounds, frame->value,
                  frame->ci_half_width, frame->confidence,
                  static_cast<unsigned long long>(frame->samples));
      std::fflush(stdout);
    }
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    // Strip the "ok\n" tag; print errors as-is.
    if (response->rfind("ok\n", 0) == 0) {
      std::printf("%s\n", response->c_str() + 3);
    } else {
      std::printf("%s\n", response->c_str());
    }
    if (statement == "quit" || statement == "exit") break;
  }
  return 0;
}

/// Runs one distributed AVG over `endpoints` with the given shard →
/// endpoint-index placement, replica failover and hedging on.
int RunWithPlacement(const std::vector<isla::net::Endpoint>& endpoints,
                     std::vector<std::vector<uint64_t>> placement,
                     double precision, double confidence,
                     int64_t hedge_millis, uint64_t placement_epoch = 0) {
  isla::net::TcpTransportOptions transport_options;
  // The cluster paths opt into in-call reconnects: a worker restarted
  // between queries should cost a redial, not a failed query.
  transport_options.reconnect_attempts = 1;
  isla::net::TcpTransport inner(endpoints, transport_options);

  isla::distributed::FailoverOptions failover_options;
  failover_options.placement_epoch = placement_epoch;
  if (hedge_millis > 0) {
    failover_options.hedge_delay_millis =
        static_cast<uint64_t>(hedge_millis);
  } else if (hedge_millis < 0) {
    failover_options.enable_hedging = false;
  }
  size_t n_shards = placement.size();
  isla::distributed::FailoverTransport transport(&inner,
                                                 std::move(placement),
                                                 failover_options);

  isla::core::IslaOptions options;
  options.precision = precision;
  options.confidence = confidence;
  isla::distributed::Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("AVG = %.6f  (sum=%.6g, rows=%llu, samples=%llu, "
              "shards=%zu, endpoints=%zu)\n",
              r->average, r->sum,
              static_cast<unsigned long long>(r->data_size),
              static_cast<unsigned long long>(r->total_samples),
              n_shards, endpoints.size());
  const isla::distributed::FailoverCounters& fo = r->failover;
  std::printf("failover: retries=%llu failovers=%llu hedges=%llu "
              "hedge_wins=%llu exhausted=%llu epoch=%llu ejections=%llu\n",
              static_cast<unsigned long long>(fo.retries),
              static_cast<unsigned long long>(fo.failovers),
              static_cast<unsigned long long>(fo.hedges),
              static_cast<unsigned long long>(fo.hedge_wins),
              static_cast<unsigned long long>(fo.exhausted),
              static_cast<unsigned long long>(fo.placement_epoch),
              static_cast<unsigned long long>(fo.replica_ejections));
  return 0;
}

int RunDistributed(const std::string& workers_arg, double precision,
                   double confidence, int64_t hedge_millis) {
  // Comma separates shards; '|' separates replicas of one shard.
  std::vector<isla::net::Endpoint> endpoints;
  std::vector<std::vector<uint64_t>> placement;
  size_t start = 0;
  while (start <= workers_arg.size()) {
    size_t comma = workers_arg.find(',', start);
    std::string group =
        workers_arg.substr(start, comma == std::string::npos
                                      ? std::string::npos
                                      : comma - start);
    if (!group.empty()) {
      std::vector<uint64_t> replicas;
      size_t gstart = 0;
      while (gstart <= group.size()) {
        size_t bar = group.find('|', gstart);
        std::string spec =
            group.substr(gstart, bar == std::string::npos
                                     ? std::string::npos
                                     : bar - gstart);
        if (!spec.empty()) {
          auto endpoint = isla::net::ParseEndpoint(spec);
          if (!endpoint.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         endpoint.status().ToString().c_str());
            return 2;
          }
          replicas.push_back(endpoints.size());
          endpoints.push_back(*endpoint);
        }
        if (bar == std::string::npos) break;
        gstart = bar + 1;
      }
      if (!replicas.empty()) placement.push_back(std::move(replicas));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (endpoints.empty()) {
    std::fprintf(stderr, "error: --workers needs at least one endpoint\n");
    return 2;
  }
  return RunWithPlacement(endpoints, std::move(placement), precision,
                          confidence, hedge_millis);
}

int RunRegistryDistributed(uint16_t registry_port, size_t expect_shards,
                           size_t min_replicas, int64_t wait_millis,
                           double precision, double confidence,
                           int64_t hedge_millis) {
  isla::net::WorkerRegistryOptions registry_options;
  registry_options.port = registry_port;
  isla::net::WorkerRegistry registry(registry_options);
  isla::Status st = registry.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("registry on 127.0.0.1:%u, waiting for %zu shard(s) x %zu "
              "replica(s)...\n",
              registry.port(), expect_shards, min_replicas);
  std::fflush(stdout);
  if (!registry.WaitForShards(expect_shards, min_replicas, wait_millis)) {
    std::fprintf(stderr,
                 "error: cluster did not converge within %lld ms\n",
                 static_cast<long long>(wait_millis));
    registry.Stop();
    return 1;
  }

  // Take a placement lease: shard ids must be dense [0, expect_shards) —
  // they double as the positional worker ids the RNG streams derive from.
  // The snapshot is epoch-stamped; the query runs against this frozen
  // membership, and a replica joining mid-query is picked up by the next
  // lease, never by a placement already in flight.
  auto snapshot = registry.SnapshotCluster(expect_shards);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 snapshot.status().ToString().c_str());
    registry.Stop();
    return 1;
  }
  std::printf("placement lease epoch %llu:\n",
              static_cast<unsigned long long>(snapshot->epoch));
  for (size_t s = 0; s < snapshot->placement.size(); ++s) {
    for (uint64_t idx : snapshot->placement[s]) {
      const isla::net::Endpoint& e = snapshot->endpoints[idx];
      std::printf("shard %zu replica: %s:%u\n", s, e.host.c_str(), e.port);
    }
  }
  std::fflush(stdout);
  int rc = RunWithPlacement(snapshot->endpoints,
                            std::move(snapshot->placement), precision,
                            confidence, hedge_millis, snapshot->epoch);
  registry.Stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string workers;
  uint16_t port = 0;
  uint16_t registry_port = 0;
  size_t expect_shards = 0;
  size_t replicas = 1;
  int64_t wait_millis = 10'000;
  int64_t hedge_millis = 0;  // 0 = auto (p99-derived); <0 disables hedging.
  double precision = 0.1;
  double confidence = 0.95;
  bool stats_probe = false;
  bool registry_mode = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next("--host");
    } else if (arg == "--port") {
      port = isla::tools::ParsePortFlag("--port", next("--port"));
    } else if (arg == "--workers") {
      workers = next("--workers");
    } else if (arg == "--registry-port") {
      registry_port = isla::tools::ParsePortFlag("--registry-port",
                                                 next("--registry-port"));
      registry_mode = true;
    } else if (arg == "--expect-shards") {
      expect_shards = isla::tools::ParseU64Flag("--expect-shards",
                                                next("--expect-shards"));
    } else if (arg == "--replicas") {
      replicas = isla::tools::ParseU64Flag("--replicas", next("--replicas"));
    } else if (arg == "--wait-millis") {
      wait_millis =
          isla::tools::ParseI64Flag("--wait-millis", next("--wait-millis"));
    } else if (arg == "--hedge-millis") {
      hedge_millis =
          isla::tools::ParseI64Flag("--hedge-millis", next("--hedge-millis"));
    } else if (arg == "--no-hedge") {
      hedge_millis = -1;
    } else if (arg == "--within") {
      precision = isla::tools::ParseF64Flag("--within", next("--within"));
    } else if (arg == "--confidence") {
      confidence =
          isla::tools::ParseF64Flag("--confidence", next("--confidence"));
    } else if (arg == "--stats") {
      stats_probe = true;
    } else {
      Usage();
      return 2;
    }
  }

  if (registry_mode) {
    if (expect_shards == 0) {
      std::fprintf(stderr, "error: --registry-port needs --expect-shards\n");
      return 2;
    }
    return RunRegistryDistributed(registry_port, expect_shards, replicas,
                                  wait_millis, precision, confidence,
                                  hedge_millis);
  }
  if (!workers.empty()) {
    return RunDistributed(workers, precision, confidence, hedge_millis);
  }
  if (port == 0) {
    Usage();
    return 2;
  }
  if (stats_probe) return RunStatsProbe(host, port);
  return RunSession(host, port);
}

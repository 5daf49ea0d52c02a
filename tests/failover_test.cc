// Fault-recovery suite for the replicated-cluster path: FailoverTransport
// retry/failover/hedge semantics against a scripted in-process transport,
// the dynamic WorkerRegistry (register, heartbeat, death, re-register),
// the TcpTransport in-call reconnect, and the FaultyConnection transient
// window — the machinery that lets a query survive a dying replica
// without changing its answer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "distributed/coordinator.h"
#include "distributed/failover.h"
#include "distributed/message.h"
#include "distributed/worker.h"
#include "net/faulty_connection.h"
#include "net/tcp_transport.h"
#include "net/worker_registry.h"
#include "net/worker_server.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "util/rng.h"
#include "util/timer.h"

namespace isla {
namespace distributed {
namespace {

// --- Scripted inner transport -------------------------------------------

/// Per-channel behavior: fail the first `fail_first` calls with `error`,
/// delay every call by `delay_millis`, then answer "ch<channel>".
struct ChannelScript {
  uint64_t fail_first = 0;
  Status error = Status::IOError("scripted failure");
  int64_t delay_millis = 0;
};

class ScriptedTransport : public Transport {
 public:
  explicit ScriptedTransport(std::vector<ChannelScript> channels)
      : channels_(std::move(channels)) {
    for (size_t i = 0; i < channels_.size(); ++i) {
      calls_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    }
  }

  Result<std::string> Call(uint64_t channel,
                           const std::string& frame) override {
    (void)frame;
    if (channel >= channels_.size()) return Status::NotFound("no channel");
    const ChannelScript& script = channels_[channel];
    uint64_t call = calls_[channel]->fetch_add(1, std::memory_order_relaxed);
    if (script.delay_millis > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(script.delay_millis));
    }
    if (call < script.fail_first) return script.error;
    return std::string("ch") + std::to_string(channel);
  }

  size_t size() const override { return channels_.size(); }

  uint64_t calls(uint64_t channel) const {
    return calls_[channel]->load(std::memory_order_relaxed);
  }

 private:
  std::vector<ChannelScript> channels_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> calls_;
};

FailoverOptions FastOptions() {
  FailoverOptions options;
  options.backoff_base_millis = 1;
  options.backoff_max_millis = 5;
  options.enable_hedging = false;  // Hedge tests opt back in.
  return options;
}

TEST(FailoverTransport, HealthyCallPassesThrough) {
  ScriptedTransport inner({{}, {}});
  FailoverTransport transport(&inner, {{0}, {1}}, FastOptions());
  auto r0 = transport.Call(0, "req");
  auto r1 = transport.Call(1, "req");
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r0, "ch0");
  EXPECT_EQ(*r1, "ch1");
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.failovers, 0u);
  EXPECT_EQ(c.exhausted, 0u);
}

TEST(FailoverTransport, FailsOverToSecondReplica) {
  // Shard 0's preferred replica (start = 0 % 2 = channel 0) always fails;
  // the failover retry must land on channel 1 and succeed.
  ScriptedTransport inner({{/*fail_first=*/1'000'000}, {}});
  FailoverTransport transport(&inner, {{0, 1}}, FastOptions());
  auto r = transport.Call(0, "req");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "ch1");
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.failovers, 1u);
  EXPECT_EQ(c.exhausted, 0u);
}

TEST(FailoverTransport, RetriesTransientFailureOnSameReplica) {
  // Single replica, first call fails, second succeeds: a retry, not a
  // failover.
  ScriptedTransport inner(std::vector<ChannelScript>{{/*fail_first=*/1}});
  FailoverTransport transport(&inner, {{0}}, FastOptions());
  auto r = transport.Call(0, "req");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "ch0");
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.failovers, 0u);
}

TEST(FailoverTransport, NonRetryableErrorPropagatesImmediately) {
  // A request-level failure (the worker answered it deliberately) must
  // not burn replicas: every replica would answer identically.
  ScriptedTransport inner(
      {{/*fail_first=*/1'000'000,
        Status::InvalidArgument("bad request")},
       {}});
  FailoverTransport transport(&inner, {{0, 1}}, FastOptions());
  auto r = transport.Call(0, "req");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  EXPECT_EQ(inner.calls(0), 1u);
  EXPECT_EQ(inner.calls(1), 0u);
  EXPECT_EQ(transport.failover_snapshot().retries, 0u);
}

TEST(FailoverTransport, ExhaustsAllReplicasAndReportsLastError) {
  ScriptedTransport inner({{/*fail_first=*/1'000'000},
                           {/*fail_first=*/1'000'000}});
  FailoverOptions options = FastOptions();
  options.max_rounds = 2;
  FailoverTransport transport(&inner, {{0, 1}}, options);
  auto r = transport.Call(0, "req");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status();
  EXPECT_NE(r.status().message().find("every replica"), std::string::npos)
      << r.status();
  // max_rounds * 2 replicas = 4 attempts, alternating channels.
  EXPECT_EQ(inner.calls(0), 2u);
  EXPECT_EQ(inner.calls(1), 2u);
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.exhausted, 1u);
  EXPECT_EQ(c.retries, 3u);
}

TEST(FailoverTransport, ReplicaPreferenceRotatesByShard) {
  // With two replicas per shard, shard 1 starts at replica index 1 % 2 =
  // 1 — its first call lands on channel 3, not channel 2.
  ScriptedTransport inner({{}, {}, {}, {}});
  FailoverTransport transport(&inner, {{0, 1}, {2, 3}}, FastOptions());
  auto r = transport.Call(1, "req");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "ch3");
  EXPECT_EQ(inner.calls(2), 0u);
}

TEST(FailoverTransport, HedgesStragglerAndTakesFirstAnswer) {
  // The preferred replica stalls far past the hedge delay; the hedge to
  // the second replica answers instantly and must win the race.
  ScriptedTransport inner({{0, Status::OK(), /*delay_millis=*/400}, {}});
  FailoverOptions options = FastOptions();
  options.enable_hedging = true;
  options.hedge_delay_millis = 25;
  FailoverTransport transport(&inner, {{0, 1}}, options);
  Timer timer;
  auto r = transport.Call(0, "req");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "ch1");
  // The win must come well before the straggler finishes.
  EXPECT_LT(timer.ElapsedMillis(), 350.0);
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.hedges, 1u);
  EXPECT_EQ(c.hedge_wins, 1u);
  EXPECT_EQ(c.retries, 0u);
}

TEST(FailoverTransport, FastPrimaryNeverHedges) {
  ScriptedTransport inner({{}, {}});
  FailoverOptions options = FastOptions();
  options.enable_hedging = true;
  options.hedge_delay_millis = 200;
  FailoverTransport transport(&inner, {{0, 1}}, options);
  for (int i = 0; i < 5; ++i) {
    auto r = transport.Call(0, "req");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "ch0");
  }
  EXPECT_EQ(transport.failover_snapshot().hedges, 0u);
  EXPECT_EQ(inner.calls(1), 0u);
}

TEST(FailoverTransport, HedgeFailurePlusPrimarySuccessStillSucceeds) {
  // Primary is slow but good; hedge fails fast. The race must wait out
  // the primary instead of surfacing the hedge's error.
  ScriptedTransport inner(
      {{0, Status::OK(), /*delay_millis=*/120},
       {/*fail_first=*/1'000'000}});
  FailoverOptions options = FastOptions();
  options.enable_hedging = true;
  options.hedge_delay_millis = 20;
  FailoverTransport transport(&inner, {{0, 1}}, options);
  auto r = transport.Call(0, "req");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "ch0");
  EXPECT_EQ(transport.failover_snapshot().hedge_wins, 0u);
}

TEST(FailoverTransport, RoundRobinPlacementShape) {
  // 2 shards over 4 channels at 2 replicas: shard s gets channels
  // {s, s + 2}.
  auto placement = RoundRobinPlacement(2, 4, 2);
  ASSERT_EQ(placement.size(), 2u);
  EXPECT_EQ(placement[0], (std::vector<uint64_t>{0, 2}));
  EXPECT_EQ(placement[1], (std::vector<uint64_t>{1, 3}));
  // Replica count is clamped to the channel count.
  auto tight = RoundRobinPlacement(3, 2, 5);
  for (const auto& replicas : tight) EXPECT_EQ(replicas.size(), 2u);
}

TEST(FailoverTransport, CoordinatorSurvivesOneDeadReplicaPerShard) {
  // End-to-end over loopback workers: every shard's preferred replica is
  // dead (always-failing channel), and the full AggregateAvg must still
  // complete — bit-identical to a run against an all-healthy cluster,
  // because the surviving replicas are the same Workers.
  // One Worker per channel; a channel's worker id is the shard it
  // replicates, and replicas of a shard are built identically — the
  // RNG-prefix property in miniature.
  auto make_workers = [](std::vector<uint64_t> shard_of_channel) {
    std::vector<std::unique_ptr<Worker>> workers;
    for (uint64_t shard : shard_of_channel) {
      workers.push_back(std::make_unique<Worker>(
          shard, std::make_shared<storage::GeneratorBlock>(
                     std::make_shared<stats::NormalDistribution>(100.0, 20.0),
                     50'000, SplitMix64::Hash(915, shard))));
    }
    return workers;
  };

  core::IslaOptions options;
  options.precision = 0.3;

  // Healthy cluster: 2 shards, loopback workers 0 and 1.
  LoopbackTransport healthy(make_workers({0, 1}));
  FailoverTransport healthy_failover(&healthy, {{0}, {1}}, FastOptions());
  Coordinator healthy_coordinator(&healthy_failover, options);
  auto healthy_result = healthy_coordinator.AggregateAvg();
  ASSERT_TRUE(healthy_result.ok()) << healthy_result.status();

  // Degraded cluster: channels 0/1 replicate shard 0, channels 2/3
  // replicate shard 1 (workers 0,1,0,1); a scripted wrapper kills each
  // shard's preferred channel.
  class DeadChannels : public Transport {
   public:
    DeadChannels(Transport* inner, std::vector<bool> dead)
        : inner_(inner), dead_(std::move(dead)) {}
    Result<std::string> Call(uint64_t channel,
                             const std::string& frame) override {
      if (dead_[channel]) return Status::IOError("replica down");
      return inner_->Call(channel, frame);
    }
    size_t size() const override { return inner_->size(); }

   private:
    Transport* inner_;
    std::vector<bool> dead_;
  };

  LoopbackTransport degraded_inner(make_workers({0, 0, 1, 1}));
  // Shard 0 prefers replica index 0 (channel 0); shard 1 prefers index
  // 1 % 2 = 1 (channel 3). Kill exactly the preferred ones.
  DeadChannels degraded(&degraded_inner, {true, false, false, true});
  FailoverTransport degraded_failover(&degraded, {{0, 1}, {2, 3}},
                                      FastOptions());
  Coordinator degraded_coordinator(&degraded_failover, options);
  auto degraded_result = degraded_coordinator.AggregateAvg();
  ASSERT_TRUE(degraded_result.ok()) << degraded_result.status();

  EXPECT_EQ(healthy_result->average, degraded_result->average);
  EXPECT_EQ(healthy_result->sum, degraded_result->sum);
  EXPECT_EQ(healthy_result->total_samples, degraded_result->total_samples);
  EXPECT_GT(degraded_result->failover.failovers, 0u);
  EXPECT_EQ(degraded_result->failover.exhausted, 0u);
}

// --- Replica ejection ----------------------------------------------------

TEST(FailoverTransport, ZeroMaxRoundsStillAttemptsEveryReplica) {
  // max_rounds = 0 is clamped to 1: a healthy call succeeds instead of
  // failing with "no attempt made", and nothing is counted.
  ScriptedTransport inner({{}, {}});
  FailoverOptions options = FastOptions();
  options.max_rounds = 0;
  FailoverTransport transport(&inner, {{0, 1}}, options);
  auto r = transport.Call(0, "req");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "ch0");
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.failovers, 0u);
  EXPECT_EQ(c.exhausted, 0u);
  EXPECT_EQ(c.replica_ejections, 0u);
}

TEST(FailoverTransport, DeadReplicaIsEjectedAfterOneFailure) {
  // The first call pays one failed attempt on the dead preferred replica;
  // every later call inside the ejection window starts on the live one.
  ScriptedTransport inner({{/*fail_first=*/1'000'000}, {}});
  FailoverOptions options = FastOptions();
  options.backoff_max_millis = 60'000;  // the window outlives the test
  FailoverTransport transport(&inner, {{0, 1}}, options);
  for (int i = 0; i < 21; ++i) {
    auto r = transport.Call(0, "req");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, "ch1");
  }
  EXPECT_EQ(inner.calls(0), 1u);
  EXPECT_EQ(inner.calls(1), 21u);
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.failovers, 1u);
  EXPECT_EQ(c.replica_ejections, 1u);
}

TEST(FailoverTransport, RecoveredReplicaIsProbedAndPreferredAgain) {
  // Channel 0 fails once and is ejected for ~5 ms. Once the window has
  // passed, the next call is the probe: it succeeds, heals the channel,
  // and the static preference for channel 0 holds again.
  ScriptedTransport inner({{/*fail_first=*/1}, {}});
  FailoverOptions options = FastOptions();
  options.backoff_max_millis = 5;
  FailoverTransport transport(&inner, {{0, 1}}, options);
  auto first = transport.Call(0, "req");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, "ch1");

  // Window: backoff_max_millis plus at most backoff_base_millis jitter.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 3; ++i) {
    auto r = transport.Call(0, "req");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, "ch0");
  }
  EXPECT_EQ(inner.calls(0), 4u);
  EXPECT_EQ(inner.calls(1), 1u);
  EXPECT_EQ(transport.failover_snapshot().replica_ejections, 1u);
}

TEST(FailoverTransport, AllReplicasEjectedStillSweepsEveryReplica) {
  // Ejection reorders the replicas but never skips them: with both
  // channels ejected, a call still makes the full max_rounds * R sweep.
  // Re-ejecting an ejected channel is not a new ejection.
  ScriptedTransport inner({{/*fail_first=*/1'000'000},
                           {/*fail_first=*/1'000'000}});
  FailoverOptions options = FastOptions();
  options.max_rounds = 2;
  options.backoff_max_millis = 60'000;
  options.backoff_base_millis = 0;  // no sleep between rounds
  FailoverTransport transport(&inner, {{0, 1}}, options);
  ASSERT_FALSE(transport.Call(0, "req").ok());
  EXPECT_EQ(transport.failover_snapshot().replica_ejections, 2u);

  auto r = transport.Call(0, "req");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status();
  EXPECT_EQ(inner.calls(0), 4u);
  EXPECT_EQ(inner.calls(1), 4u);
  FailoverCounters c = transport.failover_snapshot();
  EXPECT_EQ(c.exhausted, 2u);
  EXPECT_EQ(c.replica_ejections, 2u);
}

TEST(FailoverTransport, FailoverToUntriedReplicaDoesNotBackOff) {
  // Backoff applies only before re-trying a replica the call already
  // tried. Moving from the dead preferred replica to the untried live one
  // must not sleep the 500+ ms a backoff would.
  ScriptedTransport inner({{/*fail_first=*/1'000'000}, {}});
  FailoverOptions options = FastOptions();
  options.backoff_base_millis = 500;
  options.backoff_max_millis = 1'000;
  FailoverTransport transport(&inner, {{0, 1}}, options);
  Timer timer;
  auto r = transport.Call(0, "req");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "ch1");
  EXPECT_LT(timer.ElapsedMillis(), 100.0);
  EXPECT_EQ(transport.failover_snapshot().failovers, 1u);
}

// --- Registration / registry --------------------------------------------

std::unique_ptr<Worker> NormalWorker(uint64_t id, uint64_t rows) {
  return std::make_unique<Worker>(
      id, std::make_shared<storage::GeneratorBlock>(
              std::make_shared<stats::NormalDistribution>(100.0, 20.0), rows,
              SplitMix64::Hash(5150, id)));
}

net::WorkerServerOptions RegisteringOptions(uint16_t registry_port) {
  net::WorkerServerOptions options;
  options.coordinator_host = "127.0.0.1";
  options.coordinator_port = registry_port;
  options.heartbeat_millis = 100;
  return options;
}

TEST(WorkerRegistry, WorkersRegisterAndHeartbeat) {
  net::WorkerRegistry registry;
  ASSERT_TRUE(registry.Start().ok());

  net::WorkerServer a(NormalWorker(0, 10'000),
                      RegisteringOptions(registry.port()));
  net::WorkerServer b(NormalWorker(0, 10'000),
                      RegisteringOptions(registry.port()));
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());

  ASSERT_TRUE(registry.WaitForShards(/*n_shards=*/1, /*min_replicas=*/2,
                                     /*timeout_millis=*/5'000));
  auto placement = registry.Placement();
  ASSERT_EQ(placement.size(), 1u);
  ASSERT_EQ(placement[0].size(), 2u);
  EXPECT_EQ(placement[0][0].block_rows, 10'000u);
  EXPECT_EQ(registry.registrations(), 2u);

  // Heartbeats keep flowing on the same connection.
  uint64_t before = a.heartbeats_acked();
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  EXPECT_GT(a.heartbeats_acked(), before);
  EXPECT_EQ(registry.registrations(), 2u);  // Heartbeats are not new regs.

  a.Stop();
  b.Stop();
  registry.Stop();
}

TEST(WorkerRegistry, DeadWorkerDropsOutAndRejoinsOnRestart) {
  net::WorkerRegistry registry;
  ASSERT_TRUE(registry.Start().ok());

  net::WorkerServerOptions options = RegisteringOptions(registry.port());
  auto worker_server =
      std::make_unique<net::WorkerServer>(NormalWorker(0, 10'000), options);
  ASSERT_TRUE(worker_server->Start().ok());
  ASSERT_TRUE(registry.WaitForShards(1, 1, 5'000));
  uint16_t worker_port = worker_server->port();

  // Kill the worker: the dropped registration socket must remove it from
  // the live placement promptly (no heartbeat-expiry wait needed).
  worker_server->Stop();
  worker_server.reset();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!registry.Placement().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(registry.Placement().empty());

  // Restart on the same port: the same (shard, host, port) identity
  // re-registers — the cluster healed without the registry restarting.
  options.port = worker_port;
  worker_server =
      std::make_unique<net::WorkerServer>(NormalWorker(0, 10'000), options);
  ASSERT_TRUE(worker_server->Start().ok());
  ASSERT_TRUE(registry.WaitForShards(1, 1, 5'000));
  EXPECT_EQ(registry.registrations(), 2u);

  worker_server->Stop();
  registry.Stop();
}

TEST(WorkerRegistry, WorkerStartedBeforeRegistryEventuallyRegisters) {
  // Grab a port for the registry, but start the worker first: its redial
  // backoff must pick the registry up once it binds.
  net::WorkerRegistryOptions registry_options;
  uint16_t registry_port = 0;
  {
    net::WorkerRegistry probe;
    ASSERT_TRUE(probe.Start().ok());
    registry_port = probe.port();
    probe.Stop();
  }

  net::WorkerServer worker_server(NormalWorker(0, 10'000),
                                  RegisteringOptions(registry_port));
  ASSERT_TRUE(worker_server.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  net::WorkerRegistryOptions late_options;
  late_options.port = registry_port;
  net::WorkerRegistry registry(late_options);
  ASSERT_TRUE(registry.Start().ok());
  EXPECT_TRUE(registry.WaitForShards(1, 1, 5'000));

  worker_server.Stop();
  registry.Stop();
}

// --- TcpTransport reconnect ---------------------------------------------

TEST(TcpTransportReconnect, SurvivesWorkerRestartBetweenQueries) {
  // Regression for the stale-connection poisoning: a worker daemon killed
  // and restarted between queries leaves the transport holding a dead
  // socket. With reconnect_attempts=1 the next call redials in-call and
  // succeeds; nothing surfaces to the caller.
  auto server = std::make_unique<net::WorkerServer>(NormalWorker(0, 10'000));
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  net::TcpTransportOptions options;
  options.call_deadline_millis = 2'000;
  options.reconnect_attempts = 1;
  net::TcpTransport transport({{"127.0.0.1", port}}, options);

  PilotRequest request;
  request.query_id = 1;
  request.sample_count = 16;
  request.seed = 42;
  auto first = transport.Call(0, Encode(request));
  ASSERT_TRUE(first.ok()) << first.status();

  // Kill + restart on the same port (SO_REUSEADDR makes the rebind
  // immediate); the transport still caches the dead connection.
  server->Stop();
  server.reset();
  net::WorkerServerOptions restart_options;
  restart_options.port = port;
  server = std::make_unique<net::WorkerServer>(NormalWorker(0, 10'000),
                                               restart_options);
  ASSERT_TRUE(server->Start().ok());

  auto second = transport.Call(0, Encode(request));
  ASSERT_TRUE(second.ok()) << second.status();
  // Replicas are deterministic: the restarted worker is the same worker,
  // so the answers are bit-identical.
  ASSERT_TRUE(DecodePilotResponse(*second).ok());
  EXPECT_EQ(*first, *second);
  server->Stop();
}

TEST(TcpTransportReconnect, DefaultStaysFailFast) {
  // Without opting in, the stale connection still fails the first call
  // after a restart (single-replica fault semantics are strict), and the
  // *next* call reconnects lazily.
  auto server = std::make_unique<net::WorkerServer>(NormalWorker(0, 10'000));
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  net::TcpTransportOptions options;
  options.call_deadline_millis = 2'000;
  net::TcpTransport transport({{"127.0.0.1", port}}, options);

  PilotRequest request;
  request.query_id = 1;
  request.sample_count = 16;
  request.seed = 42;
  ASSERT_TRUE(transport.Call(0, Encode(request)).ok());

  server->Stop();
  server.reset();
  net::WorkerServerOptions restart_options;
  restart_options.port = port;
  server = std::make_unique<net::WorkerServer>(NormalWorker(0, 10'000),
                                               restart_options);
  ASSERT_TRUE(server->Start().ok());

  EXPECT_FALSE(transport.Call(0, Encode(request)).ok());
  EXPECT_TRUE(transport.Call(0, Encode(request)).ok());
  server->Stop();
}

// --- Transient fault window ---------------------------------------------

TEST(TransientFaults, FailFirstNWindowPassesAfterwards) {
  // The worker's connections share a server-wide send counter: send 0
  // passes (first call), sends [1, 2) fault, and everything after passes
  // — so a transport with one in-call reconnect rides out the window
  // deterministically.
  net::WorkerServerOptions options;
  options.fault = net::FaultMode::kCloseInsteadOfSend;
  options.fault_after_sends = 1;
  options.fault_first_n = 1;
  net::WorkerServer server(NormalWorker(0, 10'000), options);
  ASSERT_TRUE(server.Start().ok());

  net::TcpTransportOptions transport_options;
  transport_options.call_deadline_millis = 2'000;
  transport_options.reconnect_attempts = 1;
  net::TcpTransport transport({{"127.0.0.1", server.port()}},
                              transport_options);

  PilotRequest request;
  request.query_id = 1;
  request.sample_count = 16;
  request.seed = 42;
  auto first = transport.Call(0, Encode(request));   // Send 0: clean.
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = transport.Call(0, Encode(request));  // Send 1 faults;
  ASSERT_TRUE(second.ok()) << second.status();       // reconnect rides out.
  EXPECT_EQ(*first, *second);
  server.Stop();
}

TEST(TransientFaults, WindowSpansReconnectsViaSharedCounter) {
  // Without a reconnect budget each attempt is one visible failure, but
  // the shared counter still advances: attempt 2 fails (window), attempt
  // 3 passes. A per-connection counter would fault forever here.
  net::WorkerServerOptions options;
  options.fault = net::FaultMode::kCloseInsteadOfSend;
  options.fault_after_sends = 1;
  options.fault_first_n = 1;
  net::WorkerServer server(NormalWorker(0, 10'000), options);
  ASSERT_TRUE(server.Start().ok());

  net::TcpTransportOptions transport_options;
  transport_options.call_deadline_millis = 2'000;
  net::TcpTransport transport({{"127.0.0.1", server.port()}},
                              transport_options);

  PilotRequest request;
  request.query_id = 1;
  request.sample_count = 16;
  request.seed = 42;
  ASSERT_TRUE(transport.Call(0, Encode(request)).ok());
  EXPECT_FALSE(transport.Call(0, Encode(request)).ok());
  EXPECT_TRUE(transport.Call(0, Encode(request)).ok());
  server.Stop();
}

// --- Registry-driven failover, end to end over TCP ----------------------

TEST(ClusterEndToEnd, RegistryPlacementSurvivesReplicaDeath) {
  // Two replicas of one shard register dynamically; the preferred one is
  // killed; a query through the registry-derived placement must fail over
  // and produce the same bytes the surviving replica would produce alone.
  net::WorkerRegistry registry;
  ASSERT_TRUE(registry.Start().ok());

  auto replica_a = std::make_unique<net::WorkerServer>(
      NormalWorker(0, 20'000), RegisteringOptions(registry.port()));
  auto replica_b = std::make_unique<net::WorkerServer>(
      NormalWorker(0, 20'000), RegisteringOptions(registry.port()));
  ASSERT_TRUE(replica_a->Start().ok());
  ASSERT_TRUE(replica_b->Start().ok());
  ASSERT_TRUE(registry.WaitForShards(1, 2, 5'000));

  auto build_placement = [&]() {
    std::vector<net::Endpoint> endpoints;
    std::vector<std::vector<uint64_t>> placement(1);
    auto live = registry.Placement();
    for (const auto& replica : live[0]) {
      placement[0].push_back(endpoints.size());
      endpoints.push_back({replica.host, replica.port});
    }
    return std::make_pair(endpoints, placement);
  };
  auto [endpoints, placement] = build_placement();
  ASSERT_EQ(endpoints.size(), 2u);

  // Kill the preferred replica (shard 0 prefers replica index 0, which is
  // registration order — replica_a registered first... or not; kill
  // whichever endpoint is preferred).
  uint16_t preferred_port = endpoints[placement[0][0]].port;
  if (replica_a->port() == preferred_port) {
    replica_a->Stop();
    replica_a.reset();
  } else {
    replica_b->Stop();
    replica_b.reset();
  }

  net::TcpTransportOptions transport_options;
  transport_options.call_deadline_millis = 2'000;
  transport_options.connect_timeout_millis = 1'000;
  transport_options.reconnect_attempts = 1;
  net::TcpTransport inner(endpoints, transport_options);
  FailoverOptions failover_options = FastOptions();
  FailoverTransport transport(&inner, placement, failover_options);

  core::IslaOptions options;
  options.precision = 0.3;
  Coordinator coordinator(&transport, options);
  auto degraded = coordinator.AggregateAvg();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_GT(degraded->failover.failovers, 0u);

  // Reference: the same query against the surviving replica alone.
  std::vector<std::unique_ptr<Worker>> survivors;
  survivors.push_back(NormalWorker(0, 20'000));
  LoopbackTransport reference(std::move(survivors));
  Coordinator reference_coordinator(&reference, options);
  auto healthy = reference_coordinator.AggregateAvg();
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->average, degraded->average);
  EXPECT_EQ(healthy->total_samples, degraded->total_samples);

  if (replica_a) replica_a->Stop();
  if (replica_b) replica_b->Stop();
  registry.Stop();
}

}  // namespace
}  // namespace distributed
}  // namespace isla

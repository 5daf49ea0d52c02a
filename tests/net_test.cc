// Tests for the src/net transport: wire framing, Connection/Listener over
// real loopback TCP, deadline behaviour, the ThreadGroup runtime helper,
// and the TCP-distributed execution path (WorkerServer + TcpTransport)
// whose answers must be bit-identical to the in-process loopback
// transport and to the single-node engine.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/group_by.h"
#include "distributed/coordinator.h"
#include "distributed/message.h"
#include "distributed/worker.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/partial.h"
#include "net/query_server.h"
#include "net/tcp_transport.h"
#include "net/worker_server.h"
#include "runtime/thread_pool.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "util/rng.h"

namespace isla {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Frame, RoundTrip) {
  std::string payload = "hello, distributed world";
  std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  auto header = DecodeFrameHeader(frame.data());
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->payload_length, payload.size());
  EXPECT_TRUE(
      VerifyFramePayload(*header, frame.substr(kFrameHeaderBytes)).ok());
}

TEST(Frame, EmptyPayload) {
  std::string frame = EncodeFrame("");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  auto header = DecodeFrameHeader(frame.data());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->payload_length, 0u);
  EXPECT_TRUE(VerifyFramePayload(*header, "").ok());
}

TEST(Frame, BadMagicRejected) {
  std::string frame = EncodeFrame("x");
  frame[0] ^= 0xff;
  EXPECT_TRUE(DecodeFrameHeader(frame.data()).status().IsCorruption());
}

TEST(Frame, OversizeLengthRejectedBeforeAllocation) {
  std::string frame = EncodeFrame("x");
  uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(frame.data() + 4, &huge, sizeof(huge));
  EXPECT_TRUE(DecodeFrameHeader(frame.data()).status().IsCorruption());
}

TEST(Frame, CorruptPayloadFailsCrc) {
  std::string payload = "precision matters";
  std::string frame = EncodeFrame(payload);
  frame[kFrameHeaderBytes + 3] ^= 0x10;
  auto header = DecodeFrameHeader(frame.data());
  ASSERT_TRUE(header.ok());
  EXPECT_TRUE(VerifyFramePayload(*header, frame.substr(kFrameHeaderBytes))
                  .IsCorruption());
}

TEST(Frame, LengthMismatchFails) {
  std::string frame = EncodeFrame("abcdef");
  auto header = DecodeFrameHeader(frame.data());
  ASSERT_TRUE(header.ok());
  EXPECT_TRUE(VerifyFramePayload(*header, "abc").IsCorruption());
}

// ---------------------------------------------------------------------------
// Connection / Listener over loopback TCP
// ---------------------------------------------------------------------------

struct Pair {
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
};

/// Builds a connected client/server pair over 127.0.0.1.
Pair Connect() {
  Pair p;
  auto listener = Listener::Bind(0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  p.listener = std::move(*listener);
  auto client = TcpConnect("127.0.0.1", p.listener->port(), 2'000);
  EXPECT_TRUE(client.ok()) << client.status();
  p.client = std::move(*client);
  auto server = p.listener->Accept(2'000);
  EXPECT_TRUE(server.ok()) << server.status();
  p.server = std::move(*server);
  return p;
}

TEST(Connection, FrameRoundTripBothDirections) {
  Pair p = Connect();
  ASSERT_TRUE(p.client->SendFrame("ping").ok());
  auto got = p.server->RecvFrame();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "ping");

  ASSERT_TRUE(p.server->SendFrame("pong").ok());
  auto back = p.client->RecvFrame();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "pong");
}

TEST(Connection, LargeFrame) {
  Pair p = Connect();
  std::string big(3 << 20, 'x');
  for (size_t i = 0; i < big.size(); i += 7919) big[i] = char('a' + i % 26);
  // Writer on a thread: a 3 MiB frame overflows the socket buffers, so a
  // same-thread send would deadlock against the unread receive side.
  std::thread writer(
      [&] { EXPECT_TRUE(p.client->SendFrame(big).ok()); });
  auto got = p.server->RecvFrame();
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, big);
}

TEST(Connection, EmptyFrame) {
  Pair p = Connect();
  ASSERT_TRUE(p.client->SendFrame("").ok());
  auto got = p.server->RecvFrame();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "");
}

TEST(Connection, GarbageBytesSurfaceAsCorruption) {
  Pair p = Connect();
  ASSERT_TRUE(p.client->SendRaw("this is not a frame at all!!").ok());
  auto got = p.server->RecvFrame();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
}

TEST(Connection, TruncatedFrameIsCorruption) {
  Pair p = Connect();
  std::string frame = EncodeFrame("we never finish this frame");
  ASSERT_TRUE(
      p.client->SendRaw(std::string_view(frame.data(), frame.size() - 5))
          .ok());
  p.client->Close();
  auto got = p.server->RecvFrame();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
}

TEST(Connection, CleanCloseIsIOError) {
  Pair p = Connect();
  p.client->Close();
  auto got = p.server->RecvFrame();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status();
  EXPECT_NE(got.status().message().find("closed"), std::string::npos);
}

TEST(Connection, RecvDeadlineFiresInsteadOfHanging) {
  Pair p = Connect();
  p.server->set_deadline_millis(100);
  auto got = p.server->RecvFrame();  // Client sends nothing.
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError());
  EXPECT_NE(got.status().message().find("timed out"), std::string::npos)
      << got.status();
}

TEST(Connection, ConnectToDeadPortFails) {
  // Bind then close a listener to get a port that refuses connections.
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  uint16_t port = (*listener)->port();
  (*listener)->Close();
  auto conn = TcpConnect("127.0.0.1", port, 500);
  EXPECT_FALSE(conn.ok());
  EXPECT_TRUE(conn.status().IsIOError()) << conn.status();
}

TEST(Connection, BadHostRejected) {
  auto conn = TcpConnect("not-an-address", 80, 100);
  EXPECT_TRUE(conn.status().IsInvalidArgument());
}

TEST(Endpoint, ParseValidAndInvalid) {
  auto e = ParseEndpoint("10.0.0.3:7101");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->host, "10.0.0.3");
  EXPECT_EQ(e->port, 7101);
  EXPECT_TRUE(ParseEndpoint("nohost").status().IsInvalidArgument());
  EXPECT_TRUE(ParseEndpoint("h:").status().IsInvalidArgument());
  EXPECT_TRUE(ParseEndpoint(":80").status().IsInvalidArgument());
  EXPECT_TRUE(ParseEndpoint("h:0").status().IsInvalidArgument());
  EXPECT_TRUE(ParseEndpoint("h:99999").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// runtime::ThreadGroup
// ---------------------------------------------------------------------------

TEST(ThreadGroup, JoinsEverything) {
  std::atomic<int> ran{0};
  {
    runtime::ThreadGroup group;
    for (int i = 0; i < 16; ++i) {
      group.Spawn([&] { ran.fetch_add(1); });
    }
    group.JoinAll();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(group.spawned_count(), 16u);
  }
}

TEST(ThreadGroup, SpawnFromSpawnedThreadIsJoined) {
  std::atomic<int> ran{0};
  runtime::ThreadGroup group;
  group.Spawn([&] {
    ran.fetch_add(1);
    group.Spawn([&] { ran.fetch_add(1); });
  });
  group.JoinAll();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(group.spawned_count(), 2u);
}

// ---------------------------------------------------------------------------
// WorkerServer + TcpTransport: the TCP-distributed execution path
// ---------------------------------------------------------------------------

std::unique_ptr<distributed::Worker> NormalWorker(uint64_t id,
                                                  uint64_t rows) {
  return std::make_unique<distributed::Worker>(
      id, std::make_shared<storage::GeneratorBlock>(
              std::make_shared<stats::NormalDistribution>(100.0, 20.0), rows,
              SplitMix64::Hash(5150, id)));
}

/// A cluster of worker daemons on ephemeral loopback ports.
struct Cluster {
  std::vector<std::unique_ptr<WorkerServer>> servers;
  std::vector<Endpoint> endpoints;

  static Cluster StartNormal(uint64_t workers, uint64_t rows) {
    Cluster c;
    for (uint64_t w = 0; w < workers; ++w) {
      auto server = std::make_unique<WorkerServer>(NormalWorker(w, rows));
      EXPECT_TRUE(server->Start().ok());
      c.endpoints.push_back({"127.0.0.1", server->port()});
      c.servers.push_back(std::move(server));
    }
    return c;
  }
};

TEST(TcpTransport, AggregateAvgBitIdenticalToLoopback) {
  constexpr uint64_t kWorkers = 4;
  constexpr uint64_t kRows = 2'000'000;
  core::IslaOptions options;
  options.precision = 0.3;

  // Loopback reference: the identical workers behind the in-process
  // transport.
  std::vector<std::unique_ptr<distributed::Worker>> loop_workers;
  for (uint64_t w = 0; w < kWorkers; ++w) {
    loop_workers.push_back(NormalWorker(w, kRows));
  }
  distributed::LoopbackTransport loopback(std::move(loop_workers));
  distributed::Coordinator loop_coord(&loopback, options);
  auto loop = loop_coord.AggregateAvg();
  ASSERT_TRUE(loop.ok()) << loop.status();

  Cluster cluster = Cluster::StartNormal(kWorkers, kRows);
  TcpTransport transport(cluster.endpoints);
  distributed::Coordinator tcp_coord(&transport, options);
  auto tcp = tcp_coord.AggregateAvg();
  ASSERT_TRUE(tcp.ok()) << tcp.status();

  // Bit-identical: the same request frames produce the same response
  // frames; TCP only changes the carrier.
  EXPECT_EQ(tcp->average, loop->average);
  EXPECT_EQ(tcp->sum, loop->sum);
  EXPECT_EQ(tcp->data_size, loop->data_size);
  EXPECT_EQ(tcp->total_samples, loop->total_samples);
  EXPECT_EQ(tcp->sigma_estimate, loop->sigma_estimate);
  EXPECT_EQ(tcp->sketch0, loop->sketch0);
  ASSERT_EQ(tcp->partials.size(), loop->partials.size());
  for (size_t w = 0; w < tcp->partials.size(); ++w) {
    EXPECT_EQ(tcp->partials[w].avg, loop->partials[w].avg);
    EXPECT_EQ(tcp->partials[w].samples_drawn,
              loop->partials[w].samples_drawn);
    EXPECT_EQ(tcp->partials[w].iterations, loop->partials[w].iterations);
  }
}

TEST(TcpTransport, BitIdenticalAcrossCoordinatorParallelism) {
  constexpr uint64_t kWorkers = 4;
  Cluster cluster = Cluster::StartNormal(kWorkers, 500'000);
  std::vector<double> averages;
  for (uint32_t parallelism : {1u, 2u, 8u}) {
    TcpTransport transport(cluster.endpoints);
    core::IslaOptions options;
    options.precision = 0.3;
    options.parallelism = parallelism;
    distributed::Coordinator coordinator(&transport, options);
    auto r = coordinator.AggregateAvg();
    ASSERT_TRUE(r.ok()) << r.status();
    averages.push_back(r->average);
  }
  EXPECT_EQ(averages[0], averages[1]);
  EXPECT_EQ(averages[0], averages[2]);
}

TEST(TcpTransport, GroupedBitIdenticalToLocalEngine) {
  // Row-aligned (value, predicate, key) shards served over real TCP must
  // reproduce the single-node GroupByEngine answer bit for bit.
  constexpr uint64_t kBlocks = 3;
  constexpr uint64_t kRowsPerBlock = 40'000;
  storage::Column values("v"), preds("p"), keys("k");
  Cluster cluster;
  Xoshiro256 rng(991);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    std::vector<double> vals, ps, ks;
    for (uint64_t i = 0; i < kRowsPerBlock; ++i) {
      double key = static_cast<double>(rng.NextBounded(3));
      vals.push_back(10.0 * (key + 1.0) + rng.NextDouble());
      ps.push_back(rng.NextDouble());
      ks.push_back(key);
    }
    auto vb = std::make_shared<storage::MemoryBlock>(std::move(vals));
    auto pb = std::make_shared<storage::MemoryBlock>(std::move(ps));
    auto kb = std::make_shared<storage::MemoryBlock>(std::move(ks));
    ASSERT_TRUE(values.AppendBlock(vb).ok());
    ASSERT_TRUE(preds.AppendBlock(pb).ok());
    ASSERT_TRUE(keys.AppendBlock(kb).ok());
    auto server = std::make_unique<WorkerServer>(
        std::make_unique<distributed::Worker>(b, vb, pb, kb));
    ASSERT_TRUE(server->Start().ok());
    cluster.endpoints.push_back({"127.0.0.1", server->port()});
    cluster.servers.push_back(std::move(server));
  }

  core::IslaOptions options;
  options.precision = 0.3;

  core::GroupedSpec spec;
  spec.values = &values;
  spec.predicate = &preds;
  spec.op = core::PredicateOp::kGe;
  spec.literal = 0.25;
  spec.keys = &keys;
  core::GroupByEngine engine(options);
  auto local = engine.Aggregate(spec);
  ASSERT_TRUE(local.ok()) << local.status();

  TcpTransport transport(cluster.endpoints);
  distributed::Coordinator coordinator(&transport, options);
  distributed::GroupedQuerySpec wire;
  wire.has_predicate = true;
  wire.op = core::PredicateOp::kGe;
  wire.literal = 0.25;
  wire.has_group = true;
  auto dist = coordinator.AggregateGrouped(wire);
  ASSERT_TRUE(dist.ok()) << dist.status();

  ASSERT_EQ(dist->groups.size(), local->groups.size());
  EXPECT_EQ(dist->scanned_samples, local->scanned_samples);
  for (size_t g = 0; g < local->groups.size(); ++g) {
    EXPECT_EQ(dist->groups[g].key, local->groups[g].key);
    EXPECT_EQ(dist->groups[g].average, local->groups[g].average);
    EXPECT_EQ(dist->groups[g].sum, local->groups[g].sum);
    EXPECT_EQ(dist->groups[g].count_estimate,
              local->groups[g].count_estimate);
    EXPECT_EQ(dist->groups[g].ci_half_width, local->groups[g].ci_half_width);
    EXPECT_EQ(dist->groups[g].samples, local->groups[g].samples);
  }
}

TEST(TcpTransport, UnknownWorkerIdIsNotFound) {
  TcpTransport transport({});
  EXPECT_TRUE(transport.Call(0, "x").status().IsNotFound());
}

TEST(TcpTransport, UnreachableWorkerIsCleanIOError) {
  // A port with nothing listening: connect (or the call) must fail with a
  // clean status, not hang.
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  uint16_t dead_port = (*listener)->port();
  (*listener)->Close();

  TcpTransportOptions topts;
  topts.connect_timeout_millis = 500;
  TcpTransport transport({{"127.0.0.1", dead_port}}, topts);
  distributed::Coordinator coordinator(&transport, core::IslaOptions{});
  auto r = coordinator.AggregateAvg();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status();
}

// ---------------------------------------------------------------------------
// QueryServer: concurrent mini-SQL sessions
// ---------------------------------------------------------------------------

/// One client session against a QueryServer: sends a statement, returns
/// the response payload.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    auto conn = TcpConnect("127.0.0.1", port, 2'000);
    EXPECT_TRUE(conn.ok()) << conn.status();
    conn_ = std::move(*conn);
    auto greeting = conn_->RecvFrame();
    EXPECT_TRUE(greeting.ok()) << greeting.status();
  }

  std::string Send(const std::string& statement) {
    EXPECT_TRUE(conn_->SendFrame(statement).ok());
    auto response = conn_->RecvFrame();
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : std::string();
  }

  Connection* conn() { return conn_.get(); }

 private:
  std::unique_ptr<Connection> conn_;
};

TEST(QueryServer, SessionRoundTrip) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  std::string r = client.Send(
      "CREATE TABLE s FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4");
  EXPECT_NE(r.find("ok\ncreated table s"), std::string::npos) << r;
  r = client.Send("SELECT AVG(value) FROM s WITHIN 0.5");
  EXPECT_NE(r.find("ok\nAVG = "), std::string::npos) << r;
  r = client.Send("SELECT AVG(value) FROM ghost");
  EXPECT_NE(r.find("error: NotFound"), std::string::npos) << r;
  r = client.Send("quit");
  EXPECT_NE(r.find("bye"), std::string::npos) << r;
  server.Stop();
  EXPECT_EQ(server.sessions_served(), 1u);
}

TEST(QueryServer, SessionsAreIsolated) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient a(server.port());
    TestClient b(server.port());

    // a's table is invisible to b; b's SET does not affect a.
    a.Send("CREATE TABLE t FROM UNIFORM(0, 1) ROWS 1e5 BLOCKS 2");
    EXPECT_NE(b.Send("SELECT AVG(value) FROM t").find("error: NotFound"),
              std::string::npos);
    EXPECT_NE(b.Send("SET precision 2.5").find("ok\n"), std::string::npos);
    EXPECT_NE(b.Send("SHOW SETTINGS").find("precision = 2.5"),
              std::string::npos);
    EXPECT_NE(a.Send("SHOW SETTINGS").find("precision = 0.1"),
              std::string::npos);
    // An invalid SET must not corrupt b's settings.
    EXPECT_NE(b.Send("SET confidence 7").find("error: InvalidArgument"),
              std::string::npos);
    EXPECT_NE(b.Send("SHOW SETTINGS").find("confidence = 0.95"),
              std::string::npos);
  }
  server.Stop();
  EXPECT_EQ(server.sessions_served(), 2u);
}

TEST(QueryServer, ConcurrentSessionsQueryInParallel) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  constexpr int kSessions = 4;
  std::array<std::string, kSessions> answers;
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      TestClient client(server.port());
      client.Send("CREATE TABLE t FROM NORMAL(" + std::to_string(50 + s) +
                  ", 5) ROWS 1e6 BLOCKS 4 SEED " + std::to_string(s));
      answers[s] = client.Send("SELECT AVG(value) FROM t WITHIN 0.5");
      client.Send("quit");
    });
  }
  for (auto& t : clients) t.join();
  for (int s = 0; s < kSessions; ++s) {
    size_t at = answers[s].find("ok\nAVG = ");
    ASSERT_NE(at, std::string::npos) << "session " << s << ": " << answers[s];
    double avg = std::strtod(answers[s].c_str() + at + 9, nullptr);
    EXPECT_NEAR(avg, 50.0 + s, 1.0) << "session " << s << ": " << answers[s];
  }
  server.Stop();
  EXPECT_EQ(server.sessions_served(), static_cast<uint64_t>(kSessions));
}

TEST(QueryServer, RestartAcceptsNewSessions) {
  // Stop() leaves the stop flag set; Start() must reset it, or a
  // restarted server listens but never accepts.
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  { TestClient client(server.port()); client.Send("SHOW TABLES"); }
  server.Stop();
  ASSERT_TRUE(server.Start().ok());
  TestClient again(server.port());
  EXPECT_NE(again.Send("SHOW TABLES").find("ok\n"), std::string::npos);
  server.Stop();
  EXPECT_EQ(server.sessions_served(), 2u);
}

/// Blanks the wall-clock segment ("..., 1.2345 ms]") of a response so two
/// executions can be compared on their answer bytes alone.
std::string StripTiming(std::string s) {
  size_t end = s.find(" ms]");
  if (end == std::string::npos) return s;
  size_t start = s.rfind(", ", end);
  if (start == std::string::npos) return s;
  return s.erase(start, end - start);
}

/// Sends a statement and splits the response stream into PARTIAL frames
/// plus the final text response.
std::string SendStreaming(TestClient* client, const std::string& statement,
                          std::vector<PartialFrame>* partials) {
  EXPECT_TRUE(client->conn()->SendFrame(statement).ok());
  while (true) {
    auto response = client->conn()->RecvFrame();
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return std::string();
    if (!IsPartialFrame(*response)) return *response;
    auto frame = DecodePartialFrame(*response);
    EXPECT_TRUE(frame.ok()) << frame.status();
    if (frame.ok()) partials->push_back(*frame);
  }
}

TEST(QueryServer, StreamingSelectEmitsTighteningPartials) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.Send("CREATE TABLE s FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4");
  EXPECT_NE(client.Send("SET stream 3").find("ok\n"), std::string::npos);

  std::vector<PartialFrame> partials;
  std::string final_response = SendStreaming(
      &client, "SELECT AVG(value) FROM s WITHIN 0.2", &partials);
  EXPECT_NE(final_response.find("ok\nAVG = "), std::string::npos)
      << final_response;
  EXPECT_NE(final_response.find("rounds=3"), std::string::npos)
      << final_response;

  // The ladder: three rounds at e·2^(R−r) = 0.8, 0.4, 0.2, strictly
  // tightening CIs, monotone cumulative sample counts.
  ASSERT_EQ(partials.size(), 3u);
  for (size_t i = 0; i < partials.size(); ++i) {
    EXPECT_EQ(partials[i].round, i + 1);
    EXPECT_EQ(partials[i].total_rounds, 3u);
    EXPECT_EQ(partials[i].confidence, 0.95);
    EXPECT_NEAR(partials[i].value, 100.0, 5.0);
  }
  EXPECT_EQ(partials[0].ci_half_width, 0.8);
  EXPECT_EQ(partials[1].ci_half_width, 0.4);
  EXPECT_EQ(partials[2].ci_half_width, 0.2);
  EXPECT_LE(partials[0].samples, partials[1].samples);
  EXPECT_LE(partials[1].samples, partials[2].samples);

  // The final round's answer IS the final response's answer.
  size_t at = final_response.find("AVG = ");
  ASSERT_NE(at, std::string::npos);
  double final_avg = std::strtod(final_response.c_str() + at + 6, nullptr);
  EXPECT_NEAR(final_avg, partials[2].value, 1e-4);

  // SET stream 0 turns streaming back off: no partial frames.
  client.Send("SET stream 0");
  std::vector<PartialFrame> none;
  std::string plain = SendStreaming(
      &client, "SELECT AVG(value) FROM s WITHIN 0.2", &none);
  EXPECT_NE(plain.find("ok\nAVG = "), std::string::npos) << plain;
  EXPECT_TRUE(none.empty());
  server.Stop();
}

TEST(QueryServer, StreamingIsDeterministicAcrossSessions) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  auto run = [&](std::vector<PartialFrame>* partials) {
    TestClient client(server.port());
    client.Send("CREATE TABLE s FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4");
    client.Send("SET stream 4");
    return SendStreaming(&client, "SELECT SUM(value) FROM s WITHIN 0.4",
                         partials);
  };
  std::vector<PartialFrame> a, b;
  std::string final_a = run(&a);
  std::string final_b = run(&b);
  EXPECT_EQ(StripTiming(final_a), StripTiming(final_b));
  EXPECT_NE(final_a.find("ok\nSUM = "), std::string::npos) << final_a;
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << "round " << i + 1;
    EXPECT_EQ(a[i].ci_half_width, b[i].ci_half_width) << "round " << i + 1;
    EXPECT_EQ(a[i].samples, b[i].samples) << "round " << i + 1;
  }
  server.Stop();
}

TEST(QueryServer, StreamingSkipsIneligibleStatements) {
  // GROUP BY / WHERE / COUNT / non-isla methods run single-shot even with
  // stream set: exactly one response frame, no partials.
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.Send(
      "CREATE TABLE g FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 4 GROUPS 4");
  client.Send("SET stream 3");
  for (const char* statement :
       {"SELECT AVG(value) FROM g GROUP BY grp WITHIN 0.5",
        "SELECT AVG(value) FROM g WHERE value >= 100 WITHIN 0.5",
        "SELECT COUNT(value) FROM g WITHIN 0.5",
        "SELECT AVG(value) FROM g WITHIN 0.5 USING uniform"}) {
    std::vector<PartialFrame> partials;
    std::string response = SendStreaming(&client, statement, &partials);
    EXPECT_NE(response.find("ok\n"), std::string::npos)
        << statement << " -> " << response;
    EXPECT_TRUE(partials.empty()) << statement;
  }
  server.Stop();
}

TEST(QueryServer, ShowStatsSurfacesKernelTierAndCacheCounters) {
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  std::string stats = client.Send("SHOW STATS");
  EXPECT_NE(stats.find("kernels = "), std::string::npos) << stats;
  EXPECT_NE(stats.find("scan_scheduler = on"), std::string::npos) << stats;
  EXPECT_NE(stats.find("result_cache_hits = 0"), std::string::npos) << stats;

  // SHOW SETTINGS also reports the kernel tier and the stream knob, and
  // server sessions start at parallelism 1 (a statement runs on its exec
  // thread).
  std::string settings = client.Send("SHOW SETTINGS");
  EXPECT_NE(settings.find("kernels = "), std::string::npos) << settings;
  EXPECT_NE(settings.find("stream = 0"), std::string::npos) << settings;
  EXPECT_NE(settings.find("parallelism = 1"), std::string::npos) << settings;

  // A repeated sampled grouped query flows through the shared scheduler:
  // the second run is a result-cache hit, visible in SHOW STATS.
  client.Send("CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 4");
  std::string first =
      client.Send("SELECT AVG(value) FROM t WHERE value >= 90 WITHIN 0.5");
  EXPECT_NE(first.find("ok\nAVG = "), std::string::npos) << first;
  std::string second =
      client.Send("SELECT AVG(value) FROM t WHERE value >= 90 WITHIN 0.5");
  // The cache hit returns the exact answer bytes (timing aside).
  EXPECT_EQ(StripTiming(first), StripTiming(second));
  stats = client.Send("SHOW STATS");
  EXPECT_NE(stats.find("result_cache_hits = 1"), std::string::npos) << stats;
  server.Stop();
}

TEST(QueryServer, SchedulerCachesAreSharedAcrossSessions) {
  // Two sessions with identical CREATE recipes produce content-identical
  // generator columns, so the second session's identical query is a
  // result-cache hit — the cross-session reuse the scheduler exists for.
  QueryServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string create = "CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e5 BLOCKS 4";
  std::string query = "SELECT AVG(value) FROM t WHERE value >= 90 WITHIN 0.5";
  TestClient a(server.port());
  a.Send(create);
  std::string answer_a = a.Send(query);
  TestClient b(server.port());
  b.Send(create);
  std::string answer_b = b.Send(query);
  EXPECT_EQ(StripTiming(answer_a), StripTiming(answer_b));
  std::string stats = b.Send("SHOW STATS");
  EXPECT_NE(stats.find("result_cache_hits = 1"), std::string::npos) << stats;
  server.Stop();
}

TEST(QueryServer, SessionLimitRefusesLoudly) {
  QueryServerOptions options;
  options.max_sessions = 1;
  QueryServer server(options);
  ASSERT_TRUE(server.Start().ok());

  TestClient first(server.port());
  first.Send("SHOW TABLES");  // Ensure the first session is established.

  auto second = TcpConnect("127.0.0.1", server.port(), 2'000);
  ASSERT_TRUE(second.ok());
  auto refusal = (*second)->RecvFrame();
  ASSERT_TRUE(refusal.ok()) << refusal.status();
  EXPECT_NE(refusal->find("error: ResourceExhausted"), std::string::npos)
      << *refusal;
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace isla

// server_mixed: an in-process net::QueryServer with default options and 4
// TCP sessions, each over its own copy of
//   CREATE TABLE t FROM NORMAL(100, 20) ROWS 1e6 BLOCKS 4 GROUPS 8 SEED s
// (same SEED in every session, so the content fingerprints match and the
// shared scan scheduler may batch and cache across sessions). Statements
// ask for WITHIN 0.5 and draw 5k-60k samples each, so sampling is small
// and the per-statement overhead dominates: event loop, frame codec,
// exec-pool queue, admission window and caches. Half the statements are
// first-seen (seeded literals, cache misses), half repeat a fixed
// 8-statement dashboard (cache hits after their first run).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/scan_scheduler.h"
#include "engine/session.h"
#include "layers.h"
#include "net/connection.h"
#include "net/query_server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using isla::SplitMix64;
using isla::Xoshiro256;

constexpr int kClients = 4;
constexpr double kPrecision = 0.5;

struct SrvStmt {
  std::string set_seed;  // "SET seed <n>", sent before the SELECT, untimed
  std::string sql;
  CoreCall call;
  bool count = false;  // COUNT ... GROUP BY grp
  std::string Key() const { return set_seed + "; " + sql; }
};

/// A first-seen statement of kind `k`: 0 ungrouped AVG, 1 WHERE AVG,
/// 2 COUNT ... WHERE ... GROUP BY grp, 3 QUANTILE. Each carries its own
/// engine seed (see scan_heavy.cc for why), which also makes it distinct.
/// Literals stay in a narrow band so the sample count per statement, and
/// with it every latency, varies little from seed to seed.
SrvStmt Fresh(int k, Xoshiro256* rng) {
  SrvStmt s;
  const std::string within = " WITHIN " + Fmt("%.1f", kPrecision);
  s.call.seed = rng->Next() >> 32;
  s.set_seed = "SET seed " + std::to_string(s.call.seed);
  if (k == 0) {
    s.sql = "SELECT AVG(value) FROM t" + within;
  } else if (k == 1 || k == 2) {
    const std::string lit = Fmt("%.4f", 80.0 + 15.0 * rng->NextDouble());
    s.call.kind = Kind::kGrouped;
    s.call.where = true;
    s.call.literal = std::strtod(lit.c_str(), nullptr);
    if (k == 1) {
      s.sql = "SELECT AVG(value) FROM t WHERE value > " + lit + within;
    } else {
      s.count = true;
      s.call.group = true;
      s.sql = "SELECT COUNT(value) FROM t WHERE value > " + lit +
              " GROUP BY grp" + within;
    }
  } else {
    const std::string q = Fmt("%.3f", 0.05 + 0.9 * rng->NextDouble());
    s.call.kind = Kind::kSketch;
    s.call.q = std::strtod(q.c_str(), nullptr);
    s.sql = "SELECT QUANTILE(value, " + q + ") FROM t" + within;
  }
  return s;
}

/// The dashboard: 8 fixed statements of the seed, two of each kind.
std::vector<SrvStmt> MakeDashboard(uint64_t seed) {
  Xoshiro256 rng(SplitMix64::Hash(seed, 0xda5b));
  std::vector<SrvStmt> out;
  for (int i = 0; i < 8; ++i) out.push_back(Fresh(i % 4, &rng));
  return out;
}

/// One session's statement stream: even slots repeat a dashboard
/// statement (seeded pick), odd slots are first-seen, cycling kinds as
/// AVG, WHERE AVG, COUNT, WHERE AVG, AVG, COUNT, QUANTILE, WHERE AVG.
class ServerGenerator {
 public:
  ServerGenerator(uint64_t seed, uint64_t stream,
                  const std::vector<SrvStmt>* dashboard)
      : rng_(SplitMix64::Hash(seed, 0x5e7 + stream)), dashboard_(dashboard) {}

  SrvStmt Next() {
    static constexpr int kCycle[8] = {0, 1, 2, 1, 0, 2, 3, 1};
    const uint64_t n = n_++;
    if (n % 2 == 0) return (*dashboard_)[rng_.NextBounded(8)];
    return Fresh(kCycle[(n / 2) % 8], &rng_);
  }

 private:
  Xoshiro256 rng_;
  const std::vector<SrvStmt>* dashboard_;
  uint64_t n_ = 0;
};

std::string CreateSql(uint64_t seed, bool smoke) {
  return std::string("CREATE TABLE t FROM NORMAL(100, 20) ROWS ") +
         (smoke ? "2e4" : "1e6") + " BLOCKS 4 GROUPS 8 SEED " +
         std::to_string(seed % 1000003 + 1);
}

/// A blocking client session over TCP.
class Client {
 public:
  bool Connect(uint16_t port) {
    auto conn = isla::net::TcpConnect("127.0.0.1", port, 5'000);
    if (!conn.ok()) return false;
    conn_ = std::move(*conn);
    conn_->set_deadline_millis(60'000);
    return conn_->RecvFrame().ok();  // greeting
  }

  /// Sends one statement and returns the raw response ("ok\n..." or
  /// "error: ..."); an empty string on a transport failure.
  std::string Call(const std::string& statement) {
    if (!conn_->SendFrame(statement).ok()) return "";
    auto r = conn_->RecvFrame();
    return r.ok() ? *r : "";
  }

  /// Makes `set_seed` the session's engine seed (skipped when it already is).
  bool SetSeed(const std::string& set_seed) {
    if (set_seed == seed_) return true;
    seed_ = set_seed;
    return Call(set_seed).rfind("ok\n", 0) == 0;
  }

 private:
  std::unique_ptr<isla::net::Connection> conn_;
  std::string seed_;
};

struct Fixture {
  std::unique_ptr<isla::net::QueryServer> server;
  std::vector<std::unique_ptr<Client>> clients;
};

/// Starts a server and opens `sessions` sessions, each creating the table.
bool StartServer(const std::string& create, int sessions, Fixture* fx) {
  fx->server = std::make_unique<isla::net::QueryServer>();
  if (!fx->server->Start().ok()) return false;
  fx->clients.clear();
  for (int c = 0; c < sessions; ++c) {
    auto client = std::make_unique<Client>();
    if (!client->Connect(fx->server->port())) return false;
    if (client->Call(create).rfind("ok\n", 0) != 0) return false;
    fx->clients.push_back(std::move(client));
  }
  return true;
}

void StopServer(Fixture* fx) {
  fx->clients.clear();
  if (fx->server) fx->server->Stop();
  fx->server.reset();
}

struct Sent {
  SrvStmt stmt;
  StmtRecord record;
};

/// Runs the closed loop. During the window each client spills its records
/// to a file (see RecordSpill); the statements themselves are regenerated
/// from the seed afterwards.
std::vector<Sent> Window(Fixture* fx, const std::vector<SrvStmt>& dashboard,
                         uint64_t seed, uint64_t stream_base, double seconds,
                         const std::string& spill_dir, double* wall_s,
                         double* peak_rss_mb) {
  std::vector<std::unique_ptr<RecordSpill>> spills;
  for (int c = 0; c < kClients; ++c) {
    spills.push_back(std::make_unique<RecordSpill>(
        spill_dir + "/records-" + std::to_string(::getpid()) + "-" +
        std::to_string(c) + ".bin"));
  }
  std::vector<ServerGenerator> gens;
  for (int c = 0; c < kClients; ++c) {
    gens.emplace_back(seed, stream_base + c, &dashboard);
  }
  RepeatTracker repeats;
  std::atomic<bool> broken{false};
  *wall_s = RunClosedLoop(kClients, seconds, [&](int c, uint64_t seq) {
    if (broken.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return;
    }
    const SrvStmt stmt = gens[c].Next();
    StmtRecord r;
    r.id = (static_cast<uint64_t>(c) << 32) | (seq + 1);
    r.seq = seq;
    r.kind = stmt.call.kind;
    r.repeat = repeats.SeenBefore(stmt.Key());
    Client* client = fx->clients[c].get();
    std::string answer;
    if (client->SetSeed(stmt.set_seed)) {
      ScopedSpan span("client.stmt", r.id);
      r.latency_ms = TimeMs([&] { answer = client->Call(stmt.sql); });
      span.set_ok(answer.rfind("ok\n", 0) == 0);
    }
    r.ok = answer.rfind("ok\n", 0) == 0;
    if (answer.empty()) broken = true;
    if (r.ok) RecordSessionAnswer(answer, 0.0, &r);
    spills[c]->Append(r);
  });
  *peak_rss_mb = PeakRssMb();
  std::vector<Sent> all;
  for (int c = 0; c < kClients; ++c) {
    ServerGenerator again(seed, stream_base + c, &dashboard);
    std::vector<StmtRecord> records;
    if (!spills[c]->ReadAll(&records)) records.clear();
    for (StmtRecord& r : records) {
      Sent s;
      s.stmt = again.Next();
      s.record = std::move(r);
      s.record.key = s.stmt.Key();
      all.push_back(std::move(s));
    }
  }
  return all;
}

/// The exact population of the table: every value, and the values of
/// each group.
struct Exact {
  SortedColumn all;
  std::map<double, SortedColumn> groups;
};

bool LoadExact(isla::engine::Session* session, Exact* exact) {
  auto table = session->catalog()->GetTable("t");
  if (!table.ok()) return false;
  auto values = (*table)->GetColumn("value");
  auto keys = (*table)->GetColumn("grp");
  if (!values.ok() || !keys.ok()) return false;
  std::vector<double> v, k, all;
  std::map<double, std::vector<double>> by_group;
  for (size_t j = 0; j < (*values)->num_blocks(); ++j) {
    const auto& vb = *(*values)->blocks()[j];
    if (!vb.ReadRange(0, vb.size(), &v).ok() ||
        !(*keys)->blocks()[j]->ReadRange(0, vb.size(), &k).ok()) {
      return false;
    }
    for (size_t i = 0; i < v.size(); ++i) {
      all.push_back(v[i]);
      by_group[k[i]].push_back(v[i]);
    }
  }
  exact->all = SortedColumn(std::move(all));
  for (auto& [key, vals] : by_group) {
    exact->groups.emplace(key, SortedColumn(std::move(vals)));
  }
  return true;
}

/// Replays every distinct statement on a standalone Session (byte
/// equality, timing stripped), grades each distinct answer against the exact
/// population, and checks every repeat against its first answer. COUNT
/// answers print no COUNT bound, so their bound comes from a structured
/// QueryExecutor replay of the same statement.
Graded Check(const std::string& create, const std::vector<Sent>& sent,
             Output* out) {
  std::vector<StmtRecord> records;
  for (const Sent& s : sent) records.push_back(s.record);
  const std::vector<size_t> distinct = CheckRepeats(records, out);

  std::mutex mu;
  Graded g;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      isla::engine::Session standalone;
      Exact exact;
      if (!standalone.Execute(create).ok() || !LoadExact(&standalone, &exact)) {
        std::lock_guard<std::mutex> lock(mu);
        out->Fail("standalone session could not create the table");
        return;
      }
      Graded local;
      for (size_t at; (at = next.fetch_add(1)) < distinct.size();) {
        const Sent& s = sent[distinct[at]];
        std::string problem;
        auto seeded = standalone.Execute(s.stmt.set_seed);
        auto answer = standalone.Execute(s.stmt.sql);
        if (!seeded.ok() || !answer.ok() ||
            AnswerHash("ok\n" + StripTiming(*answer)) !=
                s.record.answer_hash) {
          problem = "server answer differs from a standalone session for '" +
                    s.stmt.Key() + "'";
        }
        std::vector<AnswerRow> rows = s.record.rows;
        if (!s.record.well_formed) {
          problem = "unparseable answer to '" + s.stmt.sql + "'";
        }
        if (s.stmt.count && problem.empty()) {
          isla::core::IslaOptions options = standalone.options();
          isla::engine::QueryExecutor executor(standalone.catalog(), options);
          auto r = executor.Execute(s.stmt.sql);
          if (!r.ok() || !r->grouped.has_value() ||
              r->grouped->groups.size() != rows.size()) {
            problem = "structured replay failed for '" + s.stmt.sql + "'";
          } else {
            for (size_t k = 0; k < rows.size(); ++k) {
              const auto& gr = r->grouped->groups[k];
              rows[k].lo = gr.count_estimate - gr.count_ci_half_width;
              rows[k].hi = gr.count_estimate + gr.count_ci_half_width;
              rows[k].value = gr.count_estimate;
            }
          }
        }
        for (const AnswerRow& row : rows) {
          double truth = 0.0;
          if (s.stmt.count) {
            auto grp = exact.groups.find(row.key);
            truth = grp == exact.groups.end()
                        ? 0.0
                        : static_cast<double>(
                              grp->second.CountAbove(s.stmt.call.literal));
          } else if (s.stmt.call.kind == Kind::kSketch) {
            truth = exact.all.Quantile(s.stmt.call.q);
          } else if (s.stmt.call.where) {
            truth = exact.all.MeanAbove(s.stmt.call.literal);
          } else {
            truth = exact.all.Mean();
          }
          local.Grade(row, truth, 2e-4, s.stmt.call.kind, s.stmt.Key());
        }
        if (!problem.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          out->Fail(problem);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      g.Merge(local);
    });
  }
  for (auto& t : threads) t.join();
  out->Info("check.distinct_statements_replayed",
            static_cast<double>(distinct.size()));
  return g;
}

void SchedulerInfo(const isla::engine::ScanSchedulerStats& before,
                   const isla::engine::ScanSchedulerStats& after,
                   bool as_metrics, Output* out) {
  const double rc_hits = static_cast<double>(after.result_cache_hits -
                                             before.result_cache_hits);
  const double rc_base =
      rc_hits + static_cast<double>(after.result_cache_misses -
                                    before.result_cache_misses);
  const double pc_hits =
      static_cast<double>(after.pilot_cache_hits - before.pilot_cache_hits);
  const double pc_base =
      pc_hits + static_cast<double>(after.pilot_cache_misses -
                                    before.pilot_cache_misses);
  const double queries = static_cast<double>(after.queries - before.queries);
  const double batched =
      static_cast<double>(after.batched_queries - before.batched_queries);
  const double gathered =
      static_cast<double>(after.rows_gathered - before.rows_gathered);
  const double requested =
      static_cast<double>(after.rows_requested - before.rows_requested);
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  if (as_metrics) {
    out->Set("engine.result_cache_hit_ratio", ratio(rc_hits, rc_base), "ratio");
    out->Set("engine.result_cache_lookups", rc_base, "count");
    out->Set("engine.pilot_cache_hit_ratio", ratio(pc_hits, pc_base), "ratio");
    out->Set("engine.pilot_cache_lookups", pc_base, "count");
    out->Set("engine.batched_share", ratio(batched, queries), "ratio");
    out->Set("engine.scheduler_queries", queries, "count");
    out->Set("engine.rows_gathered_per_requested", ratio(gathered, requested),
             "ratio");
    out->Set("engine.rows_requested", requested, "rows");
  } else {
    out->Info("result_cache_hit_ratio", ratio(rc_hits, rc_base));
    out->Info("result_cache_hit_ratio.base", rc_base);
    out->Info("batched_share", ratio(batched, queries));
    out->Info("batched_share.base", queries);
  }
}

/// The per-layer ladder, replayed sequentially by one caller. Rungs: TCP
/// round trip to a fresh server (untraced, then traced) > Session::Execute
/// on a standalone session with its own scheduler > ParseQuery +
/// QueryExecutor::Execute(spec) > ScanScheduler::Execute (grouped
/// statements the executor routes there) > the core engine call. Every
/// rung that caches gets a fresh scheduler and sees the same statement
/// sequence, so cache hits land on the same statements in every rung.
void Ladder(const Args& args, const std::string& create,
            const std::vector<SrvStmt>& dashboard, Output* out) {
  Fixture plain, traced_fx;
  isla::engine::Session session;
  isla::engine::ScanScheduler session_sched, exec_sched, rung_sched;
  session.set_scheduler(&session_sched);
  if (!StartServer(create, 1, &plain) || !StartServer(create, 1, &traced_fx) ||
      !session.Execute(create).ok()) {
    out->Fail("ladder fixture failed to start");
    StopServer(&plain);
    StopServer(&traced_fx);
    return;
  }
  auto table = session.catalog()->GetTable("t");
  LayerInputs inputs;
  inputs.values = *(*table)->GetColumn("value");
  inputs.keys = *(*table)->GetColumn("grp");
  inputs.precision = kPrecision;

  ServerGenerator gen(args.seed, 50, &dashboard);
  const int n = args.smoke ? 8 : 150;
  isla::runtime::ScratchPool pool;
  Tracer& tracer = Tracer::Get();
  std::vector<double> untraced, rtt, sess, parse, exec, sched, core;
  for (int i = 0; i < n; ++i) {
    const SrvStmt s = gen.Next();
    const uint64_t stmt = 2'000'000 + static_cast<uint64_t>(i);
    bool ok = plain.clients[0]->SetSeed(s.set_seed) &&
              traced_fx.clients[0]->SetSeed(s.set_seed) &&
              session.Execute(s.set_seed).ok();
    tracer.set_enabled(false);
    untraced.push_back(TimeMs([&] {
      ok &= plain.clients[0]->Call(s.sql).rfind("ok\n", 0) == 0;
    }));
    tracer.set_enabled(true);
    rtt.push_back(TimeMs([&] {
      ScopedSpan span("ladder.net", stmt);
      ok &= traced_fx.clients[0]->Call(s.sql).rfind("ok\n", 0) == 0;
    }));
    sess.push_back(TimeMs([&] {
      ScopedSpan span("ladder.session", stmt);
      ok &= session.Execute(s.sql).ok();
    }));
    isla::Result<isla::engine::QuerySpec> spec =
        isla::Status::Internal("not parsed");
    parse.push_back(TimeMs([&] {
      ScopedSpan span("ladder.parse", stmt);
      spec = isla::engine::ParseQuery(s.sql);
    }));
    ok &= spec.ok();
    const isla::core::IslaOptions options = MakeOptions(kPrecision, s.call);
    exec.push_back(TimeMs([&] {
      ScopedSpan span("ladder.executor", stmt);
      isla::engine::QueryExecutor executor(session.catalog(),
                                           session.options(), &exec_sched);
      ok &= spec.ok() && executor.Execute(*spec).ok();
    }));
    const bool scheduled = s.call.kind == Kind::kGrouped;
    double sched_ms = 0.0;
    if (scheduled) {
      sched_ms = TimeMs([&] {
        ScopedSpan span("ladder.scheduler", stmt);
        ok &= rung_sched.Execute(MakeGroupedSpec(inputs, s.call), options, 0)
                  .ok();
      });
    }
    const double core_ms = TimeMs([&] {
      ScopedSpan span("ladder.core", stmt);
      if (s.call.kind == Kind::kUngrouped) {
        isla::core::IslaEngine engine(options, &pool);
        ok &= engine.AggregateAvg(*inputs.values).ok();
      } else {
        isla::core::GroupByEngine engine(options, &pool);
        ok &= engine.Aggregate(MakeGroupedSpec(inputs, s.call)).ok();
      }
    });
    sched.push_back(scheduled ? sched_ms - core_ms : 0.0);
    core.push_back(core_ms);
    exec.back() -= scheduled ? sched_ms : core_ms;  // executor self time
    if (!ok) out->Fail("ladder statement failed: '" + s.sql + "'");
  }
  StopServer(&plain);
  StopServer(&traced_fx);

  const double net_self = Mean(rtt) - Mean(sess);
  const double session_self = Mean(sess) - Mean(parse) - Mean(exec) -
                              Mean(sched) - Mean(core);
  out->Set("net.ladder_self_ms", net_self, "ms");
  out->Set("engine.parse_us", Mean(parse) * 1e3, "us");
  out->Set("engine.session_self_ms", session_self, "ms");
  out->Set("engine.executor_self_ms", Mean(exec), "ms");
  out->Set("engine.scheduler_self_ms", Mean(sched), "ms");
  out->Set("core.ladder_self_ms", Mean(core), "ms");
  out->Set("trace.overhead_ms", Mean(rtt) - Mean(untraced), "ms");
  out->Info("ladder.statements", n);
  out->Info("ladder.outermost_untraced_ms", Mean(untraced));
  out->Info("ladder.outermost_traced_ms", Mean(rtt));
  out->Info("ladder.self_sum_ms", net_self + Mean(parse) + session_self +
                                      Mean(exec) + Mean(sched) + Mean(core));

  // Layer measurements on the same table (predicate on value itself),
  // three calls of each statement kind.
  Xoshiro256 rng(SplitMix64::Hash(args.seed, 51));
  for (int i = 0; i < 12; ++i) inputs.calls.push_back(Fresh(i % 4, &rng).call);
  MeasureLayers(inputs, args.smoke, out);
}

}  // namespace

void RunServerMixed(const Args& args, Output* out) {
  const std::string create = CreateSql(args.seed, args.smoke);
  const std::vector<SrvStmt> dashboard = MakeDashboard(args.seed);
  out->InfoString("fixture.create", create);
  out->Info("fixture.sessions", kClients);
  out->Info("fixture.precision", kPrecision);
  out->Info("fixture.dashboard_statements",
            static_cast<double>(dashboard.size()));

  Fixture fx;
  bool started = true;
  const int setups = args.trace ? 1 : (args.smoke ? 2 : 9);
  const double setup_s = MedianSetupSeconds(setups, [&](int) {
    StopServer(&fx);
    const double start = NowMs();
    started = started && StartServer(create, kClients, &fx);
    return (NowMs() - start) / 1e3;
  });
  out->Info("setup.repetitions", setups);
  if (!started) {
    out->Fail("query server or its sessions failed to start");
    StopServer(&fx);
    return;
  }

  // Warm-up on first-seen statements only, so the dashboard's first runs
  // fall inside the timed window like any other cache miss.
  {
    double ignored = 0.0;
    std::vector<SrvStmt> no_dashboard = MakeDashboard(args.seed ^ 0x3a3a);
    (void)Window(&fx, no_dashboard, args.seed, 90, args.smoke ? 0.2 : 1.0,
                 args.work_dir, &ignored, &ignored);
  }

  Tracer::Get().set_enabled(args.trace);
  const auto before = fx.server->scheduler()->stats();
  const double window =
      args.trace ? std::min(args.seconds, args.smoke ? 1 : 4) : args.seconds;
  double wall_s = 0.0, rss = 0.0;
  std::vector<Sent> sent =
      Window(&fx, dashboard, args.seed, 0, window, args.work_dir, &wall_s,
             &rss);
  const auto after = fx.server->scheduler()->stats();
  StopServer(&fx);

  Graded g = Check(create, sent, out);
  g.Record(out);
  std::vector<StmtRecord> records;
  for (Sent& s : sent) records.push_back(std::move(s.record));
  SchedulerInfo(before, after, args.trace, out);

  if (!args.trace) {
    ReportEndToEnd(records, wall_s, args.smoke ? 4 : 600, g, setup_s, rss,
                   out);
    return;
  }
  std::vector<double> overhead;
  for (const StmtRecord& r : records) {
    if (r.ok && r.reported_ms >= 0.0) {
      overhead.push_back(r.latency_ms - r.reported_ms);
    }
  }
  out->Set("net.server_overhead_ms", Percentile(overhead, 0.5), "ms");
  out->Info("net.server_overhead_ms.samples",
            static_cast<double>(overhead.size()));
  out->attempted = records.size();
  for (const StmtRecord& r : records) out->failed += r.ok ? 0 : 1;
  Ladder(args, create, dashboard, out);
}

}  // namespace perfbench

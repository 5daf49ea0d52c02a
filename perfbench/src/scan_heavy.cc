// scan_heavy: one caller on an in-process engine::Session over a 16M-row
// table written as 4 ISLB shards and opened memory-mapped with FROM FILES
// (128 MiB, larger than the last-level cache). Every statement asks for
// WITHIN 0.05, so each draws ~0.4-0.7M samples: sampling, gather, the
// kernels and the core phases do nearly all the work, and neither the
// network nor the scan scheduler is on the path.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/session.h"
#include "layers.h"
#include "storage/file_block.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using isla::SplitMix64;
using isla::Xoshiro256;

constexpr double kPrecision = 0.05;
constexpr int kShards = 4;

struct Fixture {
  uint64_t rows_per_shard = 4'000'000;
  std::string dir;
  std::vector<std::string> paths;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  /// The shard files live only as long as the run.
  ~Fixture() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// Shard j's rows: Normal(100, 20) from its own seeded stream.
void GenerateShard(uint64_t seed, int shard, uint64_t rows,
                   std::vector<double>* out) {
  out->resize(rows);
  Xoshiro256 rng(SplitMix64::Hash(seed, 0xda7a + shard));
  for (uint64_t i = 0; i < rows; i += 2) {
    const double u1 = 1.0 - rng.NextDouble();  // (0, 1]
    const double u2 = rng.NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    (*out)[i] = 100.0 + 20.0 * r * std::cos(2.0 * M_PI * u2);
    if (i + 1 < rows) {
      (*out)[i + 1] = 100.0 + 20.0 * r * std::sin(2.0 * M_PI * u2);
    }
  }
}

struct ScanStmt {
  std::string set_seed;  // "SET seed <n>", sent untimed before the SELECT
  std::string sql;
  CoreCall call;
  std::string Key() const { return set_seed + "; " + sql; }
};

/// The seeded statement stream of one caller. Kinds follow a fixed
/// 8-slot cycle, so every seed runs the same mix (3/8 ungrouped AVG/SUM,
/// 2/8 WHERE AVG, 2/8 MEDIAN/QUANTILE) and only the parameters vary:
/// literals and q are seeded. The seventh slot repeats an earlier
/// statement exactly, taking the kinds in turn so the repeats' mix is fixed
/// too; the Session has no result cache, so a repeat costs a full
/// execution (repeat_p50_ms is measured here for that reason). Each
/// first-seen statement runs under its own engine seed: with one fixed
/// seed every statement over the table would reuse one sample stream, and
/// contract_coverage would count a single draw per run.
class ScanGenerator {
 public:
  ScanGenerator(uint64_t seed, uint64_t stream)
      : rng_(SplitMix64::Hash(seed, 0x5ca7 + stream)) {}

  ScanStmt Next() {
    static constexpr int kCycle[8] = {0, 2, 1, 3, 2, 0, -1, 3};
    const int slot = kCycle[n_++ % 8];
    if (slot < 0) {
      const auto& pool = history_[repeats_++ % 3];
      if (!pool.empty()) return pool[rng_.NextBounded(pool.size())];
    }
    ScanStmt s;
    const std::string within = " WITHIN " + Fmt("%.2f", kPrecision);
    s.call.seed = rng_.Next() >> 32;
    s.set_seed = "SET seed " + std::to_string(s.call.seed);
    if (slot == 0 || slot < 0) {
      s.sql = "SELECT AVG(value) FROM t" + within;
    } else if (slot == 1) {
      s.call.sum = true;
      s.sql = "SELECT SUM(value) FROM t" + within;
    } else if (slot == 2) {
      const std::string lit = Fmt("%.4f", 85.0 + 15.0 * rng_.NextDouble());
      s.call.kind = Kind::kGrouped;
      s.call.where = true;
      s.call.literal = std::strtod(lit.c_str(), nullptr);
      s.sql = "SELECT AVG(value) FROM t WHERE value > " + lit + within;
    } else if (rng_.NextBounded(2) == 0) {
      s.call.kind = Kind::kSketch;
      s.sql = "SELECT MEDIAN(value) FROM t" + within;
    } else {
      const std::string q = Fmt("%.3f", 0.05 + 0.9 * rng_.NextDouble());
      s.call.kind = Kind::kSketch;
      s.call.q = std::strtod(q.c_str(), nullptr);
      s.sql = "SELECT QUANTILE(value, " + q + ") FROM t" + within;
    }
    history_[static_cast<int>(s.call.kind)].push_back(s);
    return s;
  }

 private:
  Xoshiro256 rng_;
  uint64_t n_ = 0;
  uint64_t repeats_ = 0;
  std::vector<ScanStmt> history_[3];  // by kind
};

double Exact(const SortedColumn& col, const CoreCall& call) {
  if (call.kind == Kind::kSketch) return col.Quantile(call.q);
  if (call.where) return col.MeanAbove(call.literal);
  return call.sum ? col.Mean() * static_cast<double>(col.size())
                  : col.Mean();
}

std::string CreateSql(const Fixture& fx) {
  std::string sql = "CREATE TABLE t FROM FILES(";
  for (size_t j = 0; j < fx.paths.size(); ++j) {
    sql += (j ? ", '" : "'") + fx.paths[j] + "'";
  }
  return sql + ")";
}

/// Writes the shards and opens them in a fresh session; returns seconds.
double SetUp(const Args& args, const Fixture& fx,
             std::unique_ptr<isla::engine::Session>* session, Output* out) {
  const double start = NowMs();
  std::vector<double> rows;
  for (int j = 0; j < kShards; ++j) {
    GenerateShard(args.seed, j, fx.rows_per_shard, &rows);
    if (!isla::storage::WriteBlockFile(fx.paths[j], rows).ok()) {
      out->Fail("cannot write shard " + fx.paths[j]);
    }
  }
  rows = {};
  *session = std::make_unique<isla::engine::Session>();
  auto created = (*session)->Execute(CreateSql(fx));
  if (!created.ok()) {
    out->Fail("CREATE TABLE failed: " + created.status().ToString());
  }
  return (NowMs() - start) / 1e3;
}

/// Runs the closed loop for `seconds`, recording every statement.
std::vector<StmtRecord> Window(isla::engine::Session* session,
                               ScanGenerator* gen, double seconds,
                               double sum_scale, std::vector<ScanStmt>* sent,
                               double* wall_s) {
  std::vector<StmtRecord> records;
  RepeatTracker repeats;
  *wall_s = RunClosedLoop(1, seconds, [&](int, uint64_t seq) {
    ScanStmt s = gen->Next();
    StmtRecord r;
    r.id = seq + 1;
    r.seq = seq;
    r.kind = s.call.kind;
    r.key = s.Key();
    r.repeat = repeats.SeenBefore(r.key);
    isla::Result<std::string> answer = session->Execute(s.set_seed);
    {
      ScopedSpan span("client.stmt", r.id);
      if (answer.ok()) {
        r.latency_ms = TimeMs([&] { answer = session->Execute(s.sql); });
      }
      span.set_ok(answer.ok());
    }
    r.ok = answer.ok();
    if (r.ok) RecordSessionAnswer(*answer, sum_scale, &r);
    records.push_back(std::move(r));
    sent->push_back(std::move(s));
  });
  return records;
}

/// Checks each repeat against its first answer and grades each distinct
/// answer against the exact value.
Graded Check(const SortedColumn& col, const std::vector<ScanStmt>& sent,
             const std::vector<StmtRecord>& records, Output* out) {
  Graded g;
  for (size_t i : CheckRepeats(records, out)) {
    const StmtRecord& r = records[i];
    if (!r.well_formed || r.rows.size() != 1) {
      out->Fail("unparseable answer to '" + r.key + "'");
      continue;
    }
    g.Grade(r.rows[0], Exact(col, sent[i].call),
            sent[i].call.sum ? 1.0 : 2e-4, r.kind, r.key);
  }
  return g;
}

/// Answers must not depend on the thread count: replays the first distinct
/// statements on a parallelism-1 session and compares the bytes.
void CheckParallelismInvariance(const Fixture& fx,
                                const std::vector<ScanStmt>& sent,
                                const std::vector<StmtRecord>& records,
                                size_t count, Output* out) {
  isla::engine::Session serial;
  if (!serial.Execute("SET parallelism 1").ok() ||
      !serial.Execute(CreateSql(fx)).ok()) {
    out->Fail("cannot open the parallelism-1 replay session");
    return;
  }
  size_t done = 0;
  for (size_t i = 0; i < records.size() && done < count; ++i) {
    const StmtRecord& r = records[i];
    if (!r.ok || r.repeat) continue;
    ++done;
    (void)serial.Execute(sent[i].set_seed);
    auto answer = serial.Execute(sent[i].sql);
    if (!answer.ok() || AnswerHash(StripTiming(*answer)) != r.answer_hash) {
      out->Fail("parallelism-1 answer differs for '" + r.key + "'");
    }
  }
  out->Info("check.parallelism_replays", static_cast<double>(done));
}

/// The per-layer ladder: each statement replayed one layer lower at a
/// time. Rungs: Session::Execute (untraced, then traced) > ParseQuery +
/// QueryExecutor::Execute(spec) > the core engine call.
void Ladder(const Args& args, isla::engine::Session* session,
            const LayerInputs& inputs, Output* out) {
  ScanGenerator gen(args.seed, 2);
  const int n = args.smoke ? 6 : 40;
  isla::runtime::ScratchPool pool;
  std::vector<double> untraced, traced, parse, exec, core;
  Tracer& tracer = Tracer::Get();
  for (int i = 0; i < n; ++i) {
    const ScanStmt s = gen.Next();
    const uint64_t stmt = 1'000'000 + static_cast<uint64_t>(i);
    bool ok = session->Execute(s.set_seed).ok();
    tracer.set_enabled(false);
    untraced.push_back(TimeMs([&] { ok &= session->Execute(s.sql).ok(); }));
    tracer.set_enabled(true);
    traced.push_back(TimeMs([&] {
      ScopedSpan span("ladder.session", stmt);
      ok &= session->Execute(s.sql).ok();
    }));
    isla::Result<isla::engine::QuerySpec> spec =
        isla::Status::Internal("not parsed");
    parse.push_back(TimeMs([&] {
      ScopedSpan span("ladder.parse", stmt);
      spec = isla::engine::ParseQuery(s.sql);
    }));
    if (!spec.ok()) {
      out->Fail("ladder parse failed for '" + s.sql + "'");
      return;
    }
    // Session::Select builds one executor per statement; so does this rung.
    exec.push_back(TimeMs([&] {
      ScopedSpan span("ladder.executor", stmt);
      isla::engine::QueryExecutor executor(session->catalog(),
                                           session->options());
      ok &= executor.Execute(*spec).ok();
    }));
    core.push_back(TimeMs([&] {
      ScopedSpan span("ladder.core", stmt);
      const isla::core::IslaOptions options = MakeOptions(kPrecision, s.call);
      if (s.call.kind == Kind::kUngrouped) {
        isla::core::IslaEngine engine(options, &pool);
        ok &= (s.call.sum ? engine.AggregateSum(*inputs.values)
                          : engine.AggregateAvg(*inputs.values))
                  .ok();
      } else {
        isla::core::GroupByEngine engine(options, &pool);
        ok &= engine.Aggregate(MakeGroupedSpec(inputs, s.call)).ok();
      }
    }));
    if (!ok) out->Fail("ladder statement failed: '" + s.sql + "'");
  }
  const double session_self = Mean(traced) - Mean(parse) - Mean(exec);
  const double executor_self = Mean(exec) - Mean(core);
  out->Set("engine.parse_us", Mean(parse) * 1e3, "us");
  out->Set("engine.session_self_ms", session_self, "ms");
  out->Set("engine.executor_self_ms", executor_self, "ms");
  out->Set("core.ladder_self_ms", Mean(core), "ms");
  out->Set("trace.overhead_ms", Mean(traced) - Mean(untraced), "ms");
  out->Info("ladder.statements", n);
  out->Info("ladder.outermost_untraced_ms", Mean(untraced));
  out->Info("ladder.outermost_traced_ms", Mean(traced));
  out->Info("ladder.self_sum_ms",
            Mean(parse) + session_self + executor_self + Mean(core));
}

}  // namespace

void RunScanHeavy(const Args& args, Output* out) {
  Fixture fx;
  if (args.smoke) fx.rows_per_shard = 50'000;
  fx.dir = args.work_dir + "/scan-" + std::to_string(args.seed) + "-" +
           std::to_string(::getpid());
  std::filesystem::create_directories(fx.dir);
  for (int j = 0; j < kShards; ++j) {
    fx.paths.push_back(fx.dir + "/shard" + std::to_string(j) + ".islb");
  }
  out->Info("fixture.rows", static_cast<double>(fx.rows_per_shard * kShards));
  out->Info("fixture.shards", kShards);
  out->Info("fixture.precision", kPrecision);
  out->Info("fixture.callers", 1);

  std::unique_ptr<isla::engine::Session> session;
  const int setups = args.trace ? 1 : (args.smoke ? 2 : 3);
  const double setup_s = MedianSetupSeconds(setups, [&](int) {
    session.reset();
    return SetUp(args, fx, &session, out);
  });
  out->Info("setup.repetitions", setups);
  if (!out->correct) return;

  // Warm the page cache, the thread pool and the arenas before timing.
  ScanGenerator warm(args.seed, 99);
  const double warm_until = NowMs() + (args.smoke ? 200.0 : 1500.0);
  while (NowMs() < warm_until) (void)session->Execute(warm.Next().sql);

  Tracer::Get().set_enabled(args.trace);
  ScanGenerator gen(args.seed, 0);
  std::vector<ScanStmt> sent;
  const double window =
      args.trace ? std::min(args.seconds, args.smoke ? 1 : 4) : args.seconds;
  double wall_s = 0.0;
  const double rows = static_cast<double>(fx.rows_per_shard * kShards);
  std::vector<StmtRecord> records =
      Window(session.get(), &gen, window, rows, &sent, &wall_s);
  const double rss = PeakRssMb();

  // Exact answers, outside the timed window and the set-up time.
  std::vector<double> all;
  {
    std::vector<double> shard;
    for (int j = 0; j < kShards; ++j) {
      GenerateShard(args.seed, j, fx.rows_per_shard, &shard);
      all.insert(all.end(), shard.begin(), shard.end());
    }
  }
  const SortedColumn col(std::move(all));
  const Graded g = Check(col, sent, records, out);
  CheckParallelismInvariance(fx, sent, records, args.smoke ? 2 : 6, out);
  g.Record(out);

  if (!args.trace) {
    ReportEndToEnd(records, wall_s, args.smoke ? 4 : 256, g, setup_s, rss,
                   out);
  } else {
    auto table = session->catalog()->GetTable("t");
    auto values = table.ok() ? (*table)->GetColumn("value")
                             : isla::Result<const isla::storage::Column*>(
                                   table.status());
    if (!values.ok()) {
      out->Fail("table t lost its value column");
      return;
    }
    LayerInputs inputs;
    inputs.values = *values;
    inputs.precision = kPrecision;
    ScanGenerator calls(args.seed, 3);
    for (int i = 0; i < 12; ++i) inputs.calls.push_back(calls.Next().call);
    Ladder(args, session.get(), inputs, out);
    MeasureLayers(inputs, args.smoke, out);
    out->attempted = records.size();
    for (const StmtRecord& r : records) out->failed += r.ok ? 0 : 1;
  }
}

}  // namespace perfbench

// cluster_healthy / cluster_one_dead: a distributed::Coordinator (default
// options, precision 0.2) over FailoverTransport (default options) over
// TcpTransport to 8 in-process WorkerServers holding 4 shards x 2
// replicas of memory blocks (values, predicate, keys). 4 client threads
// share the one transport stack, each running closed loop. Sampling is
// small, so the coordinator, the message codec and TCP do the work; with
// one_dead the replica every shard tries first is stopped before the
// timed window, so retry, backoff and failover do most of it.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/group_by.h"
#include "distributed/coordinator.h"
#include "distributed/failover.h"
#include "distributed/message.h"
#include "distributed/worker.h"
#include "layers.h"
#include "net/tcp_transport.h"
#include "net/worker_server.h"
#include "storage/block.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using isla::SplitMix64;
using isla::Xoshiro256;
namespace dist = isla::distributed;

constexpr int kClients = 4;
constexpr int kShards = 4;
constexpr int kReplicas = 2;
constexpr int kGroups = 8;
constexpr double kPrecision = 0.2;

// --- Data ------------------------------------------------------------------

/// Shard s: key uniform in {0..7}, value = 10 (key + 1) + 4 U, predicate
/// uniform in [0, 1), all from the shard's own seeded stream.
struct Shards {
  std::vector<isla::storage::BlockPtr> values, preds, keys;
  isla::storage::Column value_col{"value"}, pred_col{"pred"}, key_col{"grp"};
};

void MakeShards(uint64_t seed, uint64_t rows, Shards* out) {
  for (int s = 0; s < kShards; ++s) {
    Xoshiro256 rng(SplitMix64::Hash(seed, 0xc1a5 + s));
    std::vector<double> v(rows), p(rows), k(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      k[i] = static_cast<double>(rng.NextBounded(kGroups));
      v[i] = 10.0 * (k[i] + 1.0) + 4.0 * rng.NextDouble();
      p[i] = rng.NextDouble();
    }
    out->values.push_back(
        std::make_shared<isla::storage::MemoryBlock>(std::move(v)));
    out->preds.push_back(
        std::make_shared<isla::storage::MemoryBlock>(std::move(p)));
    out->keys.push_back(
        std::make_shared<isla::storage::MemoryBlock>(std::move(k)));
    (void)out->value_col.AppendBlock(out->values.back());
    (void)out->pred_col.AppendBlock(out->preds.back());
    (void)out->key_col.AppendBlock(out->keys.back());
  }
}

// --- Statements ------------------------------------------------------------

struct ClusterStmt {
  enum Op { kGroupedAvg, kAvg, kQuantile } op = kGroupedAvg;
  double literal = 0.0;  // kGroupedAvg: WHERE pred >= literal GROUP BY grp
  double q = 0.5;        // kQuantile: per-group q-quantile
  uint64_t salt = 0;     // grouped/quantile stream salt
  uint64_t qid = 0;      // kAvg: query id (drives its sample streams)
  Kind kind() const {
    return op == kAvg ? Kind::kUngrouped
                      : (op == kQuantile ? Kind::kSketch : Kind::kGrouped);
  }
  std::string Key() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%d lit=%.17g q=%.17g salt=%llu qid=%llu",
                  static_cast<int>(op), literal, q,
                  static_cast<unsigned long long>(salt),
                  static_cast<unsigned long long>(qid));
    return buf;
  }
};

/// Each statement draws its own salt/query id, so answers are independent
/// trials of the contract (see scan_heavy.cc) and distinct statements.
/// Literals stay in a narrow band so sample counts vary little by seed.
ClusterStmt Fresh(ClusterStmt::Op op, Xoshiro256* rng) {
  ClusterStmt s;
  s.op = op;
  s.salt = rng->Next() >> 32;
  s.qid = (uint64_t{1} << 40) | (rng->Next() >> 32);
  if (op == ClusterStmt::kGroupedAvg) {
    s.literal = std::round((0.2 + 0.3 * rng->NextDouble()) * 1e4) / 1e4;
  } else if (op == ClusterStmt::kQuantile) {
    s.q = std::round((0.05 + 0.9 * rng->NextDouble()) * 1e3) / 1e3;
  }
  return s;
}

std::vector<ClusterStmt> MakeDashboard(uint64_t seed) {
  Xoshiro256 rng(SplitMix64::Hash(seed, 0xc1da));
  static constexpr ClusterStmt::Op kOps[8] = {
      ClusterStmt::kGroupedAvg, ClusterStmt::kAvg, ClusterStmt::kQuantile,
      ClusterStmt::kGroupedAvg, ClusterStmt::kGroupedAvg, ClusterStmt::kAvg,
      ClusterStmt::kQuantile,   ClusterStmt::kGroupedAvg};
  std::vector<ClusterStmt> out;
  for (ClusterStmt::Op op : kOps) out.push_back(Fresh(op, &rng));
  return out;
}

/// One client's stream over a fixed 8-slot cycle: 2/8 grouped, 2/8
/// AggregateAvg, 2/8 quantile, 2/8 repeats of a dashboard statement.
class ClusterGenerator {
 public:
  ClusterGenerator(uint64_t seed, uint64_t stream,
                   const std::vector<ClusterStmt>* dashboard)
      : rng_(SplitMix64::Hash(seed, 0xc15 + stream)), dashboard_(dashboard) {}

  ClusterStmt Next() {
    static constexpr int kCycle[8] = {0, 1, 2, -1, 0, 2, 1, -1};
    const int slot = kCycle[n_++ % 8];
    if (slot < 0) return (*dashboard_)[rng_.NextBounded(dashboard_->size())];
    return Fresh(static_cast<ClusterStmt::Op>(slot), &rng_);
  }

 private:
  Xoshiro256 rng_;
  const std::vector<ClusterStmt>* dashboard_;
  uint64_t n_ = 0;
};

dist::GroupedQuerySpec WireSpec(const ClusterStmt& s) {
  dist::GroupedQuerySpec spec;
  spec.has_group = true;
  if (s.op == ClusterStmt::kGroupedAvg) {
    spec.has_predicate = true;
    spec.op = isla::core::PredicateOp::kGe;
    spec.literal = s.literal;
  } else {
    spec.want_sketch = true;
    spec.summary.quantile_q = s.q;
  }
  return spec;
}

CoreCall ToCoreCall(const ClusterStmt& s) {
  CoreCall call;
  call.kind = s.kind();
  call.group = s.op != ClusterStmt::kAvg;
  call.where = s.op == ClusterStmt::kGroupedAvg;
  call.op = isla::core::PredicateOp::kGe;
  call.literal = s.literal;
  call.q = s.q;
  return call;
}

isla::core::IslaOptions Options() {
  isla::core::IslaOptions options;
  options.precision = kPrecision;
  return options;
}

// --- Answers ---------------------------------------------------------------

std::string G17(double v) { return Fmt("%.17g", v); }

std::string Serialize(const isla::core::GroupedAggregateResult& r) {
  std::string out = "scanned=" + std::to_string(r.scanned_samples) +
                    " pilot=" + std::to_string(r.pilot_samples);
  for (const auto& g : r.groups) {
    out += " [" + G17(g.key) + " " + G17(g.average) + " " + G17(g.sum) + " " +
           G17(g.count_estimate) + " " + G17(g.ci_half_width) + " " +
           G17(g.count_ci_half_width) + " " + G17(g.quantile_value) + " " +
           G17(g.quantile_lo) + " " + G17(g.quantile_hi) + "]";
  }
  return out;
}

std::string Serialize(const dist::DistributedResult& r) {
  return "avg=" + G17(r.average) + " sum=" + G17(r.sum) +
         " samples=" + std::to_string(r.total_samples);
}

struct Answer {
  bool ok = false;
  std::string bytes;
  uint64_t samples = 0;
  std::vector<AnswerRow> rows;
};

Answer FromGrouped(const isla::Result<isla::core::GroupedAggregateResult>& r,
                   bool quantile) {
  Answer a;
  if (!r.ok()) return a;
  a.ok = true;
  a.bytes = Serialize(*r);
  a.samples = r->scanned_samples + r->pilot_samples;
  for (const auto& g : r->groups) {
    AnswerRow row;
    row.key = g.key;
    if (quantile) {
      row.value = g.quantile_value;
      row.lo = g.quantile_lo;
      row.hi = g.quantile_hi;
    } else {
      row.value = g.average;
      row.lo = g.average - g.ci_half_width;
      row.hi = g.average + g.ci_half_width;
    }
    a.rows.push_back(row);
  }
  return a;
}

Answer FromAvg(const isla::Result<dist::DistributedResult>& r) {
  Answer a;
  if (!r.ok()) return a;
  a.ok = true;
  a.bytes = Serialize(*r);
  // The wire result carries no pilot count: main-pass rows only.
  a.samples = r->total_samples;
  a.rows.push_back({0.0, r->average, r->average - kPrecision,
                    r->average + kPrecision});
  return a;
}

Answer RunOnCoordinator(dist::Transport* transport, const ClusterStmt& s,
                        uint64_t query_id) {
  dist::Coordinator coordinator(transport, Options());
  if (s.op == ClusterStmt::kAvg) {
    return FromAvg(coordinator.AggregateAvg(s.qid));
  }
  return FromGrouped(
      coordinator.AggregateGrouped(WireSpec(s), query_id, s.salt),
      s.op == ClusterStmt::kQuantile);
}

Answer RunLocal(const Shards& shards, const ClusterStmt& s,
                isla::runtime::ScratchPool* pool) {
  isla::core::GroupedSpec spec;
  spec.values = &shards.value_col;
  spec.keys = &shards.key_col;
  if (s.op == ClusterStmt::kGroupedAvg) {
    spec.predicate = &shards.pred_col;
    spec.op = isla::core::PredicateOp::kGe;
    spec.literal = s.literal;
  } else {
    spec.want_sketch = true;
    spec.summary.quantile_q = s.q;
  }
  isla::core::GroupByEngine engine(Options(), pool);
  return FromGrouped(engine.Aggregate(spec, s.salt),
                     s.op == ClusterStmt::kQuantile);
}

/// Exact answers: per group, rows sorted by predicate with value suffix
/// sums (AVG where pred >= t), and the group's sorted values (quantiles).
class ExactCluster {
 public:
  explicit ExactCluster(const Shards& shards) {
    std::vector<std::vector<std::pair<double, double>>> rows(kGroups);
    std::vector<std::vector<double>> vals(kGroups);
    double total = 0.0;
    for (int s = 0; s < kShards; ++s) {
      const auto& v = static_cast<const isla::storage::MemoryBlock&>(
                          *shards.values[s]).values();
      const auto& p = static_cast<const isla::storage::MemoryBlock&>(
                          *shards.preds[s]).values();
      const auto& k = static_cast<const isla::storage::MemoryBlock&>(
                          *shards.keys[s]).values();
      for (size_t i = 0; i < v.size(); ++i) {
        const int g = static_cast<int>(k[i]);
        rows[g].push_back({p[i], v[i]});
        vals[g].push_back(v[i]);
        total += v[i];
        ++n_;
      }
    }
    mean_ = total / static_cast<double>(n_);
    for (int g = 0; g < kGroups; ++g) {
      std::sort(rows[g].begin(), rows[g].end());
      Group grp;
      grp.pred.resize(rows[g].size());
      grp.suffix.assign(rows[g].size() + 1, 0.0);
      for (size_t i = rows[g].size(); i-- > 0;) {
        grp.pred[i] = rows[g][i].first;
        grp.suffix[i] = grp.suffix[i + 1] + rows[g][i].second;
      }
      grp.values = SortedColumn(std::move(vals[g]));
      groups_.push_back(std::move(grp));
    }
  }

  double Mean() const { return mean_; }

  /// AVG of group g's values over rows with pred >= t.
  double MeanWhere(int g, double t) const {
    const Group& grp = groups_[g];
    const size_t from = static_cast<size_t>(
        std::lower_bound(grp.pred.begin(), grp.pred.end(), t) -
        grp.pred.begin());
    if (from == grp.pred.size()) return std::nan("");
    return grp.suffix[from] / static_cast<double>(grp.pred.size() - from);
  }

  double Quantile(int g, double q) const {
    return groups_[g].values.Quantile(q);
  }

 private:
  struct Group {
    std::vector<double> pred;
    std::vector<double> suffix;
    SortedColumn values;
  };
  std::vector<Group> groups_;
  double mean_ = 0.0;
  uint64_t n_ = 0;
};

double Truth(const ExactCluster& exact, const ClusterStmt& s,
             const AnswerRow& row) {
  const int g = static_cast<int>(row.key);
  if (g < 0 || g >= kGroups) return std::nan("");
  switch (s.op) {
    case ClusterStmt::kAvg:
      return exact.Mean();
    case ClusterStmt::kQuantile:
      return exact.Quantile(g, s.q);
    case ClusterStmt::kGroupedAvg:
      return exact.MeanWhere(g, s.literal);
  }
  return std::nan("");
}

// --- Tracing decorators ----------------------------------------------------

/// Links the spans of one traced stack across the threads the coordinator
/// and FailoverTransport hand work to. A statement registers its query id,
/// so a shard call (on any fan-out thread) finds its statement from the
/// request frame; a shard call registers (frame, shard), so an attempt
/// (FailoverTransport runs hedged attempts on threads of its own) finds
/// its shard call. Concurrent repeats of one AggregateAvg statement share
/// a query id and frames, so their spans may be linked to either.
class SpanLinks {
 public:
  struct Link {
    uint64_t stmt = 0;
    uint64_t span = 0;
  };
  using CallKey = std::pair<size_t, uint64_t>;  // (frame hash, shard)

  void RegisterQuery(uint64_t qid, Link link) {
    std::lock_guard<std::mutex> lock(mu_);
    queries_[qid] = link;
  }
  void EraseQuery(uint64_t qid) {
    std::lock_guard<std::mutex> lock(mu_);
    queries_.erase(qid);
  }
  Link FindQuery(const std::string& frame) const {
    const uint64_t qid = QueryId(frame);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(qid);
    return it == queries_.end() ? Link{} : it->second;
  }

  static CallKey Key(const std::string& frame, uint64_t shard) {
    return {std::hash<std::string>()(frame), shard};
  }
  void RegisterCall(const CallKey& key, Link link) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.emplace(key, link);
  }
  void EraseCall(const CallKey& key, uint64_t span) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [lo, hi] = calls_.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.span == span) {
        calls_.erase(it);
        return;
      }
    }
  }
  Link FindCall(const CallKey& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = calls_.find(key);
    return it == calls_.end() ? Link{} : it->second;
  }

 private:
  static uint64_t QueryId(const std::string& frame) {
    auto type = dist::PeekType(frame);
    if (!type.ok()) return 0;
    switch (*type) {
      case dist::MessageType::kPilotRequest: {
        auto m = dist::DecodePilotRequest(frame);
        return m.ok() ? m->query_id : 0;
      }
      case dist::MessageType::kQueryPlan: {
        auto m = dist::DecodeQueryPlan(frame);
        return m.ok() ? m->query_id : 0;
      }
      case dist::MessageType::kGroupedScanRequest: {
        auto m = dist::DecodeGroupedScanRequest(frame);
        return m.ok() ? m->query_id : 0;
      }
      case dist::MessageType::kSketchScanRequest: {
        auto m = dist::DecodeSketchScanRequest(frame);
        return m.ok() ? m->scan.query_id : 0;
      }
      default:
        return 0;
    }
  }

  mutable std::mutex mu_;
  std::map<uint64_t, Link> queries_;
  std::multimap<CallKey, Link> calls_;
};

/// Times whole shard calls: wraps FailoverTransport, one span per Call,
/// parented to the statement the request frame belongs to.
class ShardCallSpans : public dist::Transport {
 public:
  ShardCallSpans(dist::Transport* inner, SpanLinks* links)
      : inner_(inner), links_(links) {}

  isla::Result<std::string> Call(uint64_t shard,
                                 const std::string& frame) override {
    const SpanLinks::Link query = links_->FindQuery(frame);
    ScopedSpan span("distributed.shard_call", query.stmt, query.span);
    const SpanLinks::CallKey key = SpanLinks::Key(frame, shard);
    links_->RegisterCall(key, {query.stmt, span.id()});
    auto r = inner_->Call(shard, frame);
    links_->EraseCall(key, span.id());
    span.set_ok(r.ok());
    return r;
  }
  size_t size() const override { return inner_->size(); }
  dist::FailoverCounters failover_snapshot() const override {
    return inner_->failover_snapshot();
  }

 private:
  dist::Transport* inner_;
  SpanLinks* links_;
};

/// Times single attempts: wraps the TcpTransport under FailoverTransport,
/// one span per Call, parented to the shard call it serves.
class AttemptSpans : public dist::Transport {
 public:
  AttemptSpans(dist::Transport* inner, const SpanLinks* links)
      : inner_(inner), links_(links) {}

  isla::Result<std::string> Call(uint64_t channel,
                                 const std::string& frame) override {
    // RoundRobinPlacement: channel c serves shard c % kShards.
    const SpanLinks::Link call =
        links_->FindCall(SpanLinks::Key(frame, channel % kShards));
    ScopedSpan span("net.tcp_attempt", call.stmt, call.span);
    auto r = inner_->Call(channel, frame);
    span.set_ok(r.ok());
    return r;
  }
  size_t size() const override { return inner_->size(); }

 private:
  dist::Transport* inner_;
  const SpanLinks* links_;
};

// --- Fixture ---------------------------------------------------------------

struct Cluster {
  std::vector<std::unique_ptr<isla::net::WorkerServer>> servers;
  std::vector<isla::net::Endpoint> endpoints;
  std::vector<std::vector<uint64_t>> placement;
  std::vector<uint64_t> first_alive;  // per shard: the replica tried first
  std::unique_ptr<isla::net::TcpTransport> tcp;
  std::unique_ptr<dist::FailoverTransport> failover;
};

void StopCluster(Cluster* c) {
  c->failover.reset();
  c->tcp.reset();
  for (auto& s : c->servers) s->Stop();
  c->servers.clear();
  c->endpoints.clear();
}

bool StartCluster(const Shards& shards, bool one_dead, Cluster* c) {
  c->placement = dist::RoundRobinPlacement(kShards, kShards * kReplicas,
                                           kReplicas);
  for (int ch = 0; ch < kShards * kReplicas; ++ch) {
    const int s = ch % kShards;  // RoundRobinPlacement: channel ch serves s
    auto server = std::make_unique<isla::net::WorkerServer>(
        std::make_unique<dist::Worker>(s, shards.values[s], shards.preds[s],
                                       shards.keys[s]));
    if (!server->Start().ok()) return false;
    c->endpoints.push_back({"127.0.0.1", server->port()});
    c->servers.push_back(std::move(server));
  }
  c->tcp = std::make_unique<isla::net::TcpTransport>(c->endpoints);
  c->failover =
      std::make_unique<dist::FailoverTransport>(c->tcp.get(), c->placement);
  c->first_alive.clear();
  for (int s = 0; s < kShards; ++s) {
    // An idle FailoverTransport starts shard s at replica s % R.
    const uint64_t first = c->placement[s][s % kReplicas];
    const uint64_t second = c->placement[s][(s + 1) % kReplicas];
    if (one_dead) c->servers[first]->Stop();
    c->first_alive.push_back(one_dead ? second : first);
  }
  return true;
}

struct Sent {
  ClusterStmt stmt;
  StmtRecord record;
};

/// Runs the closed loop. During the window each client spills its records
/// to a file (see RecordSpill); the statements themselves are regenerated
/// from the seed afterwards.
std::vector<Sent> Window(dist::Transport* transport, SpanLinks* links,
                         const std::vector<ClusterStmt>& dashboard,
                         uint64_t seed, uint64_t stream_base, double seconds,
                         const std::string& spill_dir, double* wall_s,
                         double* peak_rss_mb) {
  std::vector<std::unique_ptr<RecordSpill>> spills;
  for (int c = 0; c < kClients; ++c) {
    spills.push_back(std::make_unique<RecordSpill>(
        spill_dir + "/records-" + std::to_string(::getpid()) + "-" +
        std::to_string(c) + ".bin"));
  }
  std::vector<ClusterGenerator> gens;
  for (int c = 0; c < kClients; ++c) {
    gens.emplace_back(seed, stream_base + c, &dashboard);
  }
  RepeatTracker repeats;
  *wall_s = RunClosedLoop(kClients, seconds, [&](int c, uint64_t seq) {
    const ClusterStmt stmt = gens[c].Next();
    StmtRecord r;
    r.id = (static_cast<uint64_t>(c) << 32) | (seq + 1);
    r.seq = seq;
    r.kind = stmt.kind();
    r.repeat = repeats.SeenBefore(stmt.Key());
    const uint64_t qid = stmt.op == ClusterStmt::kAvg ? stmt.qid : r.id;
    Answer answer;
    {
      ScopedSpan span("client.stmt", r.id);
      if (links != nullptr) links->RegisterQuery(qid, {r.id, span.id()});
      r.latency_ms =
          TimeMs([&] { answer = RunOnCoordinator(transport, stmt, qid); });
      span.set_ok(answer.ok);
      if (links != nullptr) links->EraseQuery(qid);
    }
    r.ok = r.well_formed = answer.ok;
    r.samples = answer.samples;
    r.answer_hash = AnswerHash(answer.bytes);
    if (!r.repeat) r.rows = std::move(answer.rows);
    spills[c]->Append(r);
  });
  *peak_rss_mb = PeakRssMb();
  std::vector<Sent> all;
  for (int c = 0; c < kClients; ++c) {
    ClusterGenerator again(seed, stream_base + c, &dashboard);
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

/// Repeats must equal their first answer; each distinct grouped/quantile
/// answer must be bit-identical to a local GroupByEngine on the same
/// shards, and each distinct AggregateAvg answer to the same call over the
/// in-process LoopbackTransport (ungrouped AVG is pinned TCP == loopback,
/// not against local execution). Distinct answers are graded for coverage.
Graded Check(const Shards& shards, const std::vector<Sent>& sent,
             Output* out) {
  std::vector<StmtRecord> records;
  for (const Sent& s : sent) records.push_back(s.record);
  const std::vector<size_t> distinct = CheckRepeats(records, out);
  const ExactCluster exact(shards);
  std::mutex mu;
  Graded g;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      std::vector<std::unique_ptr<dist::Worker>> workers;
      for (int s = 0; s < kShards; ++s) {
        workers.push_back(std::make_unique<dist::Worker>(
            s, shards.values[s], shards.preds[s], shards.keys[s]));
      }
      dist::LoopbackTransport loopback(std::move(workers));
      isla::runtime::ScratchPool pool;
      Graded local;
      for (size_t at; (at = next.fetch_add(1)) < distinct.size();) {
        const Sent& s = sent[distinct[at]];
        const Answer reference =
            s.stmt.op == ClusterStmt::kAvg
                ? RunOnCoordinator(&loopback, s.stmt, s.stmt.qid)
                : RunLocal(shards, s.stmt, &pool);
        std::string problem;
        if (!reference.ok ||
            AnswerHash(reference.bytes) != s.record.answer_hash) {
          problem = std::string(s.stmt.op == ClusterStmt::kAvg
                                    ? "TCP answer differs from loopback: "
                                    : "cluster answer differs from local "
                                      "GroupByEngine: ") +
                    s.record.key;
        }
        if (s.record.rows.empty()) problem = "empty answer: " + s.record.key;
        for (const AnswerRow& row : s.record.rows) {
          local.Grade(row, Truth(exact, s.stmt, row), 0.0, s.stmt.kind(),
                      s.record.key);
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

/// Shard-call and attempt metrics from the decorator spans. A shard
/// call's failover wait is its duration minus the part of it its attempts
/// cover (hedged attempts overlap, so the union counts, not the sum).
void TransportMetrics(const std::vector<Span>& spans, double statements,
                      const dist::FailoverCounters& before,
                      const dist::FailoverCounters& after, Output* out) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> attempts_of;
  std::vector<double> attempts, calls, wait;
  std::vector<const Span*> call_spans;
  double failed = 0.0;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "net.tcp_attempt") {
      attempts.push_back(s.end_ms - s.start_ms);
      attempts_of[s.parent].push_back({s.start_ms, s.end_ms});
      failed += s.ok ? 0.0 : 1.0;
    } else if (name == "distributed.shard_call") {
      calls.push_back(s.end_ms - s.start_ms);
      call_spans.push_back(&s);
    }
  }
  for (const Span* call : call_spans) {
    auto& children = attempts_of[call->id];
    std::sort(children.begin(), children.end());
    double covered = 0.0, reach = call->start_ms;
    for (const auto& [start, end] : children) {
      const double from = std::max(start, reach);
      const double to = std::min(end, call->end_ms);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    wait.push_back(call->end_ms - call->start_ms - covered);
  }
  const double n_calls =
      std::max<double>(1.0, static_cast<double>(calls.size()));
  const double n_attempts =
      std::max<double>(1.0, static_cast<double>(attempts.size()));
  const double n_stmts = std::max(1.0, statements);
  out->Set("net.tcp_attempt_ms", Percentile(attempts, 0.5), "ms");
  out->Set("distributed.shard_call_p50_ms", Percentile(calls, 0.5), "ms");
  out->Set("distributed.shard_call_p95_ms", Percentile(calls, 0.95), "ms");
  out->Set("distributed.shard_calls", static_cast<double>(calls.size()),
           "count");
  out->Set("distributed.attempts_per_call",
           static_cast<double>(attempts.size()) / n_calls, "count");
  out->Set("distributed.failed_attempt_share", failed / n_attempts, "ratio");
  out->Set("distributed.failover_wait_ms", Mean(wait), "ms");
  out->Set("distributed.failovers_per_stmt",
           static_cast<double>(after.failovers - before.failovers) / n_stmts,
           "count");
  out->Set("distributed.hedges_per_stmt",
           static_cast<double>(after.hedges - before.hedges) / n_stmts,
           "count");
  out->Info("net.tcp_attempts", static_cast<double>(attempts.size()));
  out->Info("net.tcp_attempts_unlinked",
            static_cast<double>(attempts_of[0].size()));
}

/// The per-layer ladder over grouped and quantile statements (the ones
/// with a local equivalent), replayed sequentially. Rungs: Coordinator
/// over FailoverTransport over TCP (untraced, then traced with the
/// decorators) > Coordinator over plain TcpTransport to the replica each
/// shard tries first that is alive > Coordinator over LoopbackTransport >
/// local GroupByEngine.
void Ladder(const Args& args, const Shards& shards, Cluster* cluster,
            dist::Transport* traced_stack,
            const std::vector<ClusterStmt>& dashboard, Output* out) {
  std::vector<isla::net::Endpoint> direct_endpoints;
  for (int s = 0; s < kShards; ++s) {
    direct_endpoints.push_back(cluster->endpoints[cluster->first_alive[s]]);
  }
  isla::net::TcpTransport direct(direct_endpoints);
  std::vector<std::unique_ptr<dist::Worker>> workers;
  for (int s = 0; s < kShards; ++s) {
    workers.push_back(std::make_unique<dist::Worker>(
        s, shards.values[s], shards.preds[s], shards.keys[s]));
  }
  dist::LoopbackTransport loopback(std::move(workers));
  isla::runtime::ScratchPool pool;
  // The direct transport connects lazily: pay that before timing.
  (void)RunOnCoordinator(&direct, dashboard.front(), 1);

  ClusterGenerator gen(args.seed, 50, &dashboard);
  const int n = args.smoke ? 6 : 60;
  Tracer& tracer = Tracer::Get();
  std::vector<double> untraced, failover, tcp, loop, local;
  for (int i = 0; i < n;) {
    const ClusterStmt s = gen.Next();
    if (s.op == ClusterStmt::kAvg) continue;
    const uint64_t stmt = 3'000'000 + static_cast<uint64_t>(i++);
    bool ok = true;
    tracer.set_enabled(false);
    untraced.push_back(TimeMs(
        [&] { ok &= RunOnCoordinator(cluster->failover.get(), s, stmt).ok; }));
    tracer.set_enabled(true);
    failover.push_back(TimeMs([&] {
      ScopedSpan span("ladder.failover", stmt);
      ok &= RunOnCoordinator(traced_stack, s, stmt).ok;
    }));
    tcp.push_back(TimeMs([&] {
      ScopedSpan span("ladder.tcp", stmt);
      ok &= RunOnCoordinator(&direct, s, stmt).ok;
    }));
    loop.push_back(TimeMs([&] {
      ScopedSpan span("ladder.coordinator", stmt);
      ok &= RunOnCoordinator(&loopback, s, stmt).ok;
    }));
    local.push_back(TimeMs([&] {
      ScopedSpan span("ladder.core", stmt);
      ok &= RunLocal(shards, s, &pool).ok;
    }));
    if (!ok) out->Fail("ladder statement failed: " + s.Key());
  }
  out->Set("distributed.failover_self_ms", Mean(failover) - Mean(tcp), "ms");
  out->Set("net.ladder_self_ms", Mean(tcp) - Mean(loop), "ms");
  out->Set("distributed.coordinator_self_ms", Mean(loop) - Mean(local), "ms");
  out->Set("core.ladder_self_ms", Mean(local), "ms");
  out->Set("trace.overhead_ms", Mean(failover) - Mean(untraced), "ms");
  out->Info("ladder.statements", n);
  out->Info("ladder.outermost_untraced_ms", Mean(untraced));
  out->Info("ladder.outermost_traced_ms", Mean(failover));
  out->Info("ladder.self_sum_ms", Mean(failover));
}

}  // namespace

void RunCluster(const Args& args, bool one_dead, Output* out) {
  const uint64_t rows = args.smoke ? 5'000 : 250'000;
  const std::vector<ClusterStmt> dashboard = MakeDashboard(args.seed);
  out->Info("fixture.rows_per_shard", static_cast<double>(rows));
  out->Info("fixture.shards", kShards);
  out->Info("fixture.replicas", kReplicas);
  out->Info("fixture.groups", kGroups);
  out->Info("fixture.precision", kPrecision);
  out->Info("fixture.clients", kClients);
  out->Info("fixture.dead_replicas", one_dead ? kShards : 0);

  Shards shards;
  Cluster cluster;
  bool started = true;
  const int setups = args.trace ? 1 : (args.smoke ? 2 : 7);
  const double setup_s = MedianSetupSeconds(setups, [&](int) {
    StopCluster(&cluster);
    shards = Shards();
    const double start = NowMs();
    MakeShards(args.seed, rows, &shards);
    started = started && StartCluster(shards, one_dead, &cluster);
    return (NowMs() - start) / 1e3;
  });
  out->Info("setup.repetitions", setups);
  if (!started) {
    out->Fail("worker servers failed to start");
    StopCluster(&cluster);
    return;
  }

  // The traced stack: shard-call spans above FailoverTransport, attempt
  // spans below it, over the same TCP connections.
  SpanLinks links;
  AttemptSpans attempts(cluster.tcp.get(), &links);
  dist::FailoverTransport traced_failover(&attempts, cluster.placement);
  ShardCallSpans shard_calls(&traced_failover, &links);
  dist::Transport* stack =
      args.trace ? static_cast<dist::Transport*>(&shard_calls)
                 : static_cast<dist::Transport*>(cluster.failover.get());

  {
    double ignored = 0.0;
    const std::vector<ClusterStmt> warm = MakeDashboard(args.seed ^ 0x3a3a);
    (void)Window(cluster.failover.get(), nullptr, warm, args.seed, 90,
                 args.smoke ? 0.2 : 1.0, args.work_dir, &ignored, &ignored);
    if (args.trace) {
      (void)Window(stack, nullptr, warm, args.seed, 91, 0.2, args.work_dir,
                   &ignored, &ignored);
    }
  }

  Tracer::Get().set_enabled(args.trace);
  const dist::FailoverCounters before = stack->failover_snapshot();
  const double window =
      args.trace ? std::min(args.seconds, args.smoke ? 1 : 4) : args.seconds;
  double wall_s = 0.0, rss = 0.0;
  std::vector<Sent> sent = Window(stack, args.trace ? &links : nullptr,
                                  dashboard, args.seed, 0, window,
                                  args.work_dir, &wall_s, &rss);
  const dist::FailoverCounters after = stack->failover_snapshot();
  const std::vector<Span> spans = Tracer::Get().Snapshot();

  Graded g = Check(shards, sent, out);
  g.Record(out);
  std::vector<StmtRecord> records;
  for (Sent& s : sent) records.push_back(std::move(s.record));
  out->Info("failovers",
            static_cast<double>(after.failovers - before.failovers));
  out->Info("retries", static_cast<double>(after.retries - before.retries));

  if (!args.trace) {
    StopCluster(&cluster);
    ReportEndToEnd(records, wall_s, args.smoke ? 4 : (one_dead ? 100 : 800),
                   g, setup_s, rss, out);
    return;
  }
  out->attempted = records.size();
  for (const StmtRecord& r : records) out->failed += r.ok ? 0 : 1;
  TransportMetrics(spans, static_cast<double>(records.size()), before, after,
                   out);
  Ladder(args, shards, &cluster, stack, dashboard, out);
  StopCluster(&cluster);

  LayerInputs inputs;
  inputs.values = &shards.value_col;
  inputs.predicate = &shards.pred_col;
  inputs.keys = &shards.key_col;
  inputs.precision = kPrecision;
  Xoshiro256 rng(SplitMix64::Hash(args.seed, 51));
  for (int i = 0; i < 12; ++i) {
    inputs.calls.push_back(
        ToCoreCall(Fresh(static_cast<ClusterStmt::Op>(i % 3), &rng)));
  }
  MeasureLayers(inputs, args.smoke, out);
}

}  // namespace perfbench

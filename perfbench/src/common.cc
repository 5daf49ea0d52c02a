#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>

#include "runtime/kernels/kernels.h"

namespace perfbench {

namespace {

/// The q-quantile of sorted `v`, interpolated between order statistics.
double Interpolate(const std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return Interpolate(v, q);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kUngrouped:
      return "ungrouped";
    case Kind::kGrouped:
      return "grouped";
    case Kind::kSketch:
      return "sketch";
  }
  return "?";
}

RecordSpill::RecordSpill(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "w+b");
  ok_ = file_ != nullptr;
}

RecordSpill::~RecordSpill() {
  if (file_ != nullptr) std::fclose(file_);
  std::remove(path_.c_str());
}

namespace {

/// The fixed-size part of a spilled record.
struct SpilledRecord {
  uint64_t id;
  uint64_t seq;
  uint64_t samples;
  uint64_t answer_hash;
  uint64_t rows;
  double latency_ms;
  double reported_ms;
  int32_t kind;
  uint8_t repeat;
  uint8_t ok;
  uint8_t well_formed;
};

}  // namespace

void RecordSpill::Append(const StmtRecord& r) {
  if (!ok_) return;
  SpilledRecord s{};
  s.id = r.id;
  s.seq = r.seq;
  s.samples = r.samples;
  s.answer_hash = r.answer_hash;
  s.rows = r.rows.size();
  s.latency_ms = r.latency_ms;
  s.reported_ms = r.reported_ms;
  s.kind = static_cast<int32_t>(r.kind);
  s.repeat = r.repeat;
  s.ok = r.ok;
  s.well_formed = r.well_formed;
  ok_ = std::fwrite(&s, sizeof(s), 1, file_) == 1 &&
        (r.rows.empty() ||
         std::fwrite(r.rows.data(), sizeof(AnswerRow), r.rows.size(),
                     file_) == r.rows.size());
}

bool RecordSpill::ReadAll(std::vector<StmtRecord>* out) {
  if (!ok_ || std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return false;
  }
  SpilledRecord s{};
  while (std::fread(&s, sizeof(s), 1, file_) == 1) {
    StmtRecord r;
    r.id = s.id;
    r.seq = s.seq;
    r.samples = s.samples;
    r.answer_hash = s.answer_hash;
    r.latency_ms = s.latency_ms;
    r.reported_ms = s.reported_ms;
    r.kind = static_cast<Kind>(s.kind);
    r.repeat = s.repeat != 0;
    r.ok = s.ok != 0;
    r.well_formed = s.well_formed != 0;
    r.rows.resize(s.rows);
    if (s.rows > 0 &&
        std::fread(r.rows.data(), sizeof(AnswerRow), s.rows, file_) != s.rows) {
      return false;
    }
    out->push_back(std::move(r));
  }
  return std::feof(file_) != 0;
}

bool RepeatTracker::SeenBefore(const std::string& key) {
  const uint64_t h = std::hash<std::string>()(key);
  std::lock_guard<std::mutex> lock(mu_);
  return !seen_.insert(h).second;
}

// --- Tracing ---------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                 "\"id\":%llu,\"parent\":%llu,\"stmt\":%llu,\"ok\":%s}\n",
                 s.name, s.start_ms, s.end_ms,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.stmt),
                 s.ok ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

TraceContext& CurrentContext() {
  thread_local TraceContext context;
  return context;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t stmt, uint64_t parent) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  TraceContext& ctx = CurrentContext();
  saved_ = ctx;
  span_.name = name;
  span_.id = tracer.NextId();
  span_.stmt = stmt != 0 ? stmt : ctx.stmt;
  span_.parent = parent != 0 ? parent : ctx.span;
  ctx.stmt = span_.stmt;
  ctx.span = span_.id;
  span_.start_ms = NowMs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ms = NowMs();
  Tracer::Get().Record(span_);
  CurrentContext() = saved_;
}

// --- Answers ---------------------------------------------------------------

std::string StripTiming(const std::string& s) {
  const size_t end = s.find(" ms]");
  if (end == std::string::npos) return s;
  const size_t start = s.rfind(", ", end);
  if (start == std::string::npos) return s;
  std::string out = s;
  return out.erase(start, end - start);
}

namespace {

double NumberAfter(const std::string& line, const std::string& tag,
                   bool* found) {
  const size_t at = line.find(tag);
  if (at == std::string::npos) {
    *found = false;
    return 0.0;
  }
  return std::strtod(line.c_str() + at + tag.size(), nullptr);
}

/// Fills [lo, hi] of `row` from the bracketed contract printed on `line`.
bool ParseBound(const std::string& line, AnswerRow* row) {
  bool found = true;
  if (line.find("rank +/- ") != std::string::npos) {
    row->lo = NumberAfter(line, "value in [", &found);
    const size_t open = line.find("value in [");
    if (!found || open == std::string::npos) return false;
    const size_t comma = line.find(", ", open);
    if (comma == std::string::npos) return false;
    row->hi = std::strtod(line.c_str() + comma + 2, nullptr);
    return true;
  }
  const double h = NumberAfter(line, "avg +/- ", &found);
  if (!found) return false;
  row->lo = row->value - h;
  row->hi = row->value + h;
  return true;
}

}  // namespace

ParsedAnswer ParseSessionAnswer(const std::string& text, double sum_scale) {
  ParsedAnswer out;
  std::string body = text;
  if (body.rfind("ok\n", 0) == 0) body = body.substr(3);
  std::vector<std::string> lines;
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.empty()) return out;
  const std::string& head = lines[0];
  bool found = true;
  out.samples = static_cast<uint64_t>(NumberAfter(head, "samples=", &found));
  if (!found) return out;
  const size_t ms = head.find(" ms]");
  if (ms != std::string::npos) {  // absent once StripTiming removed it
    const size_t comma = head.rfind(", ", ms);
    if (comma == std::string::npos) return out;
    out.elapsed_ms = std::strtod(head.c_str() + comma + 2, nullptr);
  }

  if (head.find(" group(s)") != std::string::npos) {
    // One row per group: "  grp=<key>  <AGG> = <v>  [<contract>]".
    for (size_t i = 1; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      const size_t eq = line.find('=');
      const size_t agg_eq = line.find(" = ");
      if (eq == std::string::npos || agg_eq == std::string::npos ||
          line.rfind("    bins:", 0) == 0) {
        continue;
      }
      AnswerRow row;
      row.key = std::strtod(line.c_str() + eq + 1, nullptr);
      const size_t agg_start = line.rfind("  ", agg_eq);
      out.aggregate = line.substr(agg_start + 2, agg_eq - agg_start - 2);
      row.value = std::strtod(line.c_str() + agg_eq + 3, nullptr);
      row.lo = row.hi = row.value;
      if (out.aggregate != "COUNT" && !ParseBound(line, &row)) return out;
      out.rows.push_back(row);
    }
    out.ok = true;
    return out;
  }

  const size_t agg_eq = head.find(" = ");
  if (agg_eq == std::string::npos || lines.size() < 2) return out;
  out.aggregate = head.substr(0, agg_eq);
  AnswerRow row;
  row.value = std::strtod(head.c_str() + agg_eq + 3, nullptr);
  row.lo = row.hi = row.value;
  const std::string& detail = lines[1];
  if (detail.find("sketch0=") != std::string::npos) {
    // Ungrouped ISLA: the (e, beta) contract is +/- e on the AVG scale.
    double e = NumberAfter(detail, "precision=+/-", &found);
    if (!found) return out;
    if (out.aggregate == "SUM") e *= sum_scale;
    row.lo = row.value - e;
    row.hi = row.value + e;
  } else if (out.aggregate != "COUNT" && !ParseBound(detail, &row)) {
    return out;
  }
  out.rows.push_back(row);
  out.ok = true;
  return out;
}

uint64_t AnswerHash(const std::string& bytes) {
  return std::hash<std::string>()(bytes);
}

std::vector<size_t> CheckRepeats(const std::vector<StmtRecord>& records,
                                 Output* out) {
  std::map<std::string, size_t> first;
  std::vector<size_t> distinct;
  // First-sent records first: concurrent clients may complete a repeat
  // before the statement's first run.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < records.size(); ++i) {
      const StmtRecord& r = records[i];
      if (!r.ok || r.repeat != (pass == 1)) continue;
      auto [it, inserted] = first.emplace(r.key, i);
      if (inserted) {
        distinct.push_back(i);
      } else if (records[it->second].answer_hash != r.answer_hash) {
        out->Fail("repeated statement answered differently: " + r.key);
      }
    }
  }
  return distinct;
}

void RecordSessionAnswer(const std::string& text, double sum_scale,
                         StmtRecord* r) {
  ParsedAnswer a = ParseSessionAnswer(text, sum_scale);
  r->samples = a.samples;
  r->reported_ms = a.elapsed_ms;
  r->answer_hash = AnswerHash(StripTiming(text));
  r->well_formed = a.ok && !a.rows.empty();
  if (!r->repeat) r->rows = std::move(a.rows);
}

// --- Exact answers ---------------------------------------------------------

namespace {
constexpr size_t kBlock = 1024;
}

SortedColumn::SortedColumn(std::vector<double> values) : v_(std::move(values)) {
  std::sort(v_.begin(), v_.end());
  block_prefix_.push_back(0.0);
  double running = 0.0;
  for (size_t i = 0; i < v_.size(); ++i) {
    running += v_[i];
    if ((i + 1) % kBlock == 0) block_prefix_.push_back(running);
  }
}

double SortedColumn::SuffixSum(size_t from) const {
  // Sum of v_[from, n) = total - prefix(from); prefix from whole blocks
  // plus the partial block.
  const size_t blocks = from / kBlock;
  double prefix = block_prefix_[blocks];
  for (size_t i = blocks * kBlock; i < from; ++i) prefix += v_[i];
  double total = block_prefix_.back();
  for (size_t i = (block_prefix_.size() - 1) * kBlock; i < v_.size(); ++i) {
    total += v_[i];
  }
  return total - prefix;
}

double SortedColumn::Mean() const {
  return SuffixSum(0) / static_cast<double>(v_.size());
}

double SortedColumn::MeanAbove(double t) const {
  const size_t from = static_cast<size_t>(
      std::upper_bound(v_.begin(), v_.end(), t) - v_.begin());
  if (from == v_.size()) return std::numeric_limits<double>::quiet_NaN();
  return SuffixSum(from) / static_cast<double>(v_.size() - from);
}

uint64_t SortedColumn::CountAbove(double t) const {
  return static_cast<uint64_t>(v_.end() -
                               std::upper_bound(v_.begin(), v_.end(), t));
}

double SortedColumn::Quantile(double q) const { return Interpolate(v_, q); }

// --- Results ---------------------------------------------------------------

void Output::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Output::Fail(const std::string& problem) {
  correct = false;
  if (problems.size() < 50) problems.push_back(problem);
}

void Output::Info(const std::string& name, double value) {
  info.push_back({name, JsonNumber(value)});
}

void Output::InfoString(const std::string& name, const std::string& value) {
  info.push_back({name, JsonString(value)});
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void ReportEndToEnd(const std::vector<StmtRecord>& records, double wall_s,
                    uint64_t prefix, const Graded& graded, double setup_s,
                    double rss_mb, Output* out) {
  const uint64_t coverage_hits = graded.hits;
  const uint64_t coverage_rows = graded.rows;
  std::vector<double> all, repeat;
  std::vector<double> by_kind[3];
  uint64_t ok = 0, prefix_n = 0, prefix_samples = 0;
  for (const StmtRecord& r : records) {
    if (!r.ok) continue;
    ++ok;
    all.push_back(r.latency_ms);
    if (r.repeat) {
      repeat.push_back(r.latency_ms);
    } else {
      by_kind[static_cast<int>(r.kind)].push_back(r.latency_ms);
    }
    if (r.seq < prefix) {
      ++prefix_n;
      prefix_samples += r.samples;
    }
  }
  const uint64_t attempted = records.size();
  out->attempted = attempted;
  out->failed = attempted - ok;

  auto latency = [&](const char* name, const std::vector<double>& v,
                     double q) {
    if (v.empty()) {
      out->Fail(std::string("no statements measured for ") + name);
      out->Set(name, 0.0, "ms");
    } else {
      out->Set(name, Percentile(v, q), "ms");
    }
    out->Info(std::string(name) + ".samples", static_cast<double>(v.size()));
  };
  out->Set("stmts_per_sec", static_cast<double>(ok) / wall_s, "1/s");
  latency("latency_p50_ms", all, 0.50);
  latency("latency_p95_ms", all, 0.95);
  latency("ungrouped_p50_ms", by_kind[0], 0.50);
  latency("grouped_p50_ms", by_kind[1], 0.50);
  latency("sketch_p50_ms", by_kind[2], 0.50);
  latency("repeat_p50_ms", repeat, 0.50);
  out->Set("answered_share",
           attempted == 0 ? 0.0
                          : static_cast<double>(ok) /
                                static_cast<double>(attempted),
           "ratio");
  if (prefix_n == 0) out->Fail("no answered statement in the fixed prefix");
  out->Set("samples_per_stmt",
           prefix_n == 0 ? 0.0
                         : static_cast<double>(prefix_samples) /
                               static_cast<double>(prefix_n),
           "rows");
  if (coverage_rows == 0) out->Fail("no answer was graded for coverage");
  out->Set("contract_coverage",
           coverage_rows == 0 ? 0.0
                              : static_cast<double>(coverage_hits) /
                                    static_cast<double>(coverage_rows),
           "ratio");
  out->Set("setup_s", setup_s, "s");
  out->Set("peak_rss_mb", rss_mb, "MiB");

  out->Info("window_s", wall_s);
  out->Info("statements_answered", static_cast<double>(ok));
  out->Info("repeat_share", ok == 0 ? 0.0
                                    : static_cast<double>(repeat.size()) /
                                          static_cast<double>(ok));
  out->Info("repeat_share.base", static_cast<double>(ok));
  out->Info("samples_per_stmt.base", static_cast<double>(prefix_n));
  out->Info("contract_coverage.base", static_cast<double>(coverage_rows));
}

double RunClosedLoop(int clients, double seconds,
                     const std::function<void(int, uint64_t)>& issue) {
  const double start = NowMs();
  const double deadline = start + seconds * 1e3;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t seq = 0; seq < 8 || NowMs() < deadline; ++seq) {
        issue(c, seq);
      }
    });
  }
  for (auto& t : threads) t.join();
  return (NowMs() - start) / 1e3;
}

void Graded::Grade(const AnswerRow& row, double exact, double slack,
                   Kind kind, const std::string& what) {
  const double width = std::max(row.hi - row.value, row.value - row.lo);
  const bool hit = exact >= row.lo - slack && exact <= row.hi + slack;
  hits += hit;
  ++rows;
  kind_hits[static_cast<int>(kind)] += hit;
  ++kind_rows[static_cast<int>(kind)];
  if (!std::isfinite(exact) || !std::isfinite(row.value) ||
      std::fabs(exact - row.value) > 5.0 * width + 2.0 * slack + 1e-9) {
    if (far++ == 0) {
      far_example = what + ": answer " + JsonNumber(row.value) + " in [" +
                    JsonNumber(row.lo) + ", " + JsonNumber(row.hi) +
                    "], exact " + JsonNumber(exact);
    }
  }
}

void Graded::Merge(const Graded& other) {
  hits += other.hits;
  rows += other.rows;
  for (int k = 0; k < 3; ++k) {
    kind_hits[k] += other.kind_hits[k];
    kind_rows[k] += other.kind_rows[k];
  }
  if (far == 0) far_example = other.far_example;
  far += other.far;
}

void Graded::Record(Output* out) const {
  for (int k = 0; k < 3; ++k) {
    const std::string name =
        std::string("contract_coverage.") + KindName(static_cast<Kind>(k));
    out->Info(name, kind_rows[k] ? static_cast<double>(kind_hits[k]) /
                                       static_cast<double>(kind_rows[k])
                                 : 0.0);
    out->Info(name + ".base", static_cast<double>(kind_rows[k]));
  }
  out->Info("answers_far_outside_bound", static_cast<double>(far));
  if (far > 0) {
    out->InfoString("answers_far_outside_bound.example", far_example);
  }
}

void RecordHost(Output* out) {
  out->Info("host.nproc",
            static_cast<double>(std::thread::hardware_concurrency()));
  out->InfoString("host.kernel_tier",
                  std::string(isla::runtime::kernels::ActiveLevelName()));
  out->InfoString("host.cpu_features",
                  isla::runtime::kernels::CpuFeatureString());
  out->InfoString("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench

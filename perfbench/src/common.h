// Shared pieces of the end-to-end benchmark: command line, statement
// records, the in-memory span tracer, answer parsing and the metric set
// every workload fills in.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny fixtures and short windows, every check still on (the
  /// benchmark's own tests run this).
  bool smoke = false;
  /// Where data files, span dumps and result files go (inside the
  /// checkout's build directory).
  std::string work_dir = ".bench_build/perfbench-work";
};

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename F>
double TimeMs(F&& f) {
  const double start = NowMs();
  f();
  return NowMs() - start;
}

/// snprintf of one number, for statement literals.
std::string Fmt(const char* format, double v);

/// Linear-interpolated percentile (q in [0, 1]); NaN when empty.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Kind of a statement, for the per-kind latency split.
enum class Kind { kUngrouped = 0, kGrouped = 1, kSketch = 2 };
const char* KindName(Kind k);

/// The interval an answer reports for one exact value: [lo, hi] must hold
/// the exact answer for the contract to have held.
struct AnswerRow {
  double key = 0.0;    // group key (0 for an ungrouped answer)
  double value = 0.0;  // the estimate
  double lo = 0.0;
  double hi = 0.0;
};

/// One statement the workload sent, and what came back.
struct StmtRecord {
  uint64_t id = 0;      // unique within the run
  uint64_t seq = 0;     // position in the client's statement stream
  Kind kind = Kind::kUngrouped;
  /// Statement identity (SQL text or call params). Multi-client workloads
  /// fill it after the timed window, from their regenerated streams.
  std::string key;
  bool repeat = false;  // the key was sent earlier in the timed window
  bool ok = false;
  double latency_ms = 0.0;
  uint64_t samples = 0;       // pilot + main rows, read from the answer
  double reported_ms = -1.0;  // executor time the answer reports, if any
  bool well_formed = false;   // the answer parsed
  /// Hash of the answer bytes with timing stripped. Runs keep this, not
  /// the text, so the benchmark's own memory stays small next to the
  /// program's (peak_rss_mb measures the process).
  uint64_t answer_hash = 0;
  std::vector<AnswerRow> rows;  // the answer's rows; first-seen only
};

uint64_t AnswerHash(const std::string& bytes);


/// One client's statement records during a timed window, spilled to a
/// file through a small stdio buffer: the benchmark's own memory must not
/// grow with the statement count, or peak_rss_mb would measure it instead
/// of the program. Keys are not kept (callers regenerate them from the
/// seeded stream); the file is removed on destruction.
class RecordSpill {
 public:
  explicit RecordSpill(std::string path);
  ~RecordSpill();
  RecordSpill(const RecordSpill&) = delete;
  RecordSpill& operator=(const RecordSpill&) = delete;

  void Append(const StmtRecord& r);
  /// Every appended record, in order; false when the file failed.
  bool ReadAll(std::vector<StmtRecord>* out);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool ok_ = true;
};

/// Tracks which statement keys were already sent (shared by clients).
class RepeatTracker {
 public:
  /// True when `key` was seen before; records (a hash of) it either way.
  bool SeenBefore(const std::string& key);

 private:
  std::mutex mu_;
  std::set<uint64_t> seen_;
};

// --- Tracing ---------------------------------------------------------------

struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t stmt = 0;
  bool ok = true;
};

/// In-memory span store: spans are appended under a lock and written out
/// once, at exit. Disabled (the default) it records nothing and costs one
/// branch per span site.
class Tracer {
 public:
  static Tracer& Get();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NextId();
  void Record(const Span& span);
  std::vector<Span> Snapshot() const;
  size_t size() const;
  /// Writes every span as one JSON object per line.
  bool Dump(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// The statement and span the current thread is working for; spans opened
/// on this thread default their parent and statement id to these.
struct TraceContext {
  uint64_t stmt = 0;
  uint64_t span = 0;
};
TraceContext& CurrentContext();

/// Records one span from construction to destruction (when tracing is on)
/// and makes itself the current thread's parent span meanwhile.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t stmt = 0,
                      uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_ok(bool ok) { span_.ok = ok; }
  uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
  TraceContext saved_;
};

// --- Answers ---------------------------------------------------------------

/// Removes the wall-clock segment (", 1.2345 ms]") of a session response.
std::string StripTiming(const std::string& s);

/// The numbers a session response carries. `rows` holds each answer with
/// the bound the response itself prints; COUNT rows print no COUNT bound,
/// so their [lo, hi] is left at the estimate (callers fill it in from a
/// structured replay).
struct ParsedAnswer {
  bool ok = false;
  uint64_t samples = 0;
  double elapsed_ms = -1.0;
  std::string aggregate;  // AVG/SUM/COUNT/MEDIAN/QUANTILE
  std::vector<AnswerRow> rows;
};

/// Parses a Session::Execute response (optionally prefixed with "ok\n" as
/// the query server sends it). `sum_scale` turns the printed AVG-scale
/// precision of an ungrouped ISLA SUM into its SUM-scale bound (= M).
ParsedAnswer ParseSessionAnswer(const std::string& text, double sum_scale);

/// Records a session response into `r`: samples, reported time, the hash
/// of the response with its timing stripped and, for a first-seen
/// statement, its rows. Sets r->well_formed.
void RecordSessionAnswer(const std::string& text, double sum_scale,
                         StmtRecord* r);

// --- Exact answers ---------------------------------------------------------

/// Exact answers over one population: values sorted ascending with block
/// prefix sums, so "AVG where value > t", "COUNT where value > t" and any
/// quantile cost O(log n + 1024).
class SortedColumn {
 public:
  SortedColumn() = default;
  explicit SortedColumn(std::vector<double> values);
  size_t size() const { return v_.size(); }
  double Mean() const;
  /// Mean of the values > t (strict); NaN when none.
  double MeanAbove(double t) const;
  uint64_t CountAbove(double t) const;
  /// Exact q-quantile, interpolated between order statistics.
  double Quantile(double q) const;

 private:
  double SuffixSum(size_t from) const;
  std::vector<double> v_;
  std::vector<double> block_prefix_;  // sum of v_[0 .. k*kBlock)
};

// --- Results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the metrics, and the
/// host/fixture facts written alongside them.
struct Output {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> problems;
  /// Extra facts for the result file: name -> already-encoded JSON value.
  std::vector<std::pair<std::string, std::string>> info;

  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& problem);
  void Info(const std::string& name, double value);
  void InfoString(const std::string& name, const std::string& value);
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/// Coverage tally: how many graded answers held the exact value inside
/// the bound they reported. Coverage is a metric, not a gate; answers whose
/// exact value lies beyond five times their bound are counted apart (with
/// one example) so the result file shows them.
struct Graded {
  uint64_t hits = 0;
  uint64_t rows = 0;
  uint64_t kind_hits[3] = {0, 0, 0};
  uint64_t kind_rows[3] = {0, 0, 0};
  uint64_t far = 0;
  std::string far_example;

  /// Grades `row` against `exact`; `slack` widens [lo, hi] for answers read
  /// back from 4-decimal text.
  void Grade(const AnswerRow& row, double exact, double slack, Kind kind,
             const std::string& what);
  void Merge(const Graded& other);
  /// Writes the per-kind coverage and the far-off count into the info.
  void Record(Output* out) const;
};

/// Checks that every repeated statement answered exactly like the first
/// time it was sent, and returns the index of each distinct statement's
/// first-sent record (the one that kept its rows).
std::vector<size_t> CheckRepeats(const std::vector<StmtRecord>& records,
                                 Output* out);

/// Fills the end-to-end metrics shared by every workload from the timed
/// window's records. `prefix` is the per-client statement count over which
/// samples_per_stmt is averaged (a fixed prefix, so it repeats exactly for
/// a seed). `graded` gives contract_coverage.
void ReportEndToEnd(const std::vector<StmtRecord>& records, double wall_s,
                    uint64_t prefix, const Graded& graded, double setup_s,
                    double rss_mb, Output* out);

/// Host and build facts every result records.
void RecordHost(Output* out);

/// Runs `clients` closed-loop client threads: each calls issue(client, seq)
/// for seq = 0, 1, ... and sends the next statement only after the previous
/// one returned, until `seconds` have passed and it has sent at least one
/// full 8-slot cycle of its statement mix (so every kind is measured even
/// on a slow build). Returns the wall time in seconds until the last client
/// finished its last statement.
double RunClosedLoop(int clients, double seconds,
                     const std::function<void(int, uint64_t)>& issue);


/// Median of `n` timed set-ups; `setup` returns its own duration in
/// seconds (so it can exclude teardown of the previous round).
template <typename F>
double MedianSetupSeconds(int n, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) times.push_back(setup(i));
  return Percentile(times, 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

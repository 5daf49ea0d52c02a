// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>]
//
// Runs one workload from its seed, checks every answer, prints each metric
// by name with its unit, writes a result file (and, traced, the spans) under
// the work directory, and prints one JSON object as the last line of
// stdout. With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones. Exits 1 when a
// correctness check failed, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Per-layer metrics every traced run reports, with their units. A layer a
/// workload's statements never pass through reports 0 (and is listed under
/// "not_on_path" in the result file).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.server_overhead_ms", "ms"},
    {"net.ladder_self_ms", "ms"},
    {"net.tcp_attempt_ms", "ms"},
    {"engine.parse_us", "us"},
    {"engine.session_self_ms", "ms"},
    {"engine.executor_self_ms", "ms"},
    {"engine.scheduler_self_ms", "ms"},
    {"engine.result_cache_hit_ratio", "ratio"},
    {"engine.result_cache_lookups", "count"},
    {"engine.pilot_cache_hit_ratio", "ratio"},
    {"engine.pilot_cache_lookups", "count"},
    {"engine.batched_share", "ratio"},
    {"engine.scheduler_queries", "count"},
    {"engine.rows_gathered_per_requested", "ratio"},
    {"engine.rows_requested", "rows"},
    {"core.ungrouped_ms", "ms"},
    {"core.grouped_ms", "ms"},
    {"core.sketch_ms", "ms"},
    {"core.pilot_ms", "ms"},
    {"core.pilot_samples_per_stmt", "rows"},
    {"core.main_samples_per_stmt", "rows"},
    {"core.ladder_self_ms", "ms"},
    {"sampling.index_ns_per_draw", "ns"},
    {"storage.gather_ns_per_row", "ns"},
    {"sampling.draw_ns_per_row", "ns"},
    {"kernels.predicate_mask_rows_per_s", "rows/s"},
    {"kernels.compact_masked_rows_per_s", "rows/s"},
    {"kernels.sum_rows_per_s", "rows/s"},
    {"kernels.compact_stride2_rows_per_s", "rows/s"},
    {"runtime.block_parallel_speedup", "x"},
    {"distributed.coordinator_self_ms", "ms"},
    {"distributed.failover_self_ms", "ms"},
    {"distributed.shard_call_p50_ms", "ms"},
    {"distributed.shard_call_p95_ms", "ms"},
    {"distributed.shard_calls", "count"},
    {"distributed.attempts_per_call", "count"},
    {"distributed.failed_attempt_share", "ratio"},
    {"distributed.failover_wait_ms", "ms"},
    {"distributed.failovers_per_stmt", "count"},
    {"distributed.hedges_per_stmt", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

const std::set<std::string> kWorkloads = {"scan_heavy", "server_mixed",
                                          "cluster_healthy",
                                          "cluster_one_dead"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <scan_heavy|server_mixed|"
               "cluster_healthy|cluster_one_dead> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--work-dir <dir>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else if (arg == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return kWorkloads.count(args->workload) > 0 && args->seconds >= 1;
}

void WriteResult(const Args& args, const Output& out,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
               JsonString(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed));
  std::fprintf(f, "  \"seconds\": %d,\n  \"trace\": %s,\n  \"smoke\": %s,\n",
               args.seconds, args.trace ? "true" : "false",
               args.smoke ? "true" : "false");
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n",
               out.correct ? "true" : "false",
               static_cast<unsigned long long>(out.attempted));
  std::fprintf(f, "  \"failed\": %llu,\n  \"metrics\": {",
               static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                 i ? "," : "", JsonString(out.metrics[i].first).c_str(),
                 JsonNumber(out.metrics[i].second.value).c_str(),
                 JsonString(out.metrics[i].second.unit).c_str());
  }
  std::fprintf(f, "\n  },\n  \"info\": {");
  for (size_t i = 0; i < out.info.size(); ++i) {
    std::fprintf(f, "%s\n    %s: %s", i ? "," : "",
                 JsonString(out.info[i].first).c_str(),
                 out.info[i].second.c_str());
  }
  std::fprintf(f, "\n  },\n  \"problems\": [");
  for (size_t i = 0; i < out.problems.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i ? "," : "",
                 JsonString(out.problems[i]).c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir + "/results", ec);
  std::filesystem::create_directories(args.work_dir + "/traces", ec);

  Output out;
  RecordHost(&out);
  out.Info("seed", static_cast<double>(args.seed));
  if (args.workload == "scan_heavy") {
    RunScanHeavy(args, &out);
  } else if (args.workload == "server_mixed") {
    RunServerMixed(args, &out);
  } else {
    RunCluster(args, args.workload == "cluster_one_dead", &out);
  }

  if (args.trace) {
    out.Set("trace.spans", static_cast<double>(Tracer::Get().size()),
            "count");
    std::string not_on_path;
    std::vector<std::pair<std::string, Metric>> ordered;
    for (const auto& [name, unit] : kPerLayer) {
      Metric m{0.0, unit};
      bool found = false;
      for (const auto& [n, v] : out.metrics) {
        if (n == name) {
          m = v;
          found = true;
        }
      }
      if (!found) {
        not_on_path += std::string(not_on_path.empty() ? "" : ",") + name;
      }
      ordered.push_back({name, m});
    }
    out.metrics = std::move(ordered);
    out.InfoString("not_on_path", not_on_path);
    out.InfoString("not_measurable",
                   "per-phase time inside one statement (pilot, plan, "
                   "per-block calculation, merge) and frame encode/decode "
                   "inside the server and workers: both need spans inside "
                   "the program, which this benchmark does not add");
  }

  for (auto& [name, metric] : out.metrics) {
    if (!std::isfinite(metric.value)) {
      out.Fail("metric " + name + " was not measured");
      metric.value = 0.0;
    }
  }

  const std::string stem = args.work_dir + "/results/" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  WriteResult(args, out, stem + ".json");
  if (args.trace) {
    Tracer::Get().Dump(args.work_dir + "/traces/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".spans.jsonl");
  }

  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  for (const auto& [name, m] : out.metrics) {
    std::printf("%-38s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                JsonString(out.metrics[i].first).c_str(),
                JsonNumber(out.metrics[i].second.value).c_str(),
                JsonString(out.metrics[i].second.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

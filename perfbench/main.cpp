// perfbench: runs one workload and prints its metrics by name.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR] [--tiny]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics ({name: {value, unit}}). --trace 0 prints the end-to-end
// metrics measured untraced; --trace 1 is the separate traced run that
// prints the per-layer metrics and writes DIR/trace-NAME-SEED.json
// (Chrome trace-event format). A per-layer metric of a layer the workload
// never calls reads 0. Exit code 0 iff every answer check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"certified_ratio", "ratio"},
    {"value_vs_opt", "ratio"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"core.outer_rounds", "count"},
    {"core.inner_iterations", "count"},
    {"core.oracle_calls", "count"},
    {"core.lambda_final", "ratio"},
    {"core.round_ms_p50", "ms"},
    {"core.inner_self_ms", "ms"},
    {"util.solve_4t_s", "s"},
    {"util.parallel_efficiency", "ratio"},
    {"access.sweep_ms", "ms"},
    {"access.draw_ms", "ms"},
    {"access.passes", "count"},
    {"access.peak_stored_edges", "count"},
    {"access.space_ratio", "ratio"},
    {"access.peak_resident_edges", "count"},
    {"stream.io_mb_per_pass", "MB"},
    {"stream.prefetch_hit_rate", "ratio"},
    {"stream.scan_gbps", "GB/s"},
    {"matching.offline_ms", "ms"},
    {"matching.union_edges", "count"},
    {"graph.max_flows", "count"},
    {"mapreduce.sim_rounds", "count"},
    {"mapreduce.sim_rounds_ratio", "ratio"},
    {"mapreduce.shuffle_mb", "MB"},
    {"mapreduce.shard_skew", "ratio"},
    {"dynamic.apply_us", "us"},
    {"dynamic.resolve_ms", "ms"},
    {"dynamic.repaired_rows", "count"},
    {"dynamic.scratch_fallbacks", "count"},
    {"serve.throughput_ops_s", "1/s"},
    {"serve.resolve_p50_ms", "ms"},
    {"serve.resolve_p99_ms", "ms"},
    {"serve.delta_p50_us", "us"},
    {"serve.probe_p50_us", "us"},
    {"serve.probe_p99_us", "us"},
    {"serve.probe_queue_us_p99", "us"},
    {"serve.resolve_queue_ms_p50", "ms"},
    {"serve.resolve_exec_ms_p50", "ms"},
    {"serve.shed", "count"},
    {"trace.overhead_s", "s"},
};

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{ram_dense,file_stream,mapreduce_rounds,serve_churn} --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--tiny]\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  if (opt.workload != "serve_churn" && !is_solver_workload(opt.workload)) {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  unpin();  // records the process's CPU set before anything pins
  Report report;
  try {
    if (opt.workload == "serve_churn") {
      run_serve_churn(opt, report);
    } else {
      run_solver_workload(opt, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  const std::vector<MetricSpec>& specs = opt.trace ? kPerLayer : kEndToEnd;
  std::string json;
  char buf[256];
  std::printf("%-30s %22s  %s\n", "metric", "value", "unit");
  for (const MetricSpec& spec : specs) {
    // End-to-end metrics are required; a per-layer metric is 0 on a
    // workload that never calls its layer.
    if (!report.has(spec.name)) {
      if (!opt.trace) {
        report.op(std::string("metric not measured: ") + spec.name);
      }
      report.set(spec.name, 0);
    }
    double value = report.get(spec.name);
    if (!std::isfinite(value)) {
      report.op(std::string("metric is not finite: ") + spec.name);
      value = 0;
    }
    std::printf("%-30s %22.10g  %s\n", spec.name, value, spec.unit);
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name, value, spec.unit);
    json += buf;
  }
  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", report.attempted(),
              report.failed(), json.c_str());
  return correct ? 0 : 1;
}

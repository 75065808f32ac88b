// perfbench: the repository benchmark.
//
//   perfbench --workload <disk_uniform|file_nearsorted|cluster_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--spans_out <file>]
//
// Inputs are generated from --seed before any timed region. --trace 0
// measures the end-to-end metrics with every tracer off; --trace 1 is the
// separate traced run that yields the per-layer metrics (and writes the
// benchmark's spans to --spans_out). Every run first checks that the
// backend decorator is transparent. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. An
// output whose order or record fingerprint is wrong makes the run exit 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "util/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every run prints every metric of its mode; a per-layer metric whose
// layer is not on a workload's path reads 0 there.
constexpr MetricDef kEndToEnd[] = {
    {"mrec_per_s", "Mrec/s"},   {"passes", "count"},
    {"peak_mem_mb", "MB"},      {"jobs_per_s", "jobs/s"},
    {"job_latency_p90_s", "s"}, {"success_frac", "ratio"},
    {"setup_s", "s"},
};

// End-to-end figures printed in the run's table but kept out of the
// result line: the median latency swings with host load by more than any
// usable bound (queueing amplifies a slowdown where the distribution is
// thin), and an always-zero failure fraction cannot carry a relative
// bound; success_frac carries the same information.
constexpr MetricDef kEndToEndInfo[] = {
    {"job_latency_p50_s", "s"},
    {"fail_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.plan_s", "s"},
    {"core.pred_passes", "count"},
    {"core.pass_error", "count"},
    {"core.plan_gain", "ratio"},
    {"core.sort_cpu_s", "s"},
    {"core.blocked_s", "s"},
    {"primitives.run_formation_s", "s"},
    {"primitives.run_formation_ns_per_rec", "ns/rec"},
    {"primitives.runs", "count"},
    {"pdm.read_ops", "count"},
    {"pdm.write_ops", "count"},
    {"pdm.blocks", "count"},
    {"pdm.calls", "count"},
    {"pdm.coalesced_ratio", "ratio"},
    {"pdm.utilization", "blocks/op"},
    {"pdm.sim_disk_s", "s"},
    {"pdm.backend_busy_s", "s"},
    {"pdm.backend_calls", "count"},
    {"pdm.backend_mb", "MB"},
    {"pdm.backend_call_us_p50", "us"},
    {"pdm.stream_hit_rate", "ratio"},
    {"pdm.disk_model_s", "s"},
    {"pdm.model_floor_s", "s"},
    {"pdm.wall_over_floor", "ratio"},
    {"util.process_cpu_s", "s"},
    {"util.cores_used", "cores"},
    {"service.queue_s_p50", "s"},
    {"service.queue_s_p90", "s"},
    {"service.run_s_p50", "s"},
    {"service.run_s_p90", "s"},
    {"service.submit_us_p50", "us"},
    {"service.plan_cache_hit_rate", "ratio"},
    {"cluster.hold_wait_s_p50", "s"},
    {"cluster.hold_wait_s_p90", "s"},
    {"cluster.held_total", "count"},
    {"cluster.stolen", "count"},
    {"cluster.spilled", "count"},
    {"cluster.job_imbalance", "ratio"},
    {"cluster.io_imbalance", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.lib_overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <disk_uniform|file_nearsorted|"
               "cluster_mix> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--spans_out <file>]\n";
  std::exit(2);
}

RunArgs parse(int argc, char** argv, std::string* spans_out) {
  RunArgs a;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--workdir") {
        a.workdir = v;
        have_workdir = true;
      } else if (k == "--spans_out") {
        *spans_out = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload || !have_workdir) {
    usage("--workload and --workdir are required");
  }
  if (!(a.seconds > 0) || a.seconds > 600) {
    usage("--seconds must be in (0, 600]");
  }
  if (!is_single_sort(a.workload) && a.workload != "cluster_mix") {
    usage("unknown workload " + a.workload);
  }
  return a;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The result line, with every metric of the run's mode in catalogue
/// order; metrics the workload did not set read 0.
std::string result_json(const RunResult& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    const auto it = r.metrics.find(d.name);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + std::string(d.name) + "\": {\"value\": " +
           number(it != r.metrics.end() ? it->second : 0) +
           ", \"unit\": \"" + d.unit + "\"}";
  };
  if (trace) {
    for (const auto& d : kPerLayer) emit(d);
  } else {
    for (const auto& d : kEndToEnd) emit(d);
  }
  out += "}}";
  return out;
}

/// Human-readable end-to-end table for timed runs.
void print_end_to_end_table(const RunResult& r) {
  std::cout << "\n| metric | value | unit |\n|---|---|---|\n";
  auto row = [&](const MetricDef& d) {
    const auto it = r.metrics.find(d.name);
    std::cout << "| " << d.name << " | "
              << (it != r.metrics.end() ? number(it->second) : "n/a") << " | "
              << d.unit << " |\n";
  };
  for (const auto& d : kEndToEnd) row(d);
  for (const auto& d : kEndToEndInfo) row(d);
  std::cout << "\n";
}

/// Human-readable per-layer table for traced runs, grouped by module.
void print_layer_table(const RunResult& r, const SpanLog& log) {
  std::cout << "\n| layer | metric | value | unit |\n|---|---|---|---|\n";
  for (const auto& d : kPerLayer) {
    const std::string name = d.name;
    const auto it = r.metrics.find(name);
    const std::string value =
        it != r.metrics.end() ? number(it->second) : "n/a";
    std::cout << "| " << name.substr(0, name.find('.')) << " | " << name
              << " | " << value << " | " << d.unit << " |\n";
  }
  std::cout << "\n| span | count | total_s | self_s |\n|---|---|---|---|\n";
  for (const auto& t : log.totals()) {
    std::cout << "| " << t.name << " | " << t.count << " | "
              << number(t.total_s) << " | " << number(t.self_s) << " |\n";
  }
  std::cout << "\n";
}

int run(int argc, char** argv) {
  std::string spans_out;
  const RunArgs a = parse(argc, argv, &spans_out);
  std::filesystem::create_directories(a.workdir);
  pdm::trace::TraceLog::instance().set_enabled(false);

  {
    SpanLog selftest_log;
    if (!decorator_selftest(selftest_log)) return 1;
  }

  SpanLog log;
  RunResult r = is_single_sort(a.workload) ? run_single_sort(a, log)
                                           : run_cluster_mix(a, log);
  if (!a.trace) {
    r.metrics["fail_frac"] = static_cast<double>(r.failed) /
                             static_cast<double>(std::max<u64>(1, r.attempted));
    print_end_to_end_table(r);
  } else {
    print_layer_table(r, log);
    if (!spans_out.empty() && !log.write_json(spans_out)) {
      std::cerr << "perfbench: could not write spans to " << spans_out << "\n";
    }
  }
  std::filesystem::remove_all(a.workdir);
  if (!r.correct) {
    std::cerr << "perfbench: output order or record fingerprint mismatch\n";
  }
  std::cout << result_json(r, a.trace) << std::endl;
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

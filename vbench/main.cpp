// vbench: the repository benchmark's program. vbench/run.py builds it and
// calls it; run by hand it takes
//
//   vbench --workload W --seed N --seconds S --trace 0|1 --dir D [--smoke]
//   vbench --setup --workload W --seed N --dir D
//
// and prints one JSON object (checks, counts, metrics, host/build stamp)
// as its last stdout line. With --setup it does only the workload's set-up
// and prints "ready", so the caller can time process start to ready.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "stats.h"

#ifndef VBENCH_BUILD_TYPE
#define VBENCH_BUILD_TYPE "unknown"
#endif
#ifndef VBENCH_COMPILER
#define VBENCH_COMPILER "unknown"
#endif

namespace vbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  return "unknown";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

struct MetricDef {
  std::string name;
  std::string unit;
};

// The metrics of BENCHMARK.json, in its order; run.py adds setup_s and
// checks both lists against the file. End-to-end metrics hold the same
// meaning on every workload: an "op" is one solve in the sweep and one
// served decision in the admission service.
const std::vector<MetricDef> kEndToEnd = {
    {"peak_rss_mb", "MB"},
    {"norm_ops_per_s", "1/s"},
    {"norm_op_ms_mean", "ms"},
    {"norm_op_ms_tail", "ms"},
    {"modeled_us_per_op", "virtual_us"},
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {
      {"workload.generate_us_p50", "us"},
      {"workload.materialize_us_p50", "us"},
      {"workload.materialize_s", "s"},
      {"workload.materialize_share", "frac"},
      {"core.kmeans.runs", "count"},
      {"core.kmeans.iterations", "count"},
      {"core.kmeans.self_s", "s"},
      {"analysis.min_budget_self_s", "s"},
      {"analysis.dbf_evaluations", "count"},
      {"analysis.budget_evaluations", "count"},
      {"analysis.budget_cache_hits", "count"},
      {"analysis.budget_hit_ratio", "frac"},
      {"analysis.soa_rebuilds", "count"},
      {"analysis.arena_bytes", "bytes"},
      {"analysis.inner_tasks", "count"},
      {"analysis.existing_solve_ms_mean", "ms"},
      {"analysis.ovf_solve_ms_mean", "ms"},
      {"analysis.existing_over_ovf", "ratio"},
      {"analysis.existing_solves", "count"},
      {"analysis.dbf_per_existing_solve", "count"},
  };
  for (const std::string layer : {"vm_alloc", "hv_alloc"})
    for (const std::string key : {"flat", "ovf", "existing", "even", "baseline"})
      for (const std::string q : {"us_p50", "us_p99"})
        d.push_back({"core." + layer + "." + key + "." + q, "us"});
  const std::vector<MetricDef> rest = {
      {"core.hv_alloc.phase1_s", "s"},
      {"core.hv_alloc.phase2_s", "s"},
      {"core.hv_alloc.phase3_s", "s"},
      {"core.hv_alloc.candidate_packings", "count"},
      {"core.hv_alloc.partition_grants", "count"},
      {"core.hv_alloc.vcpu_migrations", "count"},
      {"core.hv_alloc.admission_tests", "count"},
      {"core.hv_alloc.admission_passed", "count"},
      {"core.hv_alloc.admission_pass_ratio", "frac"},
      {"core.core_load.cache_hits", "count"},
      {"core.admission.admit_us_p50", "us"},
      {"core.admission.admit_us_p99", "us"},
      {"core.admission.reject_us_p50", "us"},
      {"core.admission.resize_us_p50", "us"},
      {"core.admission.remove_us_p50", "us"},
      {"core.admission.commits", "count"},
      {"core.admission.full_solves", "count"},
      {"core.admission.commit_ratio", "frac"},
      {"service.queue_wait_us_p99", "us"},
      {"service.modeled_latency_us_p50", "us"},
      {"service.modeled_latency_us_p99", "us"},
      {"service.downgrades", "count"},
      {"service.deferred", "count"},
      {"service.shed", "count"},
      {"service.backpressure", "count"},
      {"service.full_solve_ratio", "frac"},
      {"service.journal.appends", "count"},
      {"service.journal.bytes", "bytes"},
      {"service.journal.append_us_p50", "us"},
      {"service.journal.append_us_p99", "us"},
      {"service.journal.append_s", "s"},
      {"service.journal.share", "frac"},
      {"service.telemetry.samples", "count"},
      {"service.telemetry.bytes", "bytes"},
      {"service.telemetry.append_us_p50", "us"},
      {"service.trace_gen_s", "s"},
      {"obs.report_write_ms", "ms"},
      {"util.pool.executed", "count"},
      {"util.pool.steals", "count"},
      {"util.pool.idle_s", "s"},
      {"trace.traced_wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
      {"trace.overhead_frac", "frac"},
      {"trace.self_sum_s", "s"},
      {"trace.remainder_s", "s"},
      {"trace.capacity_s", "s"},
      {"bench.failed_frac", "frac"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}

void print_result(const Args& args, Result r) {
  // Per-layer metrics a workload does not exercise read 0; an end-to-end
  // metric must always be measured.
  const std::vector<MetricDef> defs =
      args.trace ? per_layer_defs() : kEndToEnd;
  std::set<std::string> known;
  for (const MetricDef& d : defs) {
    known.insert(d.name);
    if (!r.values.count(d.name)) {
      if (!args.trace) r.fail("metric not measured: " + d.name);
      r.values[d.name] = 0;
    }
  }
  for (const auto& [name, value] : r.values)
    if (!known.count(name)) r.fail("metric outside the table: " + name);
  if (args.trace)
    r.values["bench.failed_frac"] =
        Ratio{static_cast<double>(r.failed),
              static_cast<double>(r.attempted)}
            .value();

  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i)
    os << (i ? ", " : "") << json_string(defs[i].name)
       << ": {\"value\": " << json_number(r.values[defs[i].name])
       << ", \"unit\": " << json_string(defs[i].unit) << "}";
  os << "}, \"detail\": {";
  for (std::size_t i = 0; i < r.detail.size(); ++i)
    os << (i ? ", " : "") << json_string(r.detail[i].first) << ": "
       << json_string(r.detail[i].second);
  os << "}, \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? ", " : "") << json_string(r.failures[i]);
  os << "], \"stamp\": {\"nproc\": " << usable_cpus()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(VBENCH_COMPILER)
     << ", \"build_type\": " << json_string(VBENCH_BUILD_TYPE)
     << ", \"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed
     << ", \"host_slowdown\": " << json_number(r.host_slowdown)
     << ", \"smoke\": "
     << (args.smoke ? "true" : "false") << "}}";
  std::cout << os.str() << std::endl;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "vbench: " << why
            << "\nusage: vbench [--setup] --workload sweep-fig4|serve-steady|"
               "serve-flash --seed N --seconds S --trace 0|1 --dir D "
               "[--smoke]\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !std::isfinite(v) || v < 0)
    usage(flag + ": bad value '" + text + "'");
  return v;
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
  using namespace vbench;
  Args args;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed")
      args.seed = static_cast<std::uint64_t>(parse_number(flag, value()));
    else if (flag == "--seconds") args.seconds = parse_number(flag, value());
    else if (flag == "--trace") args.trace = parse_number(flag, value()) != 0;
    else if (flag == "--dir") args.dir = value();
    else if (flag == "--smoke") args.smoke = true;
    else if (flag == "--setup") setup_only = true;
    else usage("unknown flag " + flag);
  }
  if (args.dir.empty()) usage("--dir is required");
  const bool sweep = args.workload == "sweep-fig4";
  if (!sweep && args.workload != "serve-steady" &&
      args.workload != "serve-flash")
    usage("unknown workload '" + args.workload + "'");

  try {
    if (setup_only) {
      if (sweep) setup_sweep(args);
      else setup_serve(args);
      std::cout << "ready" << std::endl;
      return 0;
    }
    Result result;
    if (sweep) run_sweep(args, result);
    else run_serve(args, result);
    print_result(args, result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "vbench: " << e.what() << "\n";
    return 1;
  }
}

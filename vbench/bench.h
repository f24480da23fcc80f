// Shared plumbing of the benchmark program: arguments, the result record
// every workload fills, the independent allocation re-check, and the
// process-level readings (clock, peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/hv_alloc.h"
#include "model/platform.h"
#include "model/task.h"
#include "obs/profiler.h"
#include "util/instrument.h"
#include "util/log_histogram.h"

namespace vbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Seconds-long sizes for the smoke test; not a measurement.
  bool smoke = false;
  /// Scratch directory for journals and timelines (inside the checkout).
  std::string dir;
};

/// What one invocation reports: the verdict of every output check, the
/// operation counts, the metrics, and free-form detail lines (sample
/// counts, ratio bases, the layer self-time table) for the result file.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; main.cpp owns the names, units and order.
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> detail;
  std::vector<std::string> failures;
  /// How much slower than nominal the host ran the reference computation
  /// during the run (reference.h); run.py scales setup_s by it.
  double host_slowdown = 1;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& key, const std::string& value) {
    detail.emplace_back(key, value);
  }
  /// Record a failed output check; the run is then reported incorrect.
  void fail(const std::string& what) {
    correct = false;
    if (failures.size() < 20) failures.push_back(what);
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An untraced run cycles through up to this many traces (sub-seeds)
/// derived from --seed, so one run's figures average over several inputs
/// instead of hanging on one trace's outcome mix.
constexpr int kSubSeeds = 4;

inline std::uint64_t sub_seed(std::uint64_t seed, int j) {
  return seed * kSubSeeds + static_cast<std::uint64_t>(j);
}

/// The end-to-end readings of one repetition of an untraced run.
struct Rep {
  double wall_s = 0;  ///< the timed call
  double ops = 0;     ///< solves or trace requests it completed
  /// Wall seconds of each op whose latency is reported (every solve; the
  /// full-solve decisions of serve).
  vc2m::util::LogHistogram op_seconds;
  double modeled_us = 0;
  double rss_mb = 0;
  std::string digest;  ///< the repetition's output digest
};

/// The op latency percentile reported as norm_op_ms_tail. A repetition has
/// 9-11k latency samples and a run pools at least two, so p99 keeps
/// hundreds of samples beyond it.
constexpr double kTailQ = 0.99;

/// Run `rep(j, first)` for sub-seeds j = 0, 1, ..., sub_seeds - 1, 0, ...
/// (`first` on a sub-seed's first repetition) until every sub-seed ran
/// once and the timed calls add up to args.seconds; `rep` returns false
/// when the repetition failed. Then set the end-to-end metrics (all but
/// setup_s) over the whole run: throughput is all ops over all timed wall
/// time, the op latencies come from all repetitions' samples pooled, peak
/// RSS is the median over the repetitions and the deterministic modeled
/// cost the mean over the sub-seeds. Every repetition of a sub-seed must
/// reproduce its output digest and its count of failed operations; the
/// run's digest covers all sub-seeds in order.
void run_reps(const Args& args, Result& out, int sub_seeds,
              const std::function<bool(int, bool, Rep&)>& rep);

/// Return free heap to the system and reset the process's peak-RSS mark
/// (Linux clear_refs), so each repetition's high-water mark is its own
/// and not the heap an earlier repetition left behind.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss (or process start).
double peak_rss_mb();

/// The service's virtual cost of one full solve, in ns, as a function of
/// the allocator effort it took (service/service.cpp, solve_cost): the
/// deterministic, host-independent effort readout used for the sweep.
inline double modeled_cost_ns(const vc2m::util::AllocCounters& c,
                              double solves) {
  return 20'000.0 * solves + 800.0 * static_cast<double>(c.dbf_evaluations) +
         500.0 * static_cast<double>(c.budget_evaluations) +
         120.0 * static_cast<double>(c.admission_tests);
}

/// Re-check a certified allocation without the solver: every VCPU placed
/// on exactly one used core, per-core partitions inside the grid, the
/// per-core cache/BW sums inside the platform pools, and the exact EDF test
/// analysis::core_schedulable on every core. When `tasks` is non-empty,
/// every task must also be served by exactly one VCPU of its VM. Returns
/// an empty string when the allocation holds, else the first violation.
std::string recheck_allocation(std::span<const vc2m::model::Vcpu> vcpus,
                               const vc2m::core::HvAllocResult& mapping,
                               const vc2m::model::PlatformSpec& platform,
                               const vc2m::model::Taskset& tasks);

/// Σ total (or self) seconds of every merged-profile node named `name`,
/// wherever it sits in the tree.
double profile_seconds(const vc2m::obs::PhaseStats& node,
                       const std::string& name, bool self);

/// Copy the integer effort counters into `out` under the per-layer metric
/// names (kmeans, analysis, hv_alloc, core_load).
void set_effort_metrics(const vc2m::util::AllocCounters& c, Result& out);

/// Space-separated values, for the result file's detail lines.
std::string join(const std::vector<double>& values);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string fnv_hex(const std::string& text);

// Workload entry points (sweep.cpp, serve.cpp). `setup_*` does what the
// workload needs before its first solve or request and nothing more.
void setup_sweep(const Args& args);
void run_sweep(const Args& args, Result& out);
void setup_serve(const Args& args);
void run_serve(const Args& args, Result& out);

}  // namespace vbench

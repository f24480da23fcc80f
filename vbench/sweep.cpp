// sweep-fig4: the paper's Fig-2a/Fig-4 schedulability sweep on Platform A
// (uniform utilization 0.1..2.0 step 0.05, 50 tasksets per point, the five
// §5 solutions = 9,750 solves) through core::run_schedulability_experiment
// on one worker. This is the offline allocator's real job: VM-level
// analysis (min-budget surfaces, dbf) and HV phases 1-3 do most of the
// work; admission, journal and the service are not touched.
//
// Untraced run: whole sweeps back to back for --seconds, alternating
// between two seeds derived from --seed; every certified allocation is
// re-checked from outside (ExperimentConfig::validate) and every sweep of
// a seed must reproduce the same per-(utilization, solution) schedulable
// counts.
//
// Traced run: one untraced sweep for the baseline wall, pool telemetry and
// effort counters, then the same sweep re-driven by the benchmark itself
// over a one-worker pool with a span around every generate_taskset,
// Strategy::vm->allocate and Strategy::hv->allocate call and the phase
// profiler on. A final untimed pass re-solves every item with core::solve
// on an identical RNG and demands the same verdict, allocation and effort.
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>

#include "analysis/context.h"
#include "analysis/schedulability.h"
#include "bench.h"
#include "core/experiment.h"
#include "core/strategy.h"
#include "obs/bench_report.h"
#include "obs/profiler.h"
#include "scenario/digest.h"
#include "stats.h"
#include "util/phase_profiler.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/parsec.h"

namespace vbench {
namespace {

using namespace vc2m;

// One worker: with 4, glibc's per-thread arenas made a sweep's peak RSS
// swing between 35 and 85 MB from one repetition to the next, and worker
// imbalance widened the wall-time spread; on one worker the peak holds at
// 10.1-10.6 MB. The sweep's seeds differ little in work, so two traces
// per run suffice.
constexpr int kJobs = 1;
constexpr int kSweepSubSeeds = 2;
// Threads for the untimed verification pass.
constexpr int kCheckJobs = 4;

/// Counts the external re-checks the sweep's validate hook ran.
struct Recheck {
  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> bad{0};
  std::mutex mu;
  std::string first;  ///< guarded by mu
};

core::ExperimentConfig sweep_config(const Args& args, Recheck* rc) {
  core::ExperimentConfig cfg;
  cfg.platform = model::PlatformSpec::A();
  cfg.dist = workload::UtilDist::kUniform;
  cfg.util_lo = 0.1;
  cfg.util_hi = args.smoke ? 0.7 : 2.0;
  cfg.util_step = args.smoke ? 0.3 : 0.05;
  cfg.tasksets_per_point = args.smoke ? 2 : 50;
  cfg.num_vms = 1;
  cfg.seed = args.seed;
  cfg.jobs = kJobs;
  cfg.solutions = core::default_solution_keys();
  if (rc) {
    const model::PlatformSpec platform = cfg.platform;
    cfg.validate = [rc, platform](const model::Taskset& tasks,
                                  const core::SolveResult& res,
                                  std::uint64_t) {
      rc->checked.fetch_add(1, std::memory_order_relaxed);
      const std::string why =
          recheck_allocation(res.vcpus, res.mapping, platform, tasks);
      if (why.empty()) return true;
      rc->bad.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(rc->mu);
      if (rc->first.empty()) rc->first = why;
      return false;
    };
  }
  return cfg;
}

int point_count(const core::ExperimentConfig& cfg) {
  return static_cast<int>(
             std::floor((cfg.util_hi - cfg.util_lo) / cfg.util_step + 1e-9)) +
         1;
}

std::uint64_t solve_count(const core::ExperimentConfig& cfg) {
  return static_cast<std::uint64_t>(point_count(cfg)) *
         static_cast<std::uint64_t>(cfg.tasksets_per_point) *
         cfg.solutions.size();
}

/// The sweep's output: schedulable/total per (utilization, solution).
std::string counts_text(const core::ExperimentConfig& cfg,
                        const std::vector<std::vector<int>>& sched,
                        const std::vector<std::vector<int>>& total) {
  std::ostringstream os;
  for (std::size_t pi = 0; pi < sched.size(); ++pi)
    for (std::size_t si = 0; si < cfg.solutions.size(); ++si)
      os << pi << "|" << cfg.solutions[si] << "|" << sched[pi][si] << "/"
         << total[pi][si] << ";";
  return os.str();
}

std::string counts_digest(const core::ExperimentResult& res) {
  std::vector<std::vector<int>> sched, total;
  for (const auto& pt : res.points) {
    sched.emplace_back();
    total.emplace_back();
    for (const auto& sp : pt.per_solution) {
      sched.back().push_back(sp.schedulable);
      total.back().push_back(sp.total);
    }
  }
  return fnv_hex(counts_text(res.cfg, sched, total));
}

/// One sweep through the experiment runner: its wall time, peak RSS,
/// result and effort.
struct SweepRep {
  double wall = 0;
  double rss_mb = 0;
  core::ExperimentResult result;
  util::AllocCounters counters;
};

/// Run and check one sweep; false when it threw.
bool run_checked_sweep(const Args& args, Result& out, SweepRep& rep) {
  Recheck rc;
  const core::ExperimentConfig cfg = sweep_config(args, &rc);
  const std::uint64_t expected = solve_count(cfg);
  out.attempted += expected;
  try {
    util::AllocCounterScope scope;
    reset_peak_rss();
    const double t0 = now_s();
    rep.result = core::run_schedulability_experiment(cfg);
    rep.wall = now_s() - t0;
    rep.rss_mb = peak_rss_mb();
    rep.counters = scope.counters();
  } catch (const std::exception& e) {
    out.failed += expected;
    out.fail(std::string("sweep threw: ") + e.what());
    return false;
  }
  std::uint64_t schedulable = 0;
  for (const auto& pt : rep.result.points)
    for (const auto& sp : pt.per_solution)
      schedulable += static_cast<std::uint64_t>(sp.schedulable);
  if (rep.result.solve_seconds.count() != expected)
    out.fail("sweep solved " +
             std::to_string(rep.result.solve_seconds.count()) + " of " +
             std::to_string(expected));
  if (rc.checked.load() != schedulable)
    out.fail("re-checked " + std::to_string(rc.checked.load()) +
             " certified allocations of " + std::to_string(schedulable));
  if (rc.bad.load()) {
    out.failed += rc.bad.load();
    out.fail(std::to_string(rc.bad.load()) +
             " certified allocations fail the re-check; first: " + rc.first);
  }
  return true;
}

void run_untraced(const Args& args, Result& out) {
  run_reps(args, out, kSweepSubSeeds, [&](int j, bool, Rep& r) {
    Args sub = args;
    sub.seed = sub_seed(args.seed, j);
    SweepRep rep;
    if (!run_checked_sweep(sub, out, rep)) return false;
    const double n = static_cast<double>(rep.result.solve_seconds.count());
    r.wall_s = rep.wall;
    r.ops = n;
    r.op_seconds = rep.result.solve_seconds;
    r.modeled_us = modeled_cost_ns(rep.counters, n) / n / 1e3;
    r.rss_mb = rep.rss_mb;
    r.digest = counts_digest(rep.result);
    return true;
  });
}

/// One (taskset, solution) work item of the traced sweep.
struct Item {
  bool schedulable = false;
  std::string digest;  ///< scenario::solve_digest of the allocation
  util::AllocCounters counters;
};

struct ItemSpans {
  std::vector<Span> spans;
  std::int64_t origin = 0;
  std::uint64_t seq = 0;

  int open(std::string name, int parent) {
    spans.push_back({std::move(name), now_ns() - origin, 0, parent, seq});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int i) { spans[static_cast<std::size_t>(i)].end_ns = now_ns() - origin; }
};

bool same_effort(const util::AllocCounters& a, const util::AllocCounters& b) {
  return a.kmeans_runs == b.kmeans_runs &&
         a.kmeans_iterations == b.kmeans_iterations &&
         a.admission_tests == b.admission_tests &&
         a.admission_passed == b.admission_passed &&
         a.dbf_evaluations == b.dbf_evaluations &&
         a.budget_evaluations == b.budget_evaluations &&
         a.budget_cache_hits == b.budget_cache_hits &&
         a.load_cache_hits == b.load_cache_hits &&
         a.candidate_packings == b.candidate_packings &&
         a.partition_grants == b.partition_grants &&
         a.vcpu_migrations == b.vcpu_migrations &&
         a.arena_bytes == b.arena_bytes &&
         a.soa_rebuilds == b.soa_rebuilds && a.inner_tasks == b.inner_tasks;
}

void run_traced(const Args& run_args, Result& out) {
  Args args = run_args;
  args.seed = sub_seed(run_args.seed, 0);
  SweepRep base;
  if (!run_checked_sweep(args, out, base)) return;
  const std::string digest = counts_digest(base.result);
  const core::ExperimentConfig cfg = sweep_config(args, nullptr);
  const std::size_t n_sol = cfg.solutions.size();
  const int n_points = point_count(cfg);
  const std::size_t n_reps = static_cast<std::size_t>(n_points) *
                             static_cast<std::size_t>(cfg.tasksets_per_point);
  const std::size_t n_items = n_reps * n_sol;
  out.attempted += n_items;

  std::vector<const core::Strategy*> strategies;
  for (const auto& key : cfg.solutions)
    strategies.push_back(&core::StrategyRegistry::instance().require(key));

  // The experiment runner's stream layout: per taskset one generator
  // stream, then one solver stream per solution, forked in serial order.
  struct Streams {
    util::Rng gen;
    std::vector<util::Rng> solve;
  };
  util::Rng master(cfg.seed);
  std::vector<Streams> streams(n_reps);
  for (auto& s : streams) {
    s.gen = master.fork();
    for (std::size_t si = 0; si < n_sol; ++si) s.solve.push_back(master.fork());
  }
  std::vector<model::Taskset> tasksets(n_reps);
  std::unique_ptr<std::once_flag[]> once(new std::once_flag[n_reps]);
  std::vector<Item> items(n_items);
  std::vector<Span> spans;
  std::mutex spans_mu;
  const core::SolveConfig solve_cfg = cfg.solve;
  std::vector<std::string> vm_names, hv_names;
  for (const auto& key : cfg.solutions) {
    vm_names.push_back("core.vm_alloc." + key);
    hv_names.push_back("core.hv_alloc." + key);
  }

  util::PhaseProfiler::reset();
  util::PhaseProfiler::set_enabled(true);
  const std::int64_t origin = now_ns();
  const double t0 = now_s();
  {
    util::ThreadPool pool(kJobs);
    for (int pi = 0; pi < n_points; ++pi)
      for (int rep = 0; rep < cfg.tasksets_per_point; ++rep) {
        const std::size_t ti =
            static_cast<std::size_t>(pi) * cfg.tasksets_per_point +
            static_cast<std::size_t>(rep);
        for (std::size_t si = 0; si < n_sol; ++si)
          pool.submit([&, pi, ti, si] {
            ItemSpans sp;
            sp.origin = origin;
            sp.seq = ti * n_sol + si;
            const int root = sp.open("bench.item", -1);
            std::call_once(once[ti], [&] {
              const int g = sp.open("workload.generate", root);
              workload::GeneratorConfig gen;
              gen.grid = cfg.platform.grid;
              gen.target_ref_utilization = cfg.util_lo + cfg.util_step * pi;
              gen.dist = cfg.dist;
              gen.num_vms = cfg.num_vms;
              util::Rng gen_rng = streams[ti].gen;
              tasksets[ti] = workload::generate_taskset(gen, gen_rng);
              sp.close(g);
            });
            // core::solve, step by step, with a span per level.
            model::Taskset inflated = tasksets[ti];
            analysis::inflate_tasks(inflated, solve_cfg.task_inflation);
            util::Rng rng = streams[ti].solve[si];
            core::SolveResult res;
            {
              analysis::AnalysisContext ctx;
              ctx.set_inner_parallelism(nullptr, 1);
              const int v = sp.open(vm_names[si], root);
              auto vcpus = strategies[si]->vm->allocate(
                  inflated, cfg.platform, solve_cfg, ctx, rng);
              sp.close(v);
              if (!vcpus.empty()) {
                analysis::inflate_vcpus(vcpus, solve_cfg.vcpu_inflation);
                const int h = sp.open(hv_names[si], root);
                res.mapping = strategies[si]->hv->allocate(
                    vcpus, cfg.platform, solve_cfg, ctx, rng);
                sp.close(h);
                res.schedulable = res.mapping.schedulable;
                res.vcpus = std::move(vcpus);
              }
              res.counters = ctx.counters();
            }
            sp.close(root);
            Item& item = items[ti * n_sol + si];
            item.schedulable = res.schedulable;
            item.digest = scenario::solve_digest(res);
            item.counters = res.counters;
            std::lock_guard<std::mutex> lk(spans_mu);
            const int offset = static_cast<int>(spans.size());
            for (Span& s : sp.spans) {
              if (s.parent >= 0) s.parent += offset;
              spans.push_back(std::move(s));
            }
          });
      }
    pool.wait();
  }
  const double traced_wall = now_s() - t0;
  util::PhaseProfiler::set_enabled(false);
  const obs::PhaseStats profile = obs::merged_profile();

  // Untimed verification: core::solve on the identical stream must give
  // the same verdict, allocation and effort; certified ones are re-checked.
  std::atomic<std::uint64_t> mismatches{0}, bad_alloc{0};
  std::mutex first_mu;
  std::string first;
  {
    util::ThreadPool pool(kCheckJobs);
    pool.parallel_for(n_items, [&](std::size_t i) {
      const std::size_t ti = i / n_sol, si = i % n_sol;
      util::Rng rng = streams[ti].solve[si];
      const core::SolveResult res = core::solve(
          *strategies[si], tasksets[ti], cfg.platform, solve_cfg, rng);
      std::string why;
      if (res.schedulable != items[i].schedulable ||
          scenario::solve_digest(res) != items[i].digest ||
          !same_effort(res.counters, items[i].counters)) {
        mismatches.fetch_add(1);
        why = "item " + std::to_string(i) + " differs from core::solve";
      } else if (res.schedulable) {
        why = recheck_allocation(res.vcpus, res.mapping, cfg.platform,
                                 tasksets[ti]);
        if (!why.empty()) bad_alloc.fetch_add(1);
      }
      if (!why.empty()) {
        std::lock_guard<std::mutex> lk(first_mu);
        if (first.empty()) first = why;
      }
    });
  }
  out.failed += mismatches + bad_alloc;
  if (mismatches || bad_alloc)
    out.fail(std::to_string(mismatches.load()) + " verdict mismatches, " +
             std::to_string(bad_alloc.load()) + " failed re-checks; first: " +
             first);

  // The traced sweep must reproduce the runner's counts and effort.
  std::vector<std::vector<int>> sched(n_points, std::vector<int>(n_sol, 0));
  std::vector<std::vector<int>> total(n_points, std::vector<int>(n_sol, 0));
  util::AllocCounters effort;
  std::vector<double> existing_dbf;
  for (std::size_t i = 0; i < n_items; ++i) {
    const std::size_t pi = i / n_sol / cfg.tasksets_per_point, si = i % n_sol;
    sched[pi][si] += items[i].schedulable ? 1 : 0;
    total[pi][si] += 1;
    effort.merge(items[i].counters);
    if (cfg.solutions[si] == "existing")
      existing_dbf.push_back(
          static_cast<double>(items[i].counters.dbf_evaluations));
  }
  if (fnv_hex(counts_text(cfg, sched, total)) != digest)
    out.fail("traced sweep counts differ from the experiment runner's");
  if (!same_effort(effort, base.counters))
    out.fail("traced sweep effort counters differ from the runner's");

  // Per-call latencies and layer self time from the spans.
  std::map<std::string, std::vector<double>> durations_us;
  for (const Span& s : spans)
    durations_us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                   1e3);
  out.set("workload.generate_us_p50",
          quantile(durations_us["workload.generate"], 0.5));
  for (std::size_t si = 0; si < n_sol; ++si)
    for (const auto* names : {&vm_names, &hv_names}) {
      const auto& d = durations_us[(*names)[si]];
      out.set((*names)[si] + ".us_p50", quantile(d, 0.5));
      out.set((*names)[si] + ".us_p99", quantile(d, 0.99));
      out.note((*names)[si] + ".n", std::to_string(d.size()));
    }
  const auto self = self_time_ns(spans);
  double self_sum = 0;
  for (const auto& [name, ns] : self) {
    self_sum += ns / 1e9;
    out.note("self." + name + "_s", std::to_string(ns / 1e9));
  }
  const double roots = root_time_ns(spans) / 1e9;
  if (std::abs(self_sum - roots) > 1e-6 * std::max(1.0, roots))
    out.fail("span self times do not add up to the root spans");
  out.set("trace.self_sum_s", self_sum);
  out.set("trace.capacity_s", kJobs * traced_wall);
  out.set("trace.remainder_s", kJobs * traced_wall - self_sum);
  out.set("trace.traced_wall_s", traced_wall);
  out.set("trace.untraced_wall_s", base.wall);
  out.set("trace.overhead_frac", traced_wall / base.wall - 1);

  set_effort_metrics(base.counters, out);
  out.set("core.kmeans.self_s", profile_seconds(profile, "cluster", true));
  out.set("analysis.min_budget_self_s",
          profile_seconds(profile, "min_budget", true) +
              profile_seconds(profile, "min_budget_surface", true) +
              profile_seconds(profile, "checkpoints", true));
  out.set("core.hv_alloc.phase1_s",
          profile_seconds(profile, "phase1_pack", false));
  out.set("core.hv_alloc.phase2_s",
          profile_seconds(profile, "phase2_resources", false));
  out.set("core.hv_alloc.phase3_s",
          profile_seconds(profile, "phase3_balance", false));

  // Paper-fidelity readout (Fig. 4): existing-CSA against overhead-free
  // solve time, from the runner's per-solution analysis seconds.
  auto mean_ms = [&](const std::string& key) {
    double sec = 0, n = 0;
    for (std::size_t si = 0; si < n_sol; ++si)
      if (cfg.solutions[si] == key)
        for (const auto& pt : base.result.points) {
          sec += pt.per_solution[si].total_seconds;
          n += pt.per_solution[si].total;
        }
    return n > 0 ? sec / n * 1e3 : 0;
  };
  const double existing_ms = mean_ms("existing"), ovf_ms = mean_ms("ovf");
  out.set("analysis.existing_solve_ms_mean", existing_ms);
  out.set("analysis.ovf_solve_ms_mean", ovf_ms);
  out.set("analysis.existing_over_ovf", Ratio{existing_ms, ovf_ms}.value());
  double dbf_sum = 0;
  for (const double d : existing_dbf) dbf_sum += d;
  out.set("analysis.existing_solves", static_cast<double>(existing_dbf.size()));
  out.set("analysis.dbf_per_existing_solve",
          Ratio{dbf_sum, static_cast<double>(existing_dbf.size())}.value());

  const auto& pool = base.result.pool;
  out.set("util.pool.executed", static_cast<double>(pool.total_executed()));
  out.set("util.pool.steals", static_cast<double>(pool.total_steals()));
  out.set("util.pool.idle_s", static_cast<double>(pool.total_idle_ns()) / 1e9);

  obs::BenchReport report;
  report.name = "vbench-sweep-fig4";
  report.git_rev = obs::build_git_rev();
  obs::set_counters(report, base.counters);
  report.phases = profile;
  report.histograms["solve_seconds"] =
      obs::HistogramSummary::of(base.result.solve_seconds);
  report.pool = obs::PoolSummary::of(pool);
  const double w0 = now_s();
  obs::write_bench_report_file(args.dir + "/sweep-report.json", report);
  out.set("obs.report_write_ms", (now_s() - w0) * 1e3);
  out.note("sub_seed0_digest", digest);
}

}  // namespace

void setup_sweep(const Args& args) {
  const core::ExperimentConfig cfg = sweep_config(args, nullptr);
  for (const auto& key : cfg.solutions)
    core::StrategyRegistry::instance().require(key);
  workload::parsec_suite();
}

void run_sweep(const Args& args, Result& out) {
  setup_sweep(args);
  if (args.trace) run_traced(args, out);
  else run_untraced(args, out);
}

}  // namespace vbench

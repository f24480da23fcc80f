// End-to-end validation: workloads generated per §5.1 are allocated by the
// paper's solutions and then *executed* on the simulated prototype; a
// mapping the analysis certifies must produce zero deadline misses.
#include <gtest/gtest.h>

#include <tuple>

#include "core/solutions.h"
#include "model/platform.h"
#include "obs/trace_check.h"
#include "sim/deploy.h"
#include "sim/profiling.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m {
namespace {

using util::Rng;
using util::Time;

model::Taskset generated(double util, std::uint64_t seed, int vms = 1) {
  workload::GeneratorConfig cfg;
  cfg.grid = model::PlatformSpec::A().grid;
  cfg.target_ref_utilization = util;
  cfg.num_vms = vms;
  Rng rng(seed);
  return workload::generate_taskset(cfg, rng);
}

Time sim_horizon(const model::Taskset& tasks) {
  // Two hyperperiods (harmonic => the largest period) of steady state.
  return model::hyperperiod(tasks) * 2;
}

/// Every captured trace must satisfy the scheduling invariants (single
/// occupancy, no execution while throttled, budget compliance, release /
/// completion matching).
void expect_trace_invariants(const sim::Simulation& simulation,
                             Time horizon) {
  const auto res = obs::check_trace(
      simulation.trace().events(),
      obs::TraceCheckConfig::from_sim(simulation.config(), horizon));
  EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                ? res.summary()
                                : res.violations[0].what);
}

// ---------------- certified mappings execute without misses ----------------

class CertifiedExecutionTest
    : public ::testing::TestWithParam<std::tuple<core::Solution, int>> {};

TEST_P(CertifiedExecutionTest, NoDeadlineMissesUnderCpuOnlyExecution) {
  const auto [solution, seed] = GetParam();
  const auto platform = model::PlatformSpec::A();
  // The first taskset the solution certifies, searched deterministically:
  // seeds step by 4 from the parameter's (the four parameters walk
  // disjoint streams) while the target utilization steps down from 0.9,
  // since Baseline analyzes the cache-less maximum WCETs and certifies
  // only light tasksets. An exhausted search fails rather than skips.
  constexpr int kSearch = 64;
  model::Taskset tasks;
  core::SolveResult res;
  std::uint64_t s = static_cast<std::uint64_t>(seed);
  for (int attempt = 0; attempt < kSearch; ++attempt, s += 4) {
    tasks = generated(0.9 - 0.0125 * attempt, 100 + s);
    Rng rng(200 + s);
    res = core::solve(solution, tasks, platform, {}, rng);
    if (res.schedulable) break;
  }
  ASSERT_TRUE(res.schedulable)
      << core::to_string(solution) << ": no certified taskset in "
      << kSearch << " seeds";

  sim::DeployConfig dc;
  dc.exec = sim::ExecModel::kCpuOnly;
  dc.capture_trace = true;
  sim::Simulation simulation(
      sim::deploy(tasks, res.vcpus, res.mapping, platform, dc));
  simulation.run(sim_horizon(tasks));
  const auto stats = simulation.stats();
  EXPECT_EQ(stats.deadline_misses, 0u) << core::to_string(solution);
  EXPECT_GT(stats.jobs_completed, 0u);
  expect_trace_invariants(simulation, sim_horizon(tasks));
}

INSTANTIATE_TEST_SUITE_P(
    SolutionsBySeeds, CertifiedExecutionTest,
    ::testing::Combine(::testing::ValuesIn(core::all_solutions()),
                       ::testing::Range(0, 4)),
    [](const auto& info) {
      const core::Solution solution = std::get<0>(info.param);
      const int seed = std::get<1>(info.param);
      std::string name;
      switch (solution) {
        case core::Solution::kHeuristicFlattening: name = "Flat"; break;
        case core::Solution::kHeuristicOverheadFree: name = "OvfFree"; break;
        case core::Solution::kHeuristicExistingCsa: name = "Existing"; break;
        case core::Solution::kEvenPartitionOverheadFree: name = "Even"; break;
        case core::Solution::kBaselineExistingCsa: name = "Baseline"; break;
      }
      return name + "_seed" + std::to_string(seed);
    });

TEST(CertifiedExecution, MultiVmWorkloadRunsClean) {
  const auto platform = model::PlatformSpec::B();
  const auto tasks = generated(1.2, 7, /*vms=*/3);
  Rng rng(8);
  const auto res = core::solve(core::Solution::kHeuristicOverheadFree, tasks,
                               platform, {}, rng);
  ASSERT_TRUE(res.schedulable);
  sim::DeployConfig dc;
  dc.capture_trace = true;
  sim::Simulation simulation(
      sim::deploy(tasks, res.vcpus, res.mapping, platform, dc));
  simulation.run(sim_horizon(tasks));
  EXPECT_EQ(simulation.stats().deadline_misses, 0u);
  expect_trace_invariants(simulation, sim_horizon(tasks));
}

TEST(CertifiedExecution, FlatteningWithReleaseSyncAndTaskOffsets) {
  // Theorem 1 end to end: tasks with non-zero first releases; the
  // hypercall-based synchronization keeps every VCPU aligned to its task.
  const auto platform = model::PlatformSpec::A();
  auto tasks = generated(0.7, 9);
  Rng rng(10);
  const auto res = core::solve(core::Solution::kHeuristicFlattening, tasks,
                               platform, {}, rng);
  ASSERT_TRUE(res.schedulable);

  sim::DeployConfig dc;
  dc.release_sync = true;
  dc.capture_trace = true;
  auto cfg = sim::deploy(tasks, res.vcpus, res.mapping, platform, dc);
  // Stagger the task releases; the VCPUs must follow via hypercalls.
  Rng offsets(11);
  for (auto& t : cfg.tasks)
    t.offset = Time::ms(offsets.uniform_int(0, 50));
  sim::Simulation simulation(std::move(cfg));
  simulation.run(sim_horizon(tasks) + Time::ms(100));
  const auto stats = simulation.stats();
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_GE(simulation.trace().count(sim::TraceKind::kHypercall),
            tasks.size());
  expect_trace_invariants(simulation, sim_horizon(tasks) + Time::ms(100));
}

TEST(CertifiedExecution, DeployRejectsUnschedulableMapping) {
  const auto tasks = generated(0.5, 12);
  core::HvAllocResult bogus;  // schedulable == false
  EXPECT_THROW(sim::deploy(tasks, {}, bogus, model::PlatformSpec::A(), {}),
               util::Error);
}

// ------------- physical execution with sim-profiled surfaces ---------------

TEST(PhysicalExecution, ProfiledSurfacesCertifyAndRunClean) {
  // Tiny platform so the full profiling sweep stays fast: 2 cores, 4 cache
  // partitions, 3 bandwidth partitions.
  model::PlatformSpec platform;
  platform.name = "tiny";
  platform.cores = 2;
  platform.grid = model::ResourceGrid{2, 4, 1, 3};

  sim::ProfilingConfig pc;
  pc.cache_partitions = platform.grid.c_max;
  pc.jobs = 6;

  const char* benchmarks[] = {"swaptions", "ferret", "bodytrack"};
  model::Taskset tasks;
  std::vector<sim::WorkloadModel> workloads;
  const Time periods[] = {Time::ms(100), Time::ms(200), Time::ms(200)};
  const Time refs[] = {Time::ms(20), Time::ms(10), Time::ms(15)};
  for (int i = 0; i < 3; ++i) {
    const auto w = sim::workload_from_profile(
        workload::find_profile(benchmarks[i]), refs[i], pc);
    model::Task t;
    t.period = periods[i];
    t.wcet = sim::profile_surface(w, platform.grid, pc);  // §5.1 methodology
    t.max_wcet = t.wcet.at(platform.grid.c_min, platform.grid.b_min) * 2;
    t.label = benchmarks[i];
    tasks.push_back(std::move(t));
    workloads.push_back(w);
  }

  Rng rng(13);
  // Solo profiling cannot see cross-core bus bursts within a regulation
  // period; the paper's §4.1 Remarks account for such residual intra-core
  // overheads by inflating task WCETs before allocation. A few regulation
  // periods of margin cover the boundary effects here.
  core::SolveConfig sc;
  sc.task_inflation = Time::ms(3);
  const auto res = core::solve(core::Solution::kHeuristicFlattening, tasks,
                               platform, sc, rng);
  ASSERT_TRUE(res.schedulable);

  sim::DeployConfig dc;
  dc.exec = sim::ExecModel::kPhysical;
  dc.workloads = workloads;
  dc.requests_per_partition = pc.requests_per_partition;
  dc.regulation_period = pc.regulation_period;
  dc.capture_trace = true;
  sim::Simulation simulation(
      sim::deploy(tasks, res.vcpus, res.mapping, platform, dc));
  simulation.run(Time::sec(2));
  const auto stats = simulation.stats();
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_GT(stats.jobs_completed, 10u);
  expect_trace_invariants(simulation, Time::sec(2));
}

}  // namespace
}  // namespace vc2m

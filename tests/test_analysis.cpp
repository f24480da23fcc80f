#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "analysis/dbf.h"
#include "analysis/prm.h"
#include "analysis/regulated.h"
#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "model/task.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vc2m::analysis {
namespace {

using model::ResourceGrid;
using model::Surface;
using model::Task;
using model::Taskset;
using model::WcetFn;
using util::Time;

ResourceGrid grid() { return ResourceGrid{2, 4, 1, 3}; }

Surface flat_slowdown(double worst = 2.0) {
  Surface s(grid());
  for (unsigned c = 2; c <= 4; ++c)
    for (unsigned b = 1; b <= 3; ++b) {
      const double frac =
          (static_cast<double>(4 - c) / 2.0 + static_cast<double>(3 - b) / 2.0) / 2.0;
      s.set(c, b, 1.0 + (worst - 1.0) * frac);
    }
  return s;
}

Task make_task(Time period, Time ref_wcet, int vm = 0) {
  Task t;
  t.period = period;
  t.wcet = WcetFn::from_slowdown(ref_wcet, flat_slowdown());
  t.max_wcet = ref_wcet * 2;
  t.vm = vm;
  return t;
}

// ----------------------------------------------------------------- dbf ----

TEST(Dbf, ImplicitDeadlineDemand) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(20), Time::ms(5)}};
  EXPECT_EQ(dbf(ts, Time::ms(5)), Time::zero());
  EXPECT_EQ(dbf(ts, Time::ms(10)), Time::ms(2));
  EXPECT_EQ(dbf(ts, Time::ms(20)), Time::ms(2 * 2 + 5));
  EXPECT_EQ(dbf(ts, Time::ms(40)), Time::ms(4 * 2 + 2 * 5));
}

TEST(Dbf, TotalUtilization) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(20), Time::ms(5)}};
  EXPECT_DOUBLE_EQ(total_utilization(ts), 0.45);
}

TEST(Dbf, CheckpointsAreDeadlinesUpToHorizon) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)},
                              {Time::ms(25), Time::ms(1)}};
  const auto pts = dbf_checkpoints(ts, Time::ms(50));
  const std::vector<Time> expected{Time::ms(10), Time::ms(20), Time::ms(25),
                                   Time::ms(30), Time::ms(40), Time::ms(50)};
  EXPECT_EQ(pts, expected);
}

TEST(Dbf, HyperperiodLcm) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)},
                              {Time::ms(25), Time::ms(1)}};
  EXPECT_EQ(hyperperiod(ts), Time::ms(50));
}

TEST(Dbf, CheckpointCapRejectsPathologicalPeriodHorizonRatios) {
  // A 1 ns period against a 100 ms horizon means 10⁸ pre-dedup points
  // (~800 MB of Time values). The cap must refuse before allocating, for
  // both the reference enumerator and the SoA k-way merge.
  const std::vector<PTask> ts{{Time::ns(1), Time::ns(1)},
                              {Time::ms(10), Time::ms(1)}};
  EXPECT_THROW(dbf_checkpoints(ts, Time::ms(100)), util::Error);

  const std::vector<std::int64_t> periods{1, Time::ms(10).raw_ns()};
  std::vector<Time> out;
  EXPECT_THROW(merge_checkpoints(periods, Time::ms(100), out), util::Error);

  // Just under the cap still works: a single 1 us period over 1 s is 10⁶
  // points, well inside 2²².
  const std::vector<PTask> ok{{Time::us(1), Time::ns(10)}};
  EXPECT_EQ(dbf_checkpoints(ok, Time::sec(1)).size(), 1'000'000u);
}

TEST(Dbf, SoaKernelsMatchReferenceKernels) {
  // TaskArrays + merge_checkpoints + demand_at must reproduce the
  // reference span-of-PTask kernels exactly on an awkward period mix
  // (duplicates, coprime pairs, a task whose period exceeds the horizon).
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(10), Time::ms(1)},
                              {Time::ms(15), Time::ms(4)},
                              {Time::ms(7), Time::us(1500)},
                              {Time::sec(2), Time::ms(100)}};
  TaskArrays soa;
  soa.assign(ts);
  EXPECT_DOUBLE_EQ(soa.total_util, total_utilization(ts));
  EXPECT_EQ(soa.hyperperiod(), hyperperiod(ts));

  const Time horizon = Time::ms(420);
  const auto ref_points = dbf_checkpoints(ts, horizon);
  std::vector<Time> points;
  merge_checkpoints(soa.period, horizon, points);
  EXPECT_EQ(points, ref_points);

  std::vector<Time> demand(points.size());
  demand_at(soa.period, soa.wcet, points, demand);
  for (std::size_t k = 0; k < points.size(); ++k)
    EXPECT_EQ(demand[k], dbf(ts, points[k])) << "at " << points[k];
}

// ----------------------------------------------------------------- PRM ----

TEST(Prm, SbfOfFullProcessorIsIdentity) {
  const Prm prm{Time::ms(10), Time::ms(10)};
  for (int t = 0; t <= 40; t += 3)
    EXPECT_EQ(prm.sbf(Time::ms(t)), Time::ms(t));
}

TEST(Prm, SbfWorstCaseDelayAndRamps) {
  // Π = 10, Θ = 4: no supply before 2(Π−Θ) = 12, then ramps of length Θ.
  const Prm prm{Time::ms(10), Time::ms(4)};
  EXPECT_EQ(prm.sbf(Time::ms(6)), Time::zero());
  EXPECT_EQ(prm.sbf(Time::ms(12)), Time::zero());
  EXPECT_EQ(prm.sbf(Time::ms(14)), Time::ms(2));
  EXPECT_EQ(prm.sbf(Time::ms(16)), Time::ms(4));  // one full chunk
  EXPECT_EQ(prm.sbf(Time::ms(22)), Time::ms(4));  // plateau
  EXPECT_EQ(prm.sbf(Time::ms(26)), Time::ms(8));
}

TEST(Prm, SbfIsMonotoneAndDominatesLsbf) {
  const Prm prm{Time::ms(10), Time::ms(55) - Time::ms(49)};  // Θ = 6ms
  Time prev = Time::zero();
  for (int t = 0; t <= 100; ++t) {
    const Time s = prm.sbf(Time::ms(t));
    EXPECT_GE(s, prev);
    EXPECT_GE(static_cast<double>(s.raw_ns()) + 1e-6, prm.lsbf(Time::ms(t)));
    prev = s;
  }
}

/// The least Θ ∈ [0, Π] with d ≤ sbf_Θ(t) by bisection over Prm::sbf, or
/// nullopt when Θ = Π falls short: the oracle for sbf_min_budget.
std::optional<Time> bisect_point_budget(Time pi, Time t, Time d) {
  const auto ok = [&](Time th) { return d <= Prm{pi, th}.sbf(t); };
  if (!ok(pi)) return std::nullopt;
  Time lo = Time::zero(), hi = pi;
  while (lo < hi) {
    const Time mid = Time::ns(lo.raw_ns() + (hi.raw_ns() - lo.raw_ns()) / 2);
    if (ok(mid))
      hi = mid;
    else
      lo = mid + Time::ns(1);
  }
  return hi;
}

TEST(Prm, SbfIsMonotoneInBudgetExhaustively) {
  // The one-pass min-budget search is exact only because sbf_Θ(t) never
  // falls as Θ grows; check every Θ and t for every small Π.
  for (std::int64_t pi = 1; pi <= 48; ++pi)
    for (std::int64_t t = 0; t <= 4 * pi; ++t) {
      Time prev = Time::zero();
      for (std::int64_t th = 0; th <= pi; ++th) {
        const Time s = Prm{Time::ns(pi), Time::ns(th)}.sbf(Time::ns(t));
        ASSERT_GE(s, prev) << "Π=" << pi << " Θ=" << th << " t=" << t;
        prev = s;
      }
    }
}

TEST(Prm, PointBudgetInversionMatchesBisectionExhaustively) {
  for (std::int64_t pi = 1; pi <= 48; ++pi)
    for (std::int64_t t = 0; t <= 4 * pi; ++t)
      for (std::int64_t d = 0; d <= 4 * pi + 1; ++d)
        ASSERT_EQ(sbf_min_budget(Time::ns(pi), Time::ns(t), Time::ns(d)),
                  bisect_point_budget(Time::ns(pi), Time::ns(t), Time::ns(d)))
            << "Π=" << pi << " t=" << t << " d=" << d;
}

TEST(Prm, PointBudgetInversionMatchesBisectionAtNanosecondScale) {
  // Realistic magnitudes (Π up to 100 ms, t up to 1000 periods), where the
  // closed form's floating-point crossing estimate is least exact.
  util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const Time pi = Time::ns(rng.uniform_int(1, 100'000'000));
    const Time t = Time::ns(rng.uniform_int(0, 1000 * pi.raw_ns()));
    const Time d =
        Time::ns(static_cast<std::int64_t>(rng.uniform(0.0, 1.05) *
                                           static_cast<double>(t.raw_ns())));
    ASSERT_EQ(sbf_min_budget(pi, t, d), bisect_point_budget(pi, t, d))
        << "Π=" << pi.raw_ns() << " t=" << t.raw_ns() << " d=" << d.raw_ns();
  }
}

TEST(Prm, PaperExampleTask10_1NeedsBudget5_5) {
  // The motivating example of §1: a single task (p=10, e=1) requires a
  // minimum PRM budget of 5.5 at Π = 10 — 55× the task's utilization.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_EQ(*theta, Time::us(5'500));
}

TEST(Prm, MinBudgetIsTightAtTheSchedulabilityBoundary) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(20), Time::ms(4)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_TRUE(edf_schedulable_on_prm(ts, {Time::ms(10), *theta}));
  EXPECT_FALSE(edf_schedulable_on_prm(
      ts, {Time::ms(10), *theta - Time::ns(1)}));
}

TEST(Prm, MinBudgetAtLeastUtilizationShare) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(3)},
                              {Time::ms(40), Time::ms(8)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_GE(theta->ratio(Time::ms(10)), total_utilization(ts) - 1e-12);
}

TEST(Prm, OverloadedTasksetHasNoBudget) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(8)},
                              {Time::ms(10), Time::ms(8)}};
  EXPECT_FALSE(min_budget_edf(ts, Time::ms(10)).has_value());
}

TEST(Prm, EmptyTasksetNeedsNothing) {
  const std::vector<PTask> ts;
  EXPECT_EQ(min_budget_edf(ts, Time::ms(10)), Time::zero());
  EXPECT_TRUE(edf_schedulable_on_prm(ts, {Time::ms(10), Time::zero()}));
}

TEST(Prm, FullBandwidthTasksetNeedsFullProcessor) {
  // U = 1 requires Θ = Π (any supply gap breaks it).
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(10)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_EQ(*theta, Time::ms(10));
}

TEST(Prm, MinBudgetOnCurveMatchesReferenceSearchEverywhere) {
  // The fast path (precomputed checkpoints + demand, then the identical
  // binary search) must return the reference minimum bit-for-bit across a
  // spread of periods, utilizations, and infeasible sets.
  const Time pi = Time::ms(10);
  std::vector<std::vector<PTask>> cases;
  cases.push_back({});  // empty set
  cases.push_back({{Time::ms(10), Time::ms(10)}});  // U = 1 exactly
  cases.push_back({{Time::ms(10), Time::ms(11)}});  // infeasible
  cases.push_back({{Time::ms(100), Time::us(137)}});
  cases.push_back({{Time::ms(10), Time::ms(2)},
                   {Time::ms(15), Time::ms(3)},
                   {Time::ms(35), Time::us(4200)}});
  cases.push_back({{Time::ms(7), Time::us(900)},
                   {Time::ms(21), Time::ms(5)},
                   {Time::ms(12), Time::us(3100)},
                   {Time::ms(12), Time::us(250)}});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& ts = cases[i];
    const auto ref = min_budget_edf(ts, pi);

    std::optional<Time> fast;
    if (ts.empty()) {
      fast = min_budget_on_curve(DemandCurve{}, 0.0, pi);
    } else {
      TaskArrays soa;
      soa.assign(ts);
      std::vector<Time> points;
      if (soa.total_util <= 1.0 + 1e-12)
        merge_checkpoints(soa.period, util::lcm(soa.hyperperiod(), pi),
                          points);
      std::vector<Time> demand(points.size());
      demand_at(soa.period, soa.wcet, points, demand);
      fast = min_budget_on_curve(DemandCurve{points, demand}, soa.total_util,
                                 pi);
    }
    ASSERT_EQ(fast.has_value(), ref.has_value()) << "case " << i;
    if (ref) {
      EXPECT_EQ(*fast, *ref) << "case " << i;
    }
  }
}

// ------------------------------------------ AnalysisContext kernel oracle ---
//
// Every solver asks AnalysisContext for minimum budgets; min_budget_edf (the
// span-of-PTask reference kernel) is the oracle it must reproduce exactly.

/// A random task group: 1–5 tasks, periods from a divisor-rich set (small
/// hyperperiods keep the reference kernel cheap), total utilization spread
/// over (0.05, 1.15) so feasible, tight and over-utilized groups all occur.
std::vector<PTask> random_group(util::Rng& rng) {
  static const std::int64_t kPeriodsMs[] = {5, 10, 15, 20, 30, 40, 60};
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 5));
  const double u = rng.uniform(0.05, 1.15);
  std::vector<PTask> g(n);
  for (auto& t : g) {
    t.period = Time::ms(kPeriodsMs[rng.index(std::size(kPeriodsMs))]);
    const double share = u / static_cast<double>(n) * rng.uniform(0.5, 1.5);
    t.wcet = Time::us(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(share * t.period.to_ms() * 1000.0)));
  }
  return g;
}

/// A VCPU period: the group's shortest task period (what the allocator
/// uses), or a random one from the same set.
Time random_period(util::Rng& rng, const std::vector<PTask>& g) {
  if (rng.bernoulli(0.5)) return Time::ms(5 * rng.uniform_int(1, 4));
  Time pi = g.front().period;
  for (const auto& t : g) pi = util::min(pi, t.period);
  return pi;
}

TEST(AnalysisContextOracle, MinBudgetMatchesReferenceKernel) {
  int feasible = 0, infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    AnalysisContext ctx;
    for (int i = 0; i < 40; ++i) {
      const auto g = random_group(rng);
      const Time pi = random_period(rng, g);
      const auto ref = min_budget_edf(g, pi);
      EXPECT_EQ(ctx.min_budget(g, pi), ref) << "seed " << seed << " #" << i;
      EXPECT_EQ(ctx.min_budget(g, pi), ref) << "memo hit, seed " << seed;
      if (ref)
        ++feasible;
      else
        ++infeasible;
    }
  }
  // Both outcomes must be exercised, or the comparison proves little.
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(AnalysisContextOracle, BatchMatchesReferenceAndSerialCounters) {
  util::ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const Time pi = Time::ms(5 * rng.uniform_int(1, 4));
    std::vector<std::vector<PTask>> groups(48);
    for (auto& g : groups) g = random_group(rng);
    groups.push_back({});  // the empty group needs no budget
    // Repeat a third of the queries inside the same batch.
    for (int r = 0; r < 16; ++r) {
      auto repeat = groups[rng.index(groups.size())];
      groups.push_back(std::move(repeat));
    }
    const std::vector<std::span<const PTask>> queries(groups.begin(),
                                                      groups.end());

    // Contexts own nesting counter scopes, so the serial one is closed
    // before the batch contexts open (else their counts would merge in).
    std::vector<std::optional<Time>> expected;
    util::AllocCounters serial;
    {
      AnalysisContext ctx;
      for (const auto& q : queries) {
        expected.push_back(min_budget_edf(q, pi));
        EXPECT_EQ(ctx.min_budget(q, pi), expected.back());
      }
      serial = ctx.counters();
    }
    ASSERT_GT(serial.budget_cache_hits, 0u);

    for (const int inner : {1, 4}) {
      AnalysisContext ctx;
      ctx.set_inner_parallelism(&pool, inner);
      const auto res = ctx.min_budget_batch(queries, pi);
      ASSERT_EQ(res.size(), queries.size());
      std::uint64_t searched = 0;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(res[q].theta, expected[q])
            << "seed " << seed << " inner " << inner << " query " << q;
        searched += res[q].searched ? 1 : 0;
      }
      EXPECT_EQ(searched, ctx.counters().budget_evaluations);
      EXPECT_EQ(ctx.counters().budget_evaluations, serial.budget_evaluations)
          << "seed " << seed << " inner " << inner;
      EXPECT_EQ(ctx.counters().budget_cache_hits, serial.budget_cache_hits)
          << "seed " << seed << " inner " << inner;
    }
  }
}

/// A task group for the one-pass search oracle: 1–6 tasks on non-harmonic
/// µs periods with a small hyperperiod (1.8 ms), frequent duplicate periods,
/// ns-granular wcets and total utilization spread over (0.05, 1.15).
std::vector<PTask> awkward_group(util::Rng& rng) {
  static const std::int64_t kPeriodsUs[] = {40, 60, 90, 100, 120, 150, 180,
                                            200};
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
  const double u = rng.uniform(0.05, 1.15);
  std::vector<PTask> g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i].period = i > 0 && rng.bernoulli(0.25)
                      ? g[rng.index(i)].period
                      : Time::us(kPeriodsUs[rng.index(std::size(kPeriodsUs))]);
    const double share = u / static_cast<double>(n) * rng.uniform(0.5, 1.5);
    g[i].wcet = Time::ns(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(share *
                                     static_cast<double>(g[i].period.raw_ns()))));
  }
  return g;
}

TEST(Prm, OnePassMinBudgetMatchesReferenceOnRandomGroups) {
  // The one-pass search (and the step-list demand feeding it) against the
  // reference bisection, on groups where Π divides no period half the time.
  static const std::int64_t kVcpuPeriodsUs[] = {25, 45, 50, 70, 75, 80};
  util::Rng rng(2024);
  int feasible = 0, infeasible = 0, later_raises = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto g = awkward_group(rng);
    Time pi = g.front().period;
    for (const auto& t : g) pi = util::min(pi, t.period);
    if (rng.bernoulli(0.5))
      pi = Time::us(kVcpuPeriodsUs[rng.index(std::size(kVcpuPeriodsUs))]);

    TaskArrays soa;
    soa.assign(g);
    DemandSteps steps;
    steps.assign(soa.period, util::lcm(soa.hyperperiod(), pi));
    std::vector<Time> ref_demand(steps.points.size());
    demand_at(soa.period, soa.wcet, steps.points, ref_demand);
    std::vector<std::int64_t> slot_wcet(steps.slots);
    std::vector<Time> demand(steps.points.size());
    steps.demand(g, slot_wcet, demand);
    ASSERT_EQ(demand, ref_demand) << "group " << i;

    const auto ref = min_budget_edf(g, pi);
    const auto got = min_budget_on_curve(DemandCurve{steps.points, demand},
                                         soa.total_util, pi);
    ASSERT_EQ(got, ref) << "group " << i << " Π=" << pi.raw_ns();
    if (!ref) {
      ++infeasible;
      continue;
    }
    ++feasible;
    // Θ after the rate condition and the first checkpoint: a larger result
    // means a later checkpoint raised it.
    Time first = Time::ns(static_cast<std::int64_t>(
        soa.total_util * static_cast<double>(pi.raw_ns())));
    while (!(soa.total_util <= Prm{pi, first}.bandwidth() + 1e-12))
      first += Time::ns(1);
    first = util::max(first, *sbf_min_budget(pi, steps.points.front(),
                                             demand.front()));
    if (*got > first) ++later_raises;
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(later_raises, 0);
}

// A parameterized sweep: the abstraction overhead (Θ/Π vs utilization) of a
// single task (p, e) grows as utilization shrinks — the phenomenon vC2M
// eliminates.
class AbstractionOverheadTest : public ::testing::TestWithParam<int> {};

TEST_P(AbstractionOverheadTest, BudgetExceedsUtilizationShare) {
  const Time p = Time::ms(10);
  const Time e = Time::us(GetParam());
  const std::vector<PTask> ts{{p, e}};
  const auto theta = min_budget_edf(ts, p);
  ASSERT_TRUE(theta.has_value());
  const double bandwidth = theta->ratio(p);
  const double util = e.ratio(p);
  EXPECT_GE(bandwidth, util);
  // (Π + e)/2 is the analytic minimum for a single task with Π = p:
  // sbf(p) = 2Θ − (Π − ... ) ⇒ Θ = (p + e)/2.
  EXPECT_EQ(*theta, Time::ns((p.raw_ns() + e.raw_ns()) / 2));
}

INSTANTIATE_TEST_SUITE_P(Utilizations, AbstractionOverheadTest,
                         ::testing::Values(100, 500, 1000, 2000, 5000, 9000));

// ---------------------------------------------------- regulated supply ----

TEST(RegulatedSupply, SbfExposesOneGapOnly) {
  // Π = 10, Θ = 4: within one period the worst window loses Π−Θ = 6.
  const RegulatedSupply wr{Time::ms(10), Time::ms(4)};
  EXPECT_EQ(wr.sbf(Time::ms(6)), Time::zero());
  EXPECT_EQ(wr.sbf(Time::ms(8)), Time::ms(2));
  EXPECT_EQ(wr.sbf(Time::ms(10)), Time::ms(4));  // full period: exactly Θ
  EXPECT_EQ(wr.sbf(Time::ms(20)), Time::ms(8));
  EXPECT_EQ(wr.sbf(Time::ms(26)), Time::ms(8));  // gap inside period 3
  EXPECT_EQ(wr.sbf(Time::ms(28)), Time::ms(10));
}

TEST(RegulatedSupply, DominatesPrmSupplyEverywhere) {
  for (int theta_ms = 1; theta_ms <= 10; ++theta_ms) {
    const RegulatedSupply wr{Time::ms(10), Time::ms(theta_ms)};
    const Prm prm{Time::ms(10), Time::ms(theta_ms)};
    for (int t = 0; t <= 100; ++t)
      EXPECT_GE(wr.sbf(Time::ms(t)), prm.sbf(Time::ms(t)))
          << "theta " << theta_ms << " t " << t;
  }
}

TEST(RegulatedSupply, SbfIsMonotone) {
  const RegulatedSupply wr{Time::ms(7), Time::ms(3)};
  Time prev = Time::zero();
  for (int t = 0; t < 70; ++t) {
    const Time s = wr.sbf(Time::us(t * 500));
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(RegulatedSupply, HarmonicAlignedNeedsOnlyUtilizationBandwidth) {
  // Theorem 2's interface passes the general regulated test: a harmonic
  // taskset with Π = min period and Θ = Π·U is schedulable.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)},
                              {Time::ms(20), Time::ms(3)},
                              {Time::ms(40), Time::ms(4)}};
  const Time theta = Time::us(3'500);  // 10ms · 0.35
  EXPECT_TRUE(edf_schedulable_on_regulated(ts, {Time::ms(10), theta}));
  // And it is tight: one nanosecond less fails at the hyperperiod.
  EXPECT_FALSE(edf_schedulable_on_regulated(
      ts, {Time::ms(10), theta - Time::ns(1)}));
}

TEST(RegulatedSupply, MinBudgetNeverExceedsPrmMinBudget) {
  const std::vector<std::vector<PTask>> cases = {
      {{Time::ms(10), Time::ms(1)}},
      {{Time::ms(10), Time::ms(2)}, {Time::ms(20), Time::ms(4)}},
      {{Time::ms(15), Time::ms(3)}, {Time::ms(10), Time::ms(1)}},
  };
  for (const auto& ts : cases) {
    const auto wr = min_budget_regulated(ts, Time::ms(10));
    const auto prm = min_budget_edf(ts, Time::ms(10));
    ASSERT_TRUE(wr.has_value());
    ASSERT_TRUE(prm.has_value());
    EXPECT_LE(*wr, *prm);
  }
}

TEST(RegulatedSupply, MotivatingExampleNeedsLessThanPrm) {
  // (p=10, e=1): PRM needs Θ = 5.5; a well-regulated VCPU needs only
  // Θ with sbf(10) = Θ − ... : 10 − (10−Θ) ≥ 1 → Θ ≥ 1... but dbf at
  // 10 requires sbf(10) = Θ ≥ 1, so Θ = 1: fully overhead-free.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)}};
  const auto wr = min_budget_regulated(ts, Time::ms(10));
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(*wr, Time::ms(1));
}

TEST(RegulatedSupply, NonHarmonicTasksStillBenefit) {
  // Periods 10 and 15 are not harmonic, so Theorem 2 does not apply, but
  // the regulated supply still beats the PRM abstraction.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(15), Time::ms(3)}};
  const auto wr = min_budget_regulated(ts, Time::ms(5));
  const auto prm = min_budget_edf(ts, Time::ms(5));
  ASSERT_TRUE(wr.has_value());
  ASSERT_TRUE(prm.has_value());
  EXPECT_LT(*wr, *prm);
}

TEST(RegulatedSupply, OverloadRejected) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(6)},
                              {Time::ms(10), Time::ms(6)}};
  EXPECT_FALSE(min_budget_regulated(ts, Time::ms(10)).has_value());
}

// ------------------------------------------------------------ theorems ----

TEST(Theorem1, FlattenedVcpuMirrorsTask) {
  const auto t = make_task(Time::ms(10), Time::ms(1));
  const auto v = flattened_vcpu(t, 7);
  EXPECT_EQ(v.period, t.period);
  EXPECT_EQ(v.tasks, (std::vector<std::size_t>{7}));
  for (unsigned c = 2; c <= 4; ++c)
    for (unsigned b = 1; b <= 3; ++b)
      EXPECT_EQ(v.budget.at(c, b), t.wcet.at(c, b));
  // Zero abstraction overhead: bandwidth equals utilization everywhere.
  EXPECT_DOUBLE_EQ(v.reference_utilization(), t.reference_utilization());
}

TEST(Theorem1, FlattenWholeTaskset) {
  const Taskset ts{make_task(Time::ms(10), Time::ms(1)),
                   make_task(Time::ms(20), Time::ms(2))};
  const auto vs = flatten(ts);
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].tasks[0], 0u);
  EXPECT_EQ(vs[1].tasks[0], 1u);
}

TEST(Theorem2, RegulatedVcpuBandwidthEqualsUtilization) {
  const Taskset ts{make_task(Time::ms(10), Time::ms(1)),
                   make_task(Time::ms(20), Time::ms(3)),
                   make_task(Time::ms(40), Time::ms(4))};
  const std::vector<std::size_t> idx{0, 1, 2};
  const auto v = regulated_vcpu(ts, idx);
  EXPECT_EQ(v.period, Time::ms(10));  // min period
  // Θ* = Π · (1/10 + 3/20 + 4/40) = 10 · 0.35 = 3.5ms.
  EXPECT_EQ(v.reference_budget(), Time::us(3'500));
  // And the same identity holds at every grid point.
  for (unsigned c = 2; c <= 4; ++c)
    for (unsigned b = 1; b <= 3; ++b) {
      double u = 0;
      for (const auto& t : ts) u += t.utilization(c, b);
      EXPECT_NEAR(v.utilization(c, b), u, 1e-6);
      // Rounded up, never down.
      EXPECT_GE(v.utilization(c, b), u - 1e-12);
    }
}

TEST(Theorem2, SingleTaskReducesToFlattening) {
  const Taskset ts{make_task(Time::ms(10), Time::ms(2))};
  const std::vector<std::size_t> idx{0};
  const auto v = regulated_vcpu(ts, idx);
  EXPECT_EQ(v.period, Time::ms(10));
  EXPECT_EQ(v.reference_budget(), Time::ms(2));
}

TEST(Theorem2, RejectsNonHarmonicTasks) {
  const Taskset ts{make_task(Time::ms(10), Time::ms(1)),
                   make_task(Time::ms(15), Time::ms(1))};
  const std::vector<std::size_t> idx{0, 1};
  EXPECT_THROW(regulated_vcpu(ts, idx), util::Error);
}

TEST(Theorem2, OverheadFreeBeatsExistingCsaOnTheMotivatingExample)
{
  // Existing CSA needs Θ = 5.5 for the (10, 1) task; Theorem 2 needs 1.
  const Taskset ts{make_task(Time::ms(10), Time::ms(1))};
  const std::vector<std::size_t> idx{0};
  const auto v = regulated_vcpu(ts, idx);
  EXPECT_EQ(v.reference_budget(), Time::ms(1));
  const std::vector<PTask> pt{{Time::ms(10), Time::ms(1)}};
  const auto theta = min_budget_edf(pt, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_EQ(*theta / v.reference_budget(), 5);  // 5.5ms vs 1ms
}

// ------------------------------------------------------ harmonic chains ----

TEST(HarmonicGroups, FullyHarmonicStaysOneGroup) {
  const Taskset ts{make_task(Time::ms(100), Time::ms(1)),
                   make_task(Time::ms(400), Time::ms(1)),
                   make_task(Time::ms(200), Time::ms(1))};
  const std::vector<std::size_t> idx{0, 1, 2};
  const auto groups = harmonic_groups(ts, idx);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 3u);
}

TEST(HarmonicGroups, MixedPeriodsSplitIntoChains) {
  const Taskset ts{make_task(Time::ms(100), Time::ms(1)),   // chain A
                   make_task(Time::ms(150), Time::ms(1)),   // chain B
                   make_task(Time::ms(200), Time::ms(1)),   // chain A
                   make_task(Time::ms(300), Time::ms(1))};  // chain B
  const std::vector<std::size_t> idx{0, 1, 2, 3};
  const auto groups = harmonic_groups(ts, idx);
  ASSERT_EQ(groups.size(), 2u);
  // Every group is internally harmonic and the groups partition the input.
  std::size_t total = 0;
  for (const auto& g : groups) {
    total += g.size();
    for (std::size_t a = 0; a < g.size(); ++a)
      for (std::size_t b = a + 1; b < g.size(); ++b)
        EXPECT_TRUE(util::harmonic_pair(ts[g[a]].period, ts[g[b]].period));
  }
  EXPECT_EQ(total, idx.size());
}

TEST(HarmonicGroups, PairwiseCoprimePeriodsAllSeparate) {
  const Taskset ts{make_task(Time::ms(7), Time::ms(1)),
                   make_task(Time::ms(11), Time::ms(1)),
                   make_task(Time::ms(13), Time::ms(1))};
  const std::vector<std::size_t> idx{0, 1, 2};
  EXPECT_EQ(harmonic_groups(ts, idx).size(), 3u);
}

// ------------------------------------------------------ schedulability ----

std::vector<model::Vcpu> two_vcpus(Time ref1, Time ref2) {
  const Taskset ts{make_task(Time::ms(10), ref1),
                   make_task(Time::ms(10), ref2)};
  return flatten(ts);
}

TEST(CoreSched, UtilizationSumsAcrossVcpus) {
  const auto vs = two_vcpus(Time::ms(3), Time::ms(4));
  EXPECT_DOUBLE_EQ(core_utilization(vs, 4, 3), 0.7);
  EXPECT_TRUE(core_schedulable(vs, 4, 3));
}

TEST(CoreSched, ExactBoundaryIsSchedulable) {
  const auto vs = two_vcpus(Time::ms(5), Time::ms(5));
  EXPECT_TRUE(core_schedulable(vs, 4, 3));   // exactly 1.0
  const auto over = two_vcpus(Time::ms(5), Time::ms(5) + Time::ns(1));
  EXPECT_FALSE(core_schedulable(over, 4, 3));
}

TEST(CoreSched, SubsetSelection) {
  const auto vs = two_vcpus(Time::ms(6), Time::ms(6));
  const std::vector<std::size_t> only_first{0};
  EXPECT_FALSE(core_schedulable(vs, 4, 3));  // 1.2 together
  EXPECT_TRUE(core_schedulable(vs, only_first, 4, 3));
}

TEST(CoreSched, ResourceStarvedAllocationRaisesUtilization) {
  const auto vs = two_vcpus(Time::ms(3), Time::ms(3));
  EXPECT_GT(core_utilization(vs, 2, 1), core_utilization(vs, 4, 3));
}

TEST(Inflation, AddsConstantEverywhere) {
  Taskset ts{make_task(Time::ms(10), Time::ms(1))};
  const Time before_max = ts[0].max_wcet;
  inflate_tasks(ts, Time::us(50));
  EXPECT_EQ(ts[0].wcet.at(4, 3), Time::ms(1) + Time::us(50));
  EXPECT_EQ(ts[0].max_wcet, before_max + Time::us(50));

  auto vs = flatten(ts);
  const Time theta_before = vs[0].budget.at(2, 1);
  inflate_vcpus(vs, Time::us(25));
  EXPECT_EQ(vs[0].budget.at(2, 1), theta_before + Time::us(25));
}

TEST(Inflation, ZeroIsNoOp) {
  Taskset ts{make_task(Time::ms(10), Time::ms(1))};
  const Time before = ts[0].wcet.at(3, 2);
  inflate_tasks(ts, Time::zero());
  EXPECT_EQ(ts[0].wcet.at(3, 2), before);
}

}  // namespace
}  // namespace vc2m::analysis

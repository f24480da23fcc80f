#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>

#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "core/core_load.h"
#include "core/hv_alloc.h"
#include "core/kmeans.h"
#include "core/vm_alloc.h"
#include "model/platform.h"
#include "util/instrument.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m::core {
namespace {

using model::PlatformSpec;
using model::ResourceGrid;
using model::Surface;
using model::Task;
using model::Taskset;
using model::Vcpu;
using model::WcetFn;
using util::Rng;
using util::Time;

// -------------------------------------------------------------- kmeans ----

/// Row-major copy of equal-length points, the layout kmeans() takes.
std::vector<double> rows(const std::vector<std::vector<double>>& pts) {
  std::vector<double> flat;
  for (const auto& p : pts) flat.insert(flat.end(), p.begin(), p.end());
  return flat;
}

KMeansResult kmeans_of(const std::vector<std::vector<double>>& pts,
                       std::size_t k, Rng& rng, unsigned max_iters = 50) {
  return kmeans(rows(pts), pts.front().size(), k, rng, max_iters);
}

TEST(KMeans, SeparatesObviousClusters) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({0.0 + i * 0.01, 0.0});
  for (int i = 0; i < 10; ++i) pts.push_back({10.0 + i * 0.01, 10.0});
  Rng rng(1);
  const auto res = kmeans_of(pts, 2, rng);
  // All points of one blob share a cluster, and the blobs differ.
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(res.assignment[i], res.assignment[0]);
    EXPECT_EQ(res.assignment[10 + i], res.assignment[10]);
  }
  EXPECT_NE(res.assignment[0], res.assignment[10]);
}

TEST(KMeans, KEqualsOnePutsEverythingTogether) {
  std::vector<std::vector<double>> pts{{1, 2}, {3, 4}, {5, 6}};
  Rng rng(2);
  const auto res = kmeans_of(pts, 1, rng);
  for (const auto a : res.assignment) EXPECT_EQ(a, 0u);
  EXPECT_NEAR(res.centroids[0], 3.0, 1e-12);
}

TEST(KMeans, KEqualsNSeparatesDistinctPoints) {
  std::vector<std::vector<double>> pts{{0, 0}, {5, 5}, {9, 0}};
  Rng rng(3);
  const auto res = kmeans_of(pts, 3, rng);
  std::set<std::size_t> clusters(res.assignment.begin(),
                                 res.assignment.end());
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(KMeans, EveryClusterNonEmptyEvenWithDuplicatePoints) {
  std::vector<std::vector<double>> pts(6, std::vector<double>{1.0, 1.0});
  pts.push_back({2.0, 2.0});
  Rng rng(4);
  const auto res = kmeans_of(pts, 3, rng);
  const auto members = cluster_members(res, 3);
  for (const auto& m : members) EXPECT_FALSE(m.empty());
}

TEST(KMeans, InvalidKThrows) {
  std::vector<std::vector<double>> pts{{1.0}};
  Rng rng(5);
  EXPECT_THROW(kmeans_of(pts, 0, rng), util::Error);
  EXPECT_THROW(kmeans_of(pts, 2, rng), util::Error);
}

TEST(KMeans, RaggedBufferThrows) {
  const std::vector<double> flat{1.0, 2.0, 3.0};
  Rng rng(5);
  EXPECT_THROW(kmeans(flat, 2, 1, rng), util::Error);
  EXPECT_THROW(kmeans(flat, 0, 1, rng), util::Error);
}

TEST(KMeans, ClusterMembersPartitionTheInput) {
  Rng rng(6);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 40; ++i)
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
  const auto res = kmeans_of(pts, 5, rng);
  const auto members = cluster_members(res, 5);
  std::size_t total = 0;
  for (const auto& m : members) total += m.size();
  EXPECT_EQ(total, pts.size());
}

TEST(KMeans, FinalShiftIsTheLastCentroidMovement) {
  // k = 1: the seed is one of the points, none of which is the mean 2.5,
  // so the one update step moves the centroid by (seed − 2.5)².
  const std::vector<std::vector<double>> pts{{0}, {1}, {2}, {7}};
  for (const unsigned max_iters : {1u, 50u}) {
    Rng rng(9);
    Rng seed_rng = rng;
    const double seed = pts[seed_rng.index(pts.size())][0];
    util::AllocCounterScope scope;
    const auto res = kmeans_of(pts, 1, rng, max_iters);
    EXPECT_EQ(res.centroids[0], 2.5);
    EXPECT_EQ(scope.counters().kmeans_final_shift,
              (seed - 2.5) * (seed - 2.5));
    EXPECT_GT(scope.counters().kmeans_final_shift, 0.0);
  }
}

/// The nested-vector k-means kmeans() replaced, kept verbatim as the oracle
/// for the row-major one: same seeding, assignment, update and repair, so
/// assignment, centroids and iteration count must agree bit for bit.
struct OracleKMeans {
  std::vector<std::size_t> assignment;
  std::vector<std::vector<double>> centroids;
  unsigned iterations = 0;
  unsigned repairs = 0;  // empty clusters repaired, over all iterations
};

double oracle_distance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

OracleKMeans oracle_kmeans(const std::vector<std::vector<double>>& points,
                           std::size_t k, Rng& rng, unsigned max_iters = 50) {
  const std::size_t dim = points.front().size();
  OracleKMeans res;
  res.centroids.push_back(points[rng.index(points.size())]);
  std::vector<double> d2(points.size());
  while (res.centroids.size() < k) {
    double total = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : res.centroids)
        best = std::min(best, oracle_distance(points[i], c));
      d2[i] = best;
      total += best;
    }
    std::size_t pick;
    if (total <= 0) {
      pick = rng.index(points.size());
    } else {
      double r = rng.uniform01() * total;
      pick = points.size() - 1;
      for (std::size_t i = 0; i < points.size(); ++i) {
        r -= d2[i];
        if (r <= 0) {
          pick = i;
          break;
        }
      }
    }
    res.centroids.push_back(points[pick]);
  }
  res.assignment.assign(points.size(), 0);
  for (unsigned iter = 0; iter < max_iters; ++iter) {
    res.iterations = iter + 1;
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = oracle_distance(points[i], res.centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (res.assignment[i] != best) {
        res.assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ++counts[res.assignment[i]];
      for (std::size_t d = 0; d < dim; ++d)
        sums[res.assignment[i]][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        ++res.repairs;
        std::size_t worst = 0;
        double worst_d = -1;
        for (std::size_t i = 0; i < points.size(); ++i) {
          if (counts[res.assignment[i]] <= 1) continue;
          const double d =
              oracle_distance(points[i], res.centroids[res.assignment[i]]);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        --counts[res.assignment[worst]];
        for (std::size_t d = 0; d < dim; ++d)
          sums[res.assignment[worst]][d] -= points[worst][d];
        res.assignment[worst] = c;
        counts[c] = 1;
        sums[c] = points[worst];
      }
      for (std::size_t d = 0; d < dim; ++d)
        res.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
    }
  }
  return res;
}

/// Runs both implementations from one RNG state and requires bit-equal
/// results and equal RNG consumption. Returns the oracle's repair count.
unsigned expect_matches_oracle(const std::vector<std::vector<double>>& pts,
                               std::size_t k, std::uint64_t seed) {
  Rng a(seed);
  Rng b(seed);
  const auto got = kmeans_of(pts, k, a);
  const auto want = oracle_kmeans(pts, k, b);
  const std::size_t dim = pts.front().size();
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.iterations, want.iterations);
  const auto want_centroids = rows(want.centroids);
  EXPECT_TRUE(got.centroids.size() == want_centroids.size() &&
              std::memcmp(got.centroids.data(), want_centroids.data(),
                          want_centroids.size() * sizeof(double)) == 0)
      << "centroids differ";
  EXPECT_EQ(a(), b()) << "different RNG consumption";
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "n=" << pts.size() << " dim=" << dim << " k=" << k
                  << " seed=" << seed;
  return want.repairs;
}

TEST(KMeansOracle, RandomPointsMatchBitForBit) {
  Rng gen(42);
  for (const std::size_t dim : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 19u, 20u, 64u,
                                133u, 240u, 379u, 380u}) {
    for (std::size_t k = 1; k <= 6; ++k) {
      const std::size_t n = k + gen.index(30);
      std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
      // A few blobs with spread, like slowdown rows of a handful of
      // benchmarks.
      const std::size_t blobs = 1 + gen.index(4);
      for (std::size_t i = 0; i < n; ++i) {
        const double centre = 1.0 + static_cast<double>(i % blobs);
        for (auto& x : pts[i]) x = centre + gen.uniform(0.0, 0.5);
      }
      expect_matches_oracle(pts, k, gen());
      if (HasFailure()) return;
    }
  }
}

TEST(KMeansOracle, DuplicatePointsTakeTheZeroTotalSeedingBranch) {
  // Every point identical: after the first centroid every d2 is 0, so each
  // further seed comes from rng.index().
  for (std::size_t k = 1; k <= 6; ++k)
    for (const std::size_t dim : {1u, 3u, 380u}) {
      const std::vector<std::vector<double>> pts(
          k + 3, std::vector<double>(dim, 1.25));
      expect_matches_oracle(pts, k, 100 + k);
    }
}

TEST(KMeansOracle, EmptyClusterRepairMatches) {
  // Heavy duplicates with a few outliers leave clusters empty after the
  // first assignment, forcing repair.
  unsigned repairs = 0;
  Rng gen(7);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t k = 2 + gen.index(5);
    const std::size_t dim = 1 + gen.index(40);
    std::vector<std::vector<double>> pts(k + 4, std::vector<double>(dim, 1.0));
    for (std::size_t o = 0; o < 1 + gen.index(2); ++o)
      for (auto& x : pts[gen.index(pts.size())]) x = gen.uniform(1.0, 3.0);
    repairs += expect_matches_oracle(pts, k, gen());
    if (HasFailure()) return;
  }
  EXPECT_GT(repairs, 0u) << "no layout exercised empty-cluster repair";
}

// -------------------------------------------------- best-fit packing ----

TEST(BestFit, PacksTightBeforeOpeningNewBins) {
  // Weights 0.6, 0.3, 0.3, 0.3: decreasing order packs 0.6 then the 0.3s;
  // best-fit fills bin 0 to 0.9 before opening bin 1.
  const auto bins = best_fit_decreasing({0.6, 0.3, 0.3, 0.3}, 1.0, 10);
  ASSERT_TRUE(bins.has_value());
  EXPECT_EQ(bins->size(), 2u);
}

TEST(BestFit, RespectsMaxBins) {
  EXPECT_FALSE(best_fit_decreasing({0.9, 0.9, 0.9}, 1.0, 2).has_value());
  EXPECT_TRUE(best_fit_decreasing({0.9, 0.9, 0.9}, 1.0, 3).has_value());
}

TEST(BestFit, OverweightItemFails) {
  EXPECT_FALSE(best_fit_decreasing({1.5}, 1.0, 10).has_value());
}

TEST(BestFit, ExactFitAccepted) {
  const auto bins = best_fit_decreasing({0.5, 0.5}, 1.0, 1);
  ASSERT_TRUE(bins.has_value());
  EXPECT_EQ(bins->size(), 1u);
}

TEST(BestFit, EveryItemPlacedExactlyOnce) {
  std::vector<double> w;
  Rng rng(7);
  for (int i = 0; i < 30; ++i) w.push_back(rng.uniform(0.05, 0.6));
  const auto bins = best_fit_decreasing(w, 1.0, 30);
  ASSERT_TRUE(bins.has_value());
  std::set<std::size_t> seen;
  for (const auto& bin : *bins) {
    double load = 0;
    for (const auto i : bin) {
      EXPECT_TRUE(seen.insert(i).second);
      load += w[i];
    }
    EXPECT_LE(load, 1.0 + 1e-9);
  }
  EXPECT_EQ(seen.size(), w.size());
}

// ----------------------------------------------------------- vm_alloc ----

Taskset generated_taskset(double util, int vms = 1, std::uint64_t seed = 42) {
  workload::GeneratorConfig cfg;
  cfg.grid = PlatformSpec::A().grid;
  cfg.target_ref_utilization = util;
  cfg.num_vms = vms;
  Rng rng(seed);
  return workload::generate_taskset(cfg, rng);
}

VmAllocConfig vm_cfg(VcpuAnalysis a, unsigned max_vcpus = 4) {
  VmAllocConfig cfg;
  cfg.analysis = a;
  cfg.max_vcpus_per_vm = max_vcpus;
  return cfg;
}

TEST(VmAlloc, FlatteningMakesOneVcpuPerTask) {
  const auto ts = generated_taskset(1.0);
  Rng rng(1);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kFlattening), rng);
  ASSERT_EQ(vcpus.size(), ts.size());
  for (const auto& v : vcpus) EXPECT_EQ(v.tasks.size(), 1u);
}

TEST(VmAlloc, RegulatedUsesAtMostMaxVcpus) {
  const auto ts = generated_taskset(1.5);
  Rng rng(2);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated, 4), rng);
  EXPECT_LE(vcpus.size(), 4u);
  EXPECT_GE(vcpus.size(), 1u);
}

TEST(VmAlloc, EveryTaskAssignedExactlyOnce) {
  const auto ts = generated_taskset(1.8);
  Rng rng(3);
  for (const auto analysis :
       {VcpuAnalysis::kFlattening, VcpuAnalysis::kRegulated,
        VcpuAnalysis::kExistingCsa}) {
    const auto vcpus = allocate_vms_heuristic(ts, vm_cfg(analysis), rng);
    std::set<std::size_t> seen;
    for (const auto& v : vcpus)
      for (const auto t : v.tasks) EXPECT_TRUE(seen.insert(t).second);
    EXPECT_EQ(seen.size(), ts.size());
  }
}

TEST(VmAlloc, RegulatedVcpuBandwidthMatchesTaskUtilization) {
  // Zero abstraction overhead: total VCPU reference bandwidth equals total
  // task reference utilization (up to nanosecond round-up).
  const auto ts = generated_taskset(1.2);
  Rng rng(4);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated), rng);
  EXPECT_NEAR(model::total_reference_utilization(vcpus),
              model::total_reference_utilization(ts), 1e-6);
}

TEST(VmAlloc, ExistingCsaCarriesAbstractionOverhead) {
  const auto ts = generated_taskset(1.0);
  Rng rng(5);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kExistingCsa), rng);
  // The PRM budgets strictly exceed the utilization share whenever more
  // than zero slack exists.
  EXPECT_GT(model::total_reference_utilization(vcpus),
            model::total_reference_utilization(ts) + 0.01);
}

TEST(VmAlloc, VmBoundariesRespected) {
  const auto ts = generated_taskset(1.5, /*vms=*/3);
  Rng rng(6);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated), rng);
  for (const auto& v : vcpus)
    for (const auto t : v.tasks) EXPECT_EQ(ts[t].vm, v.vm);
}

TEST(VmAlloc, LoadsAreBalancedAcrossVcpus) {
  const auto ts = generated_taskset(1.6);
  Rng rng(7);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated, 4), rng);
  if (vcpus.size() < 2) return;
  double lo = 1e9, hi = 0;
  for (const auto& v : vcpus) {
    lo = std::min(lo, v.reference_utilization());
    hi = std::max(hi, v.reference_utilization());
  }
  // Worst-fit decreasing within clusters keeps the spread bounded by the
  // largest single task utilization (≤ 0.4 reference here).
  EXPECT_LE(hi - lo, 0.45);
}

TEST(VmAlloc, NonHarmonicTasksetsSplitIntoHarmonicChains) {
  // Hand-built taskset with two incompatible period chains: the regulated
  // path must not throw — it builds one well-regulated VCPU per chain.
  auto task_with_period = [](Time p) {
    model::Task t;
    t.period = p;
    model::Surface s(PlatformSpec::A().grid, 1.0);
    t.wcet = model::WcetFn::from_slowdown(Time::ms(5), s);
    t.max_wcet = Time::ms(10);
    return t;
  };
  Taskset ts{task_with_period(Time::ms(100)),
             task_with_period(Time::ms(150)),
             task_with_period(Time::ms(200)),
             task_with_period(Time::ms(300))};
  Rng rng(21);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated, 2), rng);
  std::set<std::size_t> seen;
  for (const auto& v : vcpus) {
    // Each VCPU serves a harmonic set (regulated_vcpu would have thrown).
    for (const auto t : v.tasks) EXPECT_TRUE(seen.insert(t).second);
  }
  EXPECT_EQ(seen.size(), ts.size());
  EXPECT_GE(vcpus.size(), 2u);  // at least one split was necessary
}

TEST(VmAlloc, ExistingCsaMaxWcetVcpuHasConstantBudget) {
  const auto ts = generated_taskset(0.5);
  std::vector<std::size_t> idx(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) idx[i] = i;
  const auto v = vcpu_existing_csa_max_wcet(ts, idx);
  const auto& g = v.budget.grid();
  const Time ref = v.budget.at(g.c_max, g.b_max);
  EXPECT_EQ(v.budget.at(g.c_min, g.b_min), ref);
  EXPECT_GT(ref, Time::zero());
}

// ----------------------------------------------------------- CoreLoad ----

/// Random add / remove_at / utilization / schedulable sequences against the
/// non-incremental analysis::core_utilization / core_schedulable over the
/// same membership: bit-equal sums, equal verdicts, and the memo-hit and
/// admission-test counts a simple model of the caches predicts.
struct CoreLoadTally {
  unsigned passed = 0, failed = 0, fallback_runs = 0;
};

void drive_core_load(const std::vector<Vcpu>& vcpus, const ResourceGrid& grid,
                     std::uint64_t seed, CoreLoadTally& tally) {
  Rng rng(seed);
  CoreLoad load(vcpus, grid);
  std::vector<std::size_t> members;
  // Cache model: utilization sums are dropped on every membership edit;
  // exact-mode demands survive edits; fallback verdicts are dropped on
  // every edit. Exact mode ends for good once the periods' common multiple
  // would pass kPeriodLcmCap.
  std::set<std::size_t> util_cached, sched_cached;
  bool exact = true;
  std::int64_t lcm = 1;
  const auto edited = [&] {
    util_cached.clear();
    if (!exact) sched_cached.clear();
  };
  // A small pool of probe points, so queries repeat and hit the memo.
  std::vector<std::pair<unsigned, unsigned>> probes;
  for (int i = 0; i < 6; ++i)
    probes.emplace_back(
        grid.c_min + static_cast<unsigned>(rng.index(grid.cache_levels())),
        grid.b_min + static_cast<unsigned>(rng.index(grid.bw_levels())));

  for (int op = 0; op < 400; ++op) {
    // Membership wanders between 1 and 8 VCPUs, around the point where
    // the verdict flips.
    const std::size_t kind = rng.index(8);
    if (members.empty() || (kind < 2 && members.size() < 8)) {
      const std::size_t v = rng.index(vcpus.size());
      if (exact) {
        const std::int64_t p = vcpus[v].period.raw_ns();
        const std::int64_t g = std::gcd(lcm, p);
        if (lcm / g > analysis::kPeriodLcmCap / p) {
          exact = false;
          sched_cached.clear();
        } else {
          lcm = lcm / g * p;
        }
      }
      load.add(v);
      members.push_back(v);
      edited();
    } else if (kind < 4) {
      const std::size_t pos = rng.index(members.size());
      EXPECT_EQ(load.remove_at(pos), members[pos]);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
      edited();
    } else {
      const auto [c, b] = probes[rng.index(probes.size())];
      const std::size_t point = grid.index(c, b);
      util::AllocCounters got;
      if (kind < 6) {
        double u;
        {
          util::AllocCounterScope scope;
          u = load.utilization(c, b);
          got = scope.counters();
        }
        const double want = analysis::core_utilization(vcpus, members, c, b);
        EXPECT_EQ(std::memcmp(&u, &want, sizeof u), 0)
            << u << " vs " << want << " at op " << op;
        EXPECT_EQ(got.load_cache_hits, util_cached.count(point));
        EXPECT_EQ(got.admission_tests, 0u);
        util_cached.insert(point);
      } else {
        bool ok;
        {
          util::AllocCounterScope scope;
          ok = load.schedulable(c, b);
          got = scope.counters();
        }
        EXPECT_EQ(ok, analysis::core_schedulable(vcpus, members, c, b))
            << "at op " << op;
        EXPECT_EQ(got.load_cache_hits, sched_cached.count(point));
        EXPECT_EQ(got.admission_tests, 1u);
        EXPECT_EQ(got.admission_passed, ok ? 1u : 0u);
        sched_cached.insert(point);
        ++(ok ? tally.passed : tally.failed);
      }
    }
    EXPECT_EQ(load.members(), members);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "seed " << seed << ", op " << op;
      return;
    }
  }
  tally.fallback_runs += exact ? 0 : 1;
}

/// Flattened VCPUs (Θ = e, Π = p) of a generated harmonic taskset.
std::vector<Vcpu> flattened_pool(double util, std::uint64_t seed) {
  workload::GeneratorConfig gen;
  gen.grid = PlatformSpec::A().grid;
  gen.target_ref_utilization = util;
  Rng rng(seed);
  return analysis::flatten(workload::generate_taskset(gen, rng));
}

TEST(CoreLoad, MatchesTheDirectAnalysisOnHarmonicPeriods) {
  const auto vcpus = flattened_pool(2.0, 31);
  CoreLoadTally tally;
  for (std::uint64_t seed = 0; seed < 40; ++seed)
    drive_core_load(vcpus, PlatformSpec::A().grid, seed, tally);
  EXPECT_GT(tally.passed, 0u);
  EXPECT_GT(tally.failed, 0u);
  EXPECT_EQ(tally.fallback_runs, 0u);
}

TEST(CoreLoad, MatchesTheDirectAnalysisPastTheLcmCap) {
  // Pairwise-coprime periods near 0.2 s: any three have a common multiple
  // far beyond kPeriodLcmCap, so the core drops to the fallback mode.
  auto vcpus = flattened_pool(2.0, 32);
  const std::int64_t periods[] = {200'000'003, 200'000'009, 200'000'023,
                                  200'000'029, 200'000'033};
  for (std::size_t i = 0; i < vcpus.size(); ++i)
    vcpus[i].period = Time::ns(periods[i % std::size(periods)]);
  CoreLoadTally tally;
  for (std::uint64_t seed = 0; seed < 40; ++seed)
    drive_core_load(vcpus, PlatformSpec::A().grid, 100 + seed, tally);
  EXPECT_GT(tally.passed, 0u);
  EXPECT_GT(tally.failed, 0u);
  EXPECT_EQ(tally.fallback_runs, 40u);
}

TEST(CoreLoad, MatchesTheDirectAnalysisOnASmallerPlatformGrid) {
  // VCPUs profiled on Platform A's 20-partition grid, placed on Platform
  // C's 12-partition one.
  const auto vcpus = flattened_pool(2.0, 33);
  CoreLoadTally tally;
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    drive_core_load(vcpus, PlatformSpec::C().grid, 200 + seed, tally);
  EXPECT_GT(tally.passed, 0u);
  EXPECT_GT(tally.failed, 0u);
}

// ----------------------------------------------------------- hv_alloc ----

std::vector<Vcpu> regulated_vcpus(const Taskset& ts, unsigned max_vcpus,
                                  std::uint64_t seed) {
  Rng rng(seed);
  return allocate_vms_heuristic(
      ts, vm_cfg(VcpuAnalysis::kRegulated, max_vcpus), rng);
}

void expect_valid_mapping(const HvAllocResult& res,
                          const std::vector<Vcpu>& vcpus,
                          const PlatformSpec& platform) {
  ASSERT_TRUE(res.schedulable);
  ASSERT_EQ(res.vcpus_on_core.size(), res.cores_used);
  ASSERT_EQ(res.cache.size(), res.cores_used);
  ASSERT_EQ(res.bw.size(), res.cores_used);
  EXPECT_LE(res.cores_used, platform.cores);
  EXPECT_LE(res.total_cache(), platform.total_cache());
  EXPECT_LE(res.total_bw(), platform.total_bw());
  std::set<std::size_t> seen;
  for (unsigned k = 0; k < res.cores_used; ++k) {
    EXPECT_GE(res.cache[k], platform.grid.c_min);
    EXPECT_GE(res.bw[k], platform.grid.b_min);
    for (const auto v : res.vcpus_on_core[k])
      EXPECT_TRUE(seen.insert(v).second);
    EXPECT_TRUE(analysis::core_schedulable(vcpus, res.vcpus_on_core[k],
                                           res.cache[k], res.bw[k]));
  }
  EXPECT_EQ(seen.size(), vcpus.size());
}

TEST(HvAlloc, EasyWorkloadIsSchedulableWithValidMapping) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated_taskset(1.0);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 10);
  Rng rng(11);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  expect_valid_mapping(res, vcpus, platform);
}

TEST(HvAlloc, ImpossibleWorkloadReportsFailure) {
  const auto platform = PlatformSpec::A();
  // Reference utilization above the core count can never fit.
  const auto ts = generated_taskset(4.5);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 12);
  Rng rng(13);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  EXPECT_FALSE(res.schedulable);
}

TEST(HvAlloc, SingleLightVcpuFitsOneCore) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated_taskset(0.2);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 14);
  Rng rng(15);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  ASSERT_TRUE(res.schedulable);
  EXPECT_EQ(res.cores_used, 1u);
}

TEST(HvAlloc, EvenPartitionProducesValidMappingWhenSchedulable) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated_taskset(0.8);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 16);
  const auto res = allocate_even_partition(vcpus, platform);
  if (!res.schedulable) return;  // even split may legitimately fail
  const unsigned c_even = platform.total_cache() / platform.cores;
  for (unsigned k = 0; k < res.cores_used; ++k) {
    EXPECT_EQ(res.cache[k], c_even);
    EXPECT_TRUE(analysis::core_schedulable(vcpus, res.vcpus_on_core[k],
                                           res.cache[k], res.bw[k]));
  }
}

TEST(HvAlloc, HeuristicDominatesEvenPartition) {
  // Over a batch of workloads, the heuristic must schedule at least as many
  // tasksets as the even-partition packing (it searches a superset of
  // configurations).
  const auto platform = PlatformSpec::A();
  int heuristic_wins = 0, even_wins = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto ts = generated_taskset(1.3, 1, 100 + seed);
    const auto vcpus = regulated_vcpus(ts, platform.cores, 200 + seed);
    Rng rng(300 + seed);
    const bool h = allocate_heuristic(vcpus, platform, {}, rng).schedulable;
    const bool e = allocate_even_partition(vcpus, platform).schedulable;
    heuristic_wins += (h && !e) ? 1 : 0;
    even_wins += (e && !h) ? 1 : 0;
  }
  EXPECT_GE(heuristic_wins, even_wins);
}

TEST(HvAlloc, PlatformCExtraCoreConstraint) {
  // Platform C has only 12 partitions: at most 6 cores could receive the
  // 2-partition cache minimum, and the allocator must respect the pool.
  const auto platform = PlatformSpec::C();
  const auto ts = generated_taskset(1.0);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 17);
  Rng rng(18);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  if (res.schedulable) expect_valid_mapping(res, vcpus, platform);
}

TEST(HvAlloc, DeterministicGivenSeed) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated_taskset(1.2);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 19);
  Rng rng1(20), rng2(20);
  const auto r1 = allocate_heuristic(vcpus, platform, {}, rng1);
  const auto r2 = allocate_heuristic(vcpus, platform, {}, rng2);
  EXPECT_EQ(r1.schedulable, r2.schedulable);
  EXPECT_EQ(r1.cores_used, r2.cores_used);
  EXPECT_EQ(r1.cache, r2.cache);
  EXPECT_EQ(r1.bw, r2.bw);
  EXPECT_EQ(r1.vcpus_on_core, r2.vcpus_on_core);
}

}  // namespace
}  // namespace vc2m::core

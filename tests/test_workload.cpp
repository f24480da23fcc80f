#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <sstream>
#include <thread>

#include "model/platform.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/parsec.h"
#include "workload/profile_io.h"
#include "workload/taskset_io.h"

namespace vc2m::workload {
namespace {

using model::PlatformSpec;
using model::ResourceGrid;
using util::Rng;
using util::Time;

// -------------------------------------------------------------- PARSEC ----

TEST(Parsec, SuiteHasTwelveDistinctBenchmarks) {
  const auto& suite = parsec_suite();
  EXPECT_EQ(suite.size(), 12u);
  for (std::size_t i = 0; i < suite.size(); ++i)
    for (std::size_t j = i + 1; j < suite.size(); ++j)
      EXPECT_NE(suite[i].name, suite[j].name);
}

TEST(Parsec, FindProfile) {
  EXPECT_EQ(find_profile("streamcluster").name, "streamcluster");
  EXPECT_THROW(find_profile("does-not-exist"), util::Error);
}

TEST(Parsec, MissCurvePinnedAtEndpoints) {
  EXPECT_NEAR(miss_curve(1.0, 20.0, 3.0, 4.0), 3.0, 1e-12);
  EXPECT_NEAR(miss_curve(20.0, 20.0, 3.0, 4.0), 1.0, 1e-12);
}

TEST(Parsec, MissCurveMonotone) {
  for (double c = 1; c < 20; c += 0.5)
    EXPECT_GE(miss_curve(c, 20, 2.5, 4.0), miss_curve(c + 0.5, 20, 2.5, 4.0));
}

class ParsecSurfaceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParsecSurfaceTest, SurfaceIsNormalizedMonotoneAndAboveOne) {
  const auto& p = parsec_suite()[GetParam()];
  const auto grid = PlatformSpec::A().grid;
  const auto s = p.surface(grid);
  EXPECT_NEAR(s.reference(), 1.0, 1e-12) << p.name;
  EXPECT_TRUE(s.monotone_nonincreasing()) << p.name;
  for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
    for (unsigned b = grid.b_min; b <= grid.b_max; ++b)
      EXPECT_GE(s.at(c, b), 1.0 - 1e-12) << p.name;
}

TEST_P(ParsecSurfaceTest, MaxSlowdownDominatesTheGrid) {
  const auto& p = parsec_suite()[GetParam()];
  const auto grid = PlatformSpec::A().grid;
  EXPECT_GE(p.max_slowdown(grid), p.surface(grid).max_value() - 1e-9)
      << p.name;
}

TEST_P(ParsecSurfaceTest, SmallerPlatformStillNormalized) {
  const auto& p = parsec_suite()[GetParam()];
  const auto grid = PlatformSpec::C().grid;  // 12 partitions
  EXPECT_NEAR(p.surface(grid).reference(), 1.0, 1e-12) << p.name;
  EXPECT_TRUE(p.surface(grid).monotone_nonincreasing()) << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParsecSurfaceTest,
                         ::testing::Range<std::size_t>(0, 12),
                         [](const auto& info) {
                           return parsec_suite()[info.param].name;
                         });

TEST(Parsec, BenchmarksDifferInCharacter) {
  const auto grid = PlatformSpec::A().grid;
  // Compute-bound swaptions barely slows down; streaming streamcluster
  // slows down heavily at minimum bandwidth.
  const double swaptions = find_profile("swaptions").surface(grid).max_value();
  const double stream = find_profile("streamcluster").surface(grid).max_value();
  EXPECT_LT(swaptions, 1.5);
  EXPECT_GT(stream, 3.0);
}

// ----------------------------------------------------------- generator ----

GeneratorConfig config_for(double target, UtilDist dist = UtilDist::kUniform,
                           int vms = 1) {
  GeneratorConfig cfg;
  cfg.grid = PlatformSpec::A().grid;
  cfg.target_ref_utilization = target;
  cfg.dist = dist;
  cfg.num_vms = vms;
  return cfg;
}

TEST(Generator, DrawUtilizationRespectsRanges) {
  Rng rng(5);
  for (int i = 0; i < 2'000; ++i) {
    const double u = draw_utilization(UtilDist::kUniform, rng);
    EXPECT_GE(u, 0.1);
    EXPECT_LT(u, 0.4);
    const double b = draw_utilization(UtilDist::kBimodalHeavy, rng);
    EXPECT_TRUE((b >= 0.1 && b < 0.4) || (b >= 0.5 && b < 0.9));
  }
}

TEST(Generator, BimodalHeavyDrawsMoreHeavyTasks) {
  Rng rng(6);
  int heavy_light = 0, heavy_heavy = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (draw_utilization(UtilDist::kBimodalLight, rng) >= 0.5) ++heavy_light;
    if (draw_utilization(UtilDist::kBimodalHeavy, rng) >= 0.5) ++heavy_heavy;
  }
  // Expected proportions 1/9 vs 5/9.
  EXPECT_NEAR(heavy_light / 20'000.0, 1.0 / 9.0, 0.02);
  EXPECT_NEAR(heavy_heavy / 20'000.0, 5.0 / 9.0, 0.02);
}

TEST(Generator, HarmonicMenuWithinRangeAndHarmonic) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto menu = harmonic_period_menu(config_for(1.0), rng);
    ASSERT_EQ(menu.size(), 4u);
    for (std::size_t k = 0; k < menu.size(); ++k) {
      EXPECT_GE(menu[k], Time::ms(100));
      EXPECT_LE(menu[k], Time::ms(1100));
      if (k > 0) {
        EXPECT_EQ(menu[k], menu[k - 1] * 2);
      }
    }
  }
}

TEST(Generator, TasksetHitsTargetReferenceUtilizationExactly) {
  Rng rng(8);
  for (const double target : {0.3, 1.0, 2.0}) {
    const auto ts = generate_taskset(config_for(target), rng);
    EXPECT_NEAR(model::total_reference_utilization(ts), target, 1e-3);
  }
}

TEST(Generator, TasksetsAreHarmonic) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const auto ts = generate_taskset(config_for(1.5), rng);
    EXPECT_TRUE(model::harmonic(ts));
  }
}

TEST(Generator, WcetSurfacesAreMonotoneWithDominatingMax) {
  Rng rng(10);
  const auto ts = generate_taskset(config_for(1.0), rng);
  for (const auto& t : ts) {
    EXPECT_TRUE(t.wcet.monotone_nonincreasing());
    EXPECT_GE(t.max_wcet, t.wcet.at(2, 1));
    EXPECT_LE(t.max_wcet, t.period);  // drawn utilization < 1
    EXPECT_GT(t.reference_wcet(), Time::zero());
  }
}

TEST(Generator, RoundRobinVmAssignment) {
  Rng rng(11);
  const auto ts = generate_taskset(config_for(1.5, UtilDist::kUniform, 3), rng);
  ASSERT_GE(ts.size(), 3u);
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(ts[i].vm, static_cast<int>(i % 3));
}

TEST(Generator, DeterministicGivenSeed) {
  Rng a(12), b(12);
  const auto ts1 = generate_taskset(config_for(1.0), a);
  const auto ts2 = generate_taskset(config_for(1.0), b);
  ASSERT_EQ(ts1.size(), ts2.size());
  for (std::size_t i = 0; i < ts1.size(); ++i) {
    EXPECT_EQ(ts1[i].period, ts2[i].period);
    EXPECT_EQ(ts1[i].reference_wcet(), ts2[i].reference_wcet());
    EXPECT_EQ(ts1[i].label, ts2[i].label);
  }
}

TEST(Generator, TaskLabelsComeFromTheSuite) {
  Rng rng(13);
  const auto ts = generate_taskset(config_for(2.0), rng);
  for (const auto& t : ts) EXPECT_NO_THROW(find_profile(t.label));
}

// -------------------------------------------------------- suite tables ----

/// Bit equality of two slowdown surfaces (same grid, same doubles).
bool same_bits(const model::Surface& a, const model::Surface& b) {
  return a.grid() == b.grid() && a.flat().size() == b.flat().size() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(double)) == 0;
}

void expect_tables_match_profiles(const SuiteTables& tables,
                                  const ResourceGrid& grid) {
  const auto& suite = parsec_suite();
  ASSERT_EQ(tables.surfaces.size(), suite.size());
  ASSERT_EQ(tables.s_max.size(), suite.size());
  for (std::size_t k = 0; k < suite.size(); ++k) {
    EXPECT_TRUE(same_bits(tables.surfaces[k], suite[k].surface(grid)))
        << suite[k].name;
    const double s_max = suite[k].max_slowdown(grid);
    EXPECT_EQ(std::memcmp(&tables.s_max[k], &s_max, sizeof s_max), 0)
        << suite[k].name;
  }
}

TEST(SuiteTables, EqualTheProfilesOnEveryPlatformGrid) {
  // Interleaved: building one grid's tables must not disturb another's.
  const ResourceGrid grids[] = {PlatformSpec::A().grid, PlatformSpec::C().grid,
                                PlatformSpec::B().grid};
  for (int round = 0; round < 3; ++round)
    for (const auto& grid : grids) {
      const auto& tables = suite_tables(grid);
      expect_tables_match_profiles(tables, grid);
      EXPECT_EQ(&tables, &suite_tables(grid)) << "built twice";
    }
}

/// generate_taskset as it stood before the tables were shared: every
/// surface and s_max recomputed from the profiles for each taskset.
model::Taskset generate_from_scratch(const GeneratorConfig& cfg, Rng& rng) {
  const auto& suite = parsec_suite();
  const auto menu = harmonic_period_menu(cfg, rng);
  std::vector<model::Surface> surfaces;
  std::vector<double> s_max;
  for (const auto& p : suite) {
    surfaces.push_back(p.surface(cfg.grid));
    s_max.push_back(p.max_slowdown(cfg.grid));
  }
  model::Taskset ts;
  double total_ref = 0;
  while (total_ref < cfg.target_ref_utilization) {
    const std::size_t k = rng.index(suite.size());
    const double u_max = draw_utilization(cfg.dist, rng);
    const Time p = menu[rng.index(menu.size())];
    double ref_util = u_max / s_max[k];
    double ref_wcet_ns = ref_util * static_cast<double>(p.raw_ns());
    const double remaining = cfg.target_ref_utilization - total_ref;
    if (ref_util > remaining) {
      ref_util = remaining;
      ref_wcet_ns = ref_util * static_cast<double>(p.raw_ns());
    }
    const auto ref_wcet = Time::ns(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(ref_wcet_ns + 0.5)));
    model::Task task;
    task.period = p;
    task.wcet = model::WcetFn(cfg.grid);
    for (unsigned c = cfg.grid.c_min; c <= cfg.grid.c_max; ++c)
      for (unsigned b = cfg.grid.b_min; b <= cfg.grid.b_max; ++b)
        task.wcet.set(c, b,
                      Time::ns(static_cast<std::int64_t>(
                          static_cast<double>(ref_wcet.raw_ns()) *
                              surfaces[k].at(c, b) +
                          0.5)));
    task.max_wcet = Time::ns(static_cast<std::int64_t>(
        static_cast<double>(ref_wcet.raw_ns()) * s_max[k] + 0.5));
    task.vm = static_cast<int>(ts.size()) % cfg.num_vms;
    task.label = suite[k].name;
    ts.push_back(std::move(task));
    total_ref += ref_util;
  }
  return ts;
}

TEST(SuiteTables, GeneratedTasksetsEqualAFromScratchComputation) {
  const UtilDist dists[] = {UtilDist::kUniform, UtilDist::kBimodalLight,
                            UtilDist::kBimodalMedium, UtilDist::kBimodalHeavy};
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    GeneratorConfig cfg;
    cfg.grid = (seed % 3 == 2 ? PlatformSpec::C() : PlatformSpec::A()).grid;
    cfg.target_ref_utilization = 0.3 + 0.02 * static_cast<double>(seed);
    cfg.dist = dists[seed % 4];
    cfg.num_vms = 1 + static_cast<int>(seed % 3);
    Rng a(seed), b(seed);
    const auto got = generate_taskset(cfg, a);
    const auto want = generate_from_scratch(cfg, b);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].period, want[i].period);
      EXPECT_EQ(got[i].wcet.flat(), want[i].wcet.flat());
      EXPECT_EQ(got[i].max_wcet, want[i].max_wcet);
      EXPECT_EQ(got[i].vm, want[i].vm);
      EXPECT_EQ(got[i].label, want[i].label);
    }
    EXPECT_EQ(a(), b()) << "different RNG consumption, seed " << seed;
    if (HasFailure()) FAIL() << "seed " << seed;
  }
}

TEST(SuiteTables, ConcurrentFirstTouchBuildsOneTable) {
  // A grid no other test asks for, so its first touch happens here, with
  // eight threads released together.
  const ResourceGrid grid{3, 17, 2, 15};
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const SuiteTables*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = &suite_tables(grid);
    });
  for (auto& th : threads) th.join();
  for (const auto* tables : seen) EXPECT_EQ(tables, seen.front());
  expect_tables_match_profiles(*seen.front(), grid);
}

// ----------------------------------------------------------- CSV I/O ----

TEST(TasksetIo, RoundTripPreservesTasks) {
  Rng rng(14);
  const auto grid = PlatformSpec::A().grid;
  const auto original = generate_taskset(config_for(1.0), rng);

  std::stringstream buf;
  write_taskset_csv(buf, original);
  const auto loaded = read_taskset_csv(buf, grid);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].vm, original[i].vm);
    EXPECT_EQ(loaded[i].period, original[i].period);
    EXPECT_EQ(loaded[i].label, original[i].label);
    // Reference WCETs round-trip through decimal ms: sub-microsecond slop.
    EXPECT_NEAR(loaded[i].reference_wcet().to_ms(),
                original[i].reference_wcet().to_ms(), 1e-3);
    // Surfaces are regenerated from the same profile: identical shape.
    EXPECT_NEAR(loaded[i].wcet.slowdown().at(grid.c_min, grid.b_min),
                original[i].wcet.slowdown().at(grid.c_min, grid.b_min),
                1e-6);
  }
}

TEST(TasksetIo, SkipsCommentsAndHeader) {
  const auto grid = PlatformSpec::A().grid;
  std::stringstream buf;
  buf << "# a comment\n"
      << "vm,period_ms,ref_wcet_ms,benchmark\n"
      << "0,100,5,ferret\n"
      << "# another\n"
      << "1,200,8,swaptions\n";
  const auto tasks = read_taskset_csv(buf, grid);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].label, "ferret");
  EXPECT_EQ(tasks[1].vm, 1);
  EXPECT_EQ(tasks[1].period, util::Time::ms(200));
}

TEST(TasksetIo, RejectsMalformedInput) {
  const auto grid = PlatformSpec::A().grid;
  const auto parse = [&](const std::string& text) {
    std::stringstream buf(text);
    return read_taskset_csv(buf, grid);
  };
  EXPECT_THROW(parse(""), util::Error);                        // empty
  EXPECT_THROW(parse("0,100,5\n"), util::Error);               // few fields
  EXPECT_THROW(parse("0,abc,5,ferret\n"), util::Error);        // non-numeric
  EXPECT_THROW(parse("0,100,5,nonexistent\n"), util::Error);   // bad profile
  EXPECT_THROW(parse("0,100,150,ferret\n"), util::Error);      // e > p
  EXPECT_THROW(parse("0,-5,1,ferret\n"), util::Error);         // negative
}

TEST(TasksetIo, RejectsTheHardenedMalformedMatrix) {
  const auto grid = PlatformSpec::A().grid;
  const auto parse = [&](const std::string& text) {
    std::stringstream buf(text);
    return read_taskset_csv(buf, grid);
  };
  // Truncated trailing line (no benchmark field).
  EXPECT_THROW(parse("0,100,5,ferret\n1,200,8\n"), util::Error);
  // Too many fields.
  EXPECT_THROW(parse("0,100,5,ferret,extra\n"), util::Error);
  // NaN / infinity.
  EXPECT_THROW(parse("0,nan,5,ferret\n"), util::Error);
  EXPECT_THROW(parse("0,100,inf,ferret\n"), util::Error);
  // Trailing characters after a number.
  EXPECT_THROW(parse("0,100x,5,ferret\n"), util::Error);
  // Negative vm id.
  EXPECT_THROW(parse("-1,100,5,ferret\n"), util::Error);
  // Empty benchmark name.
  EXPECT_THROW(parse("0,100,5,\n"), util::Error);
  // Exact duplicate row.
  EXPECT_THROW(parse("0,100,5,ferret\n0,100,5,ferret\n"), util::Error);
  // ...but distinct rows with the same benchmark are fine.
  EXPECT_NO_THROW(parse("0,100,5,ferret\n0,200,5,ferret\n"));
}

TEST(TasksetIo, ErrorsCarrySourceAndLineNumber) {
  const auto grid = PlatformSpec::A().grid;
  std::stringstream buf("0,100,5,ferret\n0,bogus,5,ferret\n");
  try {
    read_taskset_csv(buf, grid, "tasks.csv");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tasks.csv:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
}

TEST(TasksetIo, FuzzedMutationsThrowCleanErrorsOnly) {
  // Robustness contract: any byte-level corruption of a valid taskset CSV
  // either still parses or throws util::Error — never crashes, never
  // reports through another exception type. (scripts/check.sh repeats
  // this under ASan/UBSan from the CLI.)
  const auto grid = PlatformSpec::A().grid;
  Rng rng(20260806);
  const auto tasks = generate_taskset(config_for(1.0), rng);
  std::stringstream buf;
  write_taskset_csv(buf, tasks);
  const std::string valid = buf.str();

  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.index(mutated.size());
      mutated[pos] = static_cast<char>(rng.uniform_int(1, 255));
    }
    std::stringstream in(mutated);
    try {
      const auto ts = read_taskset_csv(in, grid);
      EXPECT_FALSE(ts.empty());  // parsed → must be a real taskset
    } catch (const util::Error&) {
      // acceptable: strict parser rejected the corruption
    }
  }
}

TEST(SurfaceIo, ErrorsCarrySourceAndLineNumber) {
  const model::ResourceGrid grid{2, 3, 1, 2};
  std::stringstream buf("2,1,4\n2,2,nan\n3,1,3.5\n3,2,2\n");
  try {
    read_surface_csv(buf, grid, "surface.csv");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("surface.csv:2:"), std::string::npos) << what;
  }
}

TEST(SurfaceIo, RejectsTheHardenedMalformedMatrix) {
  const model::ResourceGrid grid{2, 3, 1, 2};
  auto parse = [&](const std::string& text) {
    std::stringstream buf(text);
    return read_surface_csv(buf, grid);
  };
  // Too many fields.
  EXPECT_THROW(parse("2,1,4,9\n2,2,3\n3,1,3.5\n3,2,2\n"), util::Error);
  // Negative coordinate (stoul would silently wrap it).
  EXPECT_THROW(parse("-2,1,4\n2,2,3\n3,1,3.5\n3,2,2\n"), util::Error);
  // Non-finite WCET.
  EXPECT_THROW(parse("2,1,inf\n2,2,3\n3,1,3.5\n3,2,2\n"), util::Error);
  // Trailing characters.
  EXPECT_THROW(parse("2,1,4z\n2,2,3\n3,1,3.5\n3,2,2\n"), util::Error);
}

TEST(SurfaceIo, RoundTripIsExactToTheMicrosecond) {
  const model::ResourceGrid grid{2, 5, 1, 4};
  const auto& p = find_profile("ferret");
  const auto original =
      model::WcetFn::from_slowdown(util::Time::ms(10), p.surface(grid));
  std::stringstream buf;
  write_surface_csv(buf, original);
  const auto loaded = read_surface_csv(buf, grid);
  for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
    for (unsigned b = grid.b_min; b <= grid.b_max; ++b)
      EXPECT_NEAR(loaded.at(c, b).to_ms(), original.at(c, b).to_ms(), 1e-3);
}

TEST(SurfaceIo, RejectsIncompleteAndCorruptSurfaces) {
  const model::ResourceGrid grid{2, 3, 1, 2};
  auto parse = [&](const std::string& text) {
    std::stringstream buf(text);
    return read_surface_csv(buf, grid);
  };
  // Complete, monotone: ok.
  EXPECT_NO_THROW(parse("2,1,4\n2,2,3\n3,1,3.5\n3,2,2\n"));
  // Missing point.
  EXPECT_THROW(parse("2,1,4\n2,2,3\n3,1,3.5\n"), util::Error);
  // Duplicate point.
  EXPECT_THROW(parse("2,1,4\n2,1,4\n2,2,3\n3,1,3.5\n3,2,2\n"), util::Error);
  // Out-of-grid point.
  EXPECT_THROW(parse("9,1,4\n2,1,4\n2,2,3\n3,1,3.5\n3,2,2\n"), util::Error);
  // Non-monotone (more cache, larger WCET).
  EXPECT_THROW(parse("2,1,4\n2,2,3\n3,1,5\n3,2,2\n"), util::Error);
  // Negative WCET.
  EXPECT_THROW(parse("2,1,-4\n2,2,3\n3,1,3.5\n3,2,2\n"), util::Error);
}

TEST(SurfaceIo, ImportedSurfaceDrivesATask) {
  // The adoption path: a measured surface becomes a schedulable task.
  const model::ResourceGrid grid{2, 3, 1, 2};
  std::stringstream buf("2,1,8\n2,2,6\n3,1,7\n3,2,5\n");
  model::Task t;
  t.period = util::Time::ms(100);
  t.wcet = read_surface_csv(buf, grid);
  t.max_wcet = util::Time::ms(12);
  EXPECT_DOUBLE_EQ(t.reference_utilization(), 0.05);
  EXPECT_DOUBLE_EQ(t.utilization(2, 1), 0.08);
}

TEST(TasksetIo, UnlabeledTaskCannotBeWritten) {
  model::Taskset tasks(1);
  tasks[0].period = util::Time::ms(100);
  std::stringstream buf;
  EXPECT_THROW(write_taskset_csv(buf, tasks), util::Error);
}

}  // namespace
}  // namespace vc2m::workload

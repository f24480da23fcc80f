// Tests of the benchmark's own arithmetic (stats.h). The end-to-end smoke
// run of all three workloads is `python3 vbench/run.py --smoke`.
#include <gtest/gtest.h>

#include <cmath>

#include "stats.h"

namespace vbench {
namespace {

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.5), 2);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0), 1);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1), 4);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(median({5}), 5);
}

TEST(TailQuantile, KeepsAtLeastTenSamplesBeyond) {
  // 9,750 sweep solves: p99 has 97.5 beyond, p99.9 only 9.75.
  EXPECT_DOUBLE_EQ(tail_quantile(9750), 0.99);
  // 20,000 serve decisions: p99.9 has exactly 20 beyond.
  EXPECT_DOUBLE_EQ(tail_quantile(20000), 0.999);
  EXPECT_DOUBLE_EQ(tail_quantile(10000), 0.999);
  EXPECT_DOUBLE_EQ(tail_quantile(9999), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(100), 0.9);
  EXPECT_DOUBLE_EQ(tail_quantile(99), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(1000000), 0.99999);
}

TEST(SelfTime, SubtractsChildrenOnce) {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild [12,18) inside the first child.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},
      {"g", 12, 18, 1, 1},
  };
  const auto self = self_time_ns(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 100 - 40);  // union [10,50)
  EXPECT_DOUBLE_EQ(self.at("a"), 20 - 6);
  EXPECT_DOUBLE_EQ(self.at("b"), 30);
  EXPECT_DOUBLE_EQ(self.at("g"), 6);
  EXPECT_DOUBLE_EQ(root_time_ns(spans), 100);
}

TEST(SelfTime, ClipsChildrenToTheParentAndSumsPerName) {
  std::vector<Span> spans = {
      {"item", 0, 10, -1, 1},  {"solve", 5, 15, 0, 1},
      {"item", 20, 30, -1, 2}, {"solve", 20, 25, 2, 2},
  };
  const auto self = self_time_ns(spans);
  EXPECT_DOUBLE_EQ(self.at("item"), 5 + 5);
  EXPECT_DOUBLE_EQ(self.at("solve"), 10 + 5);
}

TEST(SelfTime, NestedSelfTimesAddUpToTheRoots) {
  std::vector<Span> spans = {
      {"r", 0, 1000, -1, 0}, {"x", 100, 400, 0, 0}, {"y", 150, 300, 1, 0},
      {"z", 500, 900, 0, 0}, {"r", 2000, 2500, -1, 1},
  };
  double total = 0;
  for (const auto& [name, ns] : self_time_ns(spans)) total += ns;
  EXPECT_DOUBLE_EQ(total, root_time_ns(spans));
}

TEST(Ratio, CarriesItsBase) {
  const Ratio r{3, 4};
  EXPECT_DOUBLE_EQ(r.value(), 0.75);
  EXPECT_DOUBLE_EQ(r.num, 3);
  EXPECT_DOUBLE_EQ(r.den, 4);
  EXPECT_DOUBLE_EQ((Ratio{5, 0}).value(), 0);
}

TEST(HistogramQuantile, StaysWithinOneBucketOfTheExactQuantile) {
  vc2m::util::LogHistogram h;
  std::vector<double> v;
  for (int i = 1; i <= 5000; ++i) {
    const double x = 1e-3 * std::pow(1.001, i);
    h.add(x);
    v.push_back(x);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = quantile(v, q);
    const double est = histogram_quantile(h, q);
    EXPECT_LE(std::abs(est / exact - 1), h.bucket_ratio() - 1) << q;
  }
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0), h.min());
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1), h.max());
}

TEST(HistogramQuantile, MovesWithTheDataInsideABucket) {
  // Two histograms whose medians share a bucket but differ in rank
  // position must not read the same value.
  vc2m::util::LogHistogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.add(1.0 + 1e-4 * i);
    b.add(1.0 + 1e-4 * i);
  }
  for (int i = 0; i < 20; ++i) b.add(0.5);
  EXPECT_NE(histogram_quantile(a, 0.5), histogram_quantile(b, 0.5));
}

}  // namespace
}  // namespace vbench

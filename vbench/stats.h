// The benchmark's own arithmetic: exact sample quantiles, the tail
// percentile rule, span self time, ratios that carry their base, and
// quantiles read back from a util::LogHistogram. Kept free of any vc2m
// layer except util so test_stats.cpp pins it in isolation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/log_histogram.h"

namespace vbench {

/// Exact quantile of `samples` (q in [0, 1]) by linear interpolation
/// between order statistics (the "type 7" estimator). 0 when empty.
double quantile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/// The highest percentile of {50, 90, 99, 99.9, 99.99, 99.999} that keeps
/// at least `min_beyond` samples above it: n·(1 − q) ≥ min_beyond. Returns
/// q as a fraction; 0.5 when even the median has too few samples beyond.
double tail_quantile(std::size_t n, double min_beyond = 10);

/// A ratio reported together with its base: value = num / den (0 when den
/// is 0, which a reader can tell from the base).
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den != 0 ? num / den : 0; }
};

/// One recorded span: a named interval on one thread's timeline with the
/// index of the span that caused it (-1 for a root). Spans of one request
/// share `seq`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t seq = 0;
};

/// Self time per span name, in ns: each span's duration minus the part of
/// its interval covered by the union of its children's intervals (clipped
/// to the parent). Overlapping children are counted once.
std::map<std::string, double> self_time_ns(const std::vector<Span>& spans);

/// Σ duration of root spans (parent == -1), in ns. Σ self_time_ns over all
/// names equals this whenever children lie inside their parents.
double root_time_ns(const std::vector<Span>& spans);

/// Quantile of a LogHistogram with linear interpolation by rank inside the
/// bucket that holds it, so the estimate moves continuously with the data
/// instead of snapping to bucket midpoints. Within one bucket ratio of the
/// true sample; clamped into the observed [min, max].
double histogram_quantile(const vc2m::util::LogHistogram& h, double q);

}  // namespace vbench

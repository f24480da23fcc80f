#include "core/kmeans.h"

#include <algorithm>
#include <limits>

#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Σ_d (a[d] − b[d])² in index order, abandoned once the partial sum
/// reaches `bound`. Partial sums of non-negative terms never decrease, so a
/// caller's `result < bound` comparison comes out as with the full sum;
/// with an infinite bound the full sum is returned.
double distance_below(const double* a, const double* b, std::size_t dim,
                      double bound) {
  double d = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
    if (d >= bound) break;
  }
  return d;
}

/// kmeans++: first centroid uniform, then proportional to squared distance
/// from the nearest chosen centroid. d2 keeps each point's nearest distance
/// across rounds, so a round measures against the newest centroid only.
std::vector<double> seed_centroids(std::span<const double> points,
                                   std::size_t dim, std::size_t k,
                                   util::Rng& rng) {
  const std::size_t n = points.size() / dim;
  std::vector<double> centroids;
  centroids.reserve(k * dim);
  const auto push = [&](std::size_t i) {
    const auto row = points.subspan(i * dim, dim);
    centroids.insert(centroids.end(), row.begin(), row.end());
  };
  push(rng.index(n));
  std::vector<double> d2(n, kInf);
  while (centroids.size() < k * dim) {
    const double* newest = centroids.data() + centroids.size() - dim;
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i],
                       distance_below(&points[i * dim], newest, dim, d2[i]));
      total += d2[i];
    }
    std::size_t pick;
    if (total <= 0) {
      // All points coincide with existing centroids; any choice works.
      pick = rng.index(n);
    } else {
      double r = rng.uniform01() * total;
      pick = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        r -= d2[i];
        if (r <= 0) {
          pick = i;
          break;
        }
      }
    }
    push(pick);
  }
  return centroids;
}

}  // namespace

KMeansResult kmeans(std::span<const double> points, std::size_t dim,
                    std::size_t k, util::Rng& rng, unsigned max_iters) {
  VC2M_CHECK(dim > 0);
  VC2M_CHECK_MSG(points.size() % dim == 0,
                 points.size() << " values do not form rows of " << dim);
  const std::size_t n = points.size() / dim;
  VC2M_CHECK_MSG(k >= 1 && k <= n,
                 "k=" << k << " incompatible with " << n << " points");
  const auto point = [&](std::size_t i) { return &points[i * dim]; };

  KMeansResult res;
  res.centroids = seed_centroids(points, dim, k, rng);
  res.assignment.assign(n, 0);
  const auto centroid = [&](std::size_t c) { return &res.centroids[c * dim]; };

  std::vector<double> sums(k * dim);
  std::vector<std::size_t> counts(k);
  double last_shift = 0;  // centroid movement of the final update step
  for (unsigned iter = 0; iter < max_iters; ++iter) {
    res.iterations = iter + 1;
    // Assignment step.
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      double best_d = kInf;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = distance_below(point(i), centroid(c), dim, best_d);
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

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t a = res.assignment[i];
      ++counts[a];
      for (std::size_t d = 0; d < dim; ++d) sums[a * dim + d] += point(i)[d];
    }
    last_shift = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Repair an empty cluster: steal the point farthest from its
        // centroid so every cluster stays populated.
        std::size_t worst = 0;
        double worst_d = -1;
        for (std::size_t i = 0; i < n; ++i) {
          if (counts[res.assignment[i]] <= 1) continue;
          const double d = distance_below(
              point(i), centroid(res.assignment[i]), dim, kInf);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        const std::size_t from = res.assignment[worst];
        --counts[from];
        for (std::size_t d = 0; d < dim; ++d)
          sums[from * dim + d] -= point(worst)[d];
        res.assignment[worst] = c;
        counts[c] = 1;
        std::copy_n(point(worst), dim, &sums[c * dim]);
      }
      double moved = 0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double updated =
            sums[c * dim + d] / static_cast<double>(counts[c]);
        const double diff = centroid(c)[d] - updated;
        moved += diff * diff;
        centroid(c)[d] = updated;
      }
      last_shift += moved;
    }
  }
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->kmeans_runs;
    ctr->kmeans_iterations += res.iterations;
    ctr->kmeans_final_shift += last_shift;
  }
  return res;
}

std::vector<std::vector<std::size_t>> cluster_members(
    const KMeansResult& result, std::size_t k) {
  std::vector<std::vector<std::size_t>> members(k);
  for (std::size_t i = 0; i < result.assignment.size(); ++i) {
    VC2M_CHECK(result.assignment[i] < k);
    members[result.assignment[i]].push_back(i);
  }
  return members;
}

}  // namespace vc2m::core

// KMeans clustering over slowdown vectors.
//
// Both allocation levels group entities (tasks at VM level, VCPUs at
// hypervisor level) whose slowdown vectors are similar, so that entities
// sharing a core make similar use of the cache/BW partitions granted to it
// (§4.2, §4.3). Features are the flattened s(c,b) surfaces; distance is
// Euclidean; seeding is kmeans++ from the caller's RNG so results are
// reproducible.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.h"

namespace vc2m::core {

struct KMeansResult {
  /// assignment[i] = cluster of point i, in [0, k).
  std::vector<std::size_t> assignment;
  /// The k centroids, row-major: centroid c is [c·dim, (c+1)·dim).
  std::vector<double> centroids;
  unsigned iterations = 0;
};

/// Lloyd's algorithm with kmeans++ seeding over the n = points.size()/dim
/// points stored row-major in `points` (point i is [i·dim, (i+1)·dim)).
/// Requires dim >= 1 and 1 <= k <= n. Empty clusters are repaired by
/// stealing the point farthest from its current centroid.
KMeansResult kmeans(std::span<const double> points, std::size_t dim,
                    std::size_t k, util::Rng& rng, unsigned max_iters = 50);

/// Invert an assignment into per-cluster member lists (clusters may be
/// empty only if kmeans() was given degenerate duplicate points).
std::vector<std::vector<std::size_t>> cluster_members(
    const KMeansResult& result, std::size_t k);

}  // namespace vc2m::core

// The host-speed reference. On a shared host the speed this process gets
// drifts by a quarter or more within minutes (neighbours' load on the
// shared caches, memory and cores), which no amount of averaging inside
// one 30 s run removes. The benchmark therefore times, between its timed
// repetitions, a fixed reference computation whose cost does not depend
// on the code under test, and scales every wall time by how fast that
// reference ran next to it: a normalized time is the wall time the host
// would have taken at the speed it had when the reference took
// kNominalPassMs per pass.
#pragma once

#include <vector>

namespace vbench {

/// Reference pass time, in ms, that normalized times are scaled to.
constexpr double kNominalPassMs = 25.0;

/// Reference passes timed before the first timed repetition and after
/// each one.
constexpr int kRefPasses = 24;

/// Time `passes` passes of the reference computation; returns each pass's
/// wall time in ms. Throws when a pass computes another checksum than the
/// first one did.
std::vector<double> reference_passes(int passes);

}  // namespace vbench

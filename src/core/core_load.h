// Incremental per-core schedulability accounting.
//
// hv_alloc Phases 2–3, admission control, and the exact search all probe
// one core's VCPU set over and over: what is Σ_j Θ_j(c,b)/Π_j here, and
// does it stay ≤ 1? Re-deriving both from the VCPU list on every probe made
// each partition grant and migration O(members × probes). A CoreLoad owns
// one core's membership and keeps running accounts instead:
//
//  - utilization(c, b) — the double sum — is computed at most once per grid
//    point per membership epoch, by the same in-order summation
//    analysis::core_utilization performs (so cached and fresh values are
//    bit-identical; a running double sum updated incrementally would drift
//    and flip tie-sensitive allocator decisions). Membership edits drop the
//    cache; partition grants only move the queried (c, b) and invalidate
//    nothing.
//
//  - schedulable(c, b) — the exact integer test — is maintained
//    incrementally: the core tracks a common multiple L of its members'
//    periods with per-member weights w_j = L/Π_j, and materialized
//    per-point demands D(c,b) = Σ_j Θ_j(c,b)·w_j. add/remove adjust D by
//    the one member's contribution instead of re-summing, at just the
//    points materialized so far (a CoreLoad built per candidate core
//    probes only a handful of grid points). D ≤ L is the same exact
//    comparison analysis::core_schedulable makes (L is a multiple of the
//    minimal period LCM, so both sides scale by the same integer). If L
//    would exceed analysis::kPeriodLcmCap the core defers to
//    analysis::core_schedulable permanently — verdicts stay identical in
//    every case, only the evaluation count changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/resource_grid.h"
#include "model/task.h"

namespace vc2m::core {

class CoreLoad {
 public:
  /// An empty core over `vcpus` (indices passed to add() refer into it).
  /// The span must outlive the CoreLoad and must not be reallocated.
  CoreLoad(std::span<const model::Vcpu> vcpus,
           const model::ResourceGrid& grid);

  /// Convenience: an initial membership, added in order.
  CoreLoad(std::span<const model::Vcpu> vcpus, const model::ResourceGrid& grid,
           std::span<const std::size_t> members);

  /// Membership, in insertion order (the order every cached sum uses).
  const std::vector<std::size_t>& members() const { return on_core_; }
  bool empty() const { return on_core_.empty(); }
  std::size_t size() const { return on_core_.size(); }

  /// Add the VCPU at `vcpu_index` to this core.
  void add(std::size_t vcpu_index);

  /// Remove the member at position `pos` (not VCPU index); returns the
  /// removed VCPU index. Remaining membership order is preserved.
  std::size_t remove_at(std::size_t pos);

  /// Σ_j Θ_j(c,b)/Π_j over the members — bit-identical to
  /// analysis::core_utilization over members() at (c, b).
  double utilization(unsigned c, unsigned b);

  /// Exact Σ_j Θ_j(c,b)/Π_j ≤ 1 — same verdict as
  /// analysis::core_schedulable over members() at (c, b). Counts an
  /// admission test per query like the non-incremental path.
  bool schedulable(unsigned c, unsigned b);

 private:
  /// A per-grid-point memo that lists the points it has materialized, so
  /// edits and invalidation touch only those instead of the whole grid.
  template <class T>
  struct PointMemo {
    std::vector<T> value;               // per grid point, row-major
    std::vector<std::uint8_t> valid;
    std::vector<std::size_t> points;    // materialized, in insertion order

    PointMemo() = default;
    explicit PointMemo(std::size_t grid_size)
        : value(grid_size), valid(grid_size, 0) {}
    void set(std::size_t i, T v) {
      value[i] = v;
      valid[i] = 1;
      points.push_back(i);
    }
    void clear() {
      for (const std::size_t i : points) valid[i] = 0;
      points.clear();
    }
  };

  /// Θ at point i of grid_ (row-major): the flat entry when the budget
  /// lives on grid_, else looked up by (c, b) — VCPUs profiled on a larger
  /// grid may be placed on a smaller platform.
  util::Time budget_at(const model::WcetFn& budget, std::size_t i) const;

  std::span<const model::Vcpu> vcpus_;
  model::ResourceGrid grid_;
  std::vector<std::size_t> on_core_;

  // Exact-mode state: L (common multiple of member periods), per-member
  // weights L/Π_j parallel to on_core_, and lazily materialized demands.
  bool exact_ = true;
  std::int64_t common_multiple_ = 1;
  std::vector<std::int64_t> weight_;
  PointMemo<__int128> demand_;

  // Cached verdicts for the fallback (non-exact) mode only; sized when
  // the core enters that mode.
  PointMemo<std::uint8_t> sched_;

  // Cached utilization sums, dropped on membership edits.
  PointMemo<double> util_;
};

}  // namespace vc2m::core

// The periodic resource model of Shin & Lee [13] — the "existing CSA".
//
// A VCPU abstracted as Γ = (Π, Θ) supplies Θ units of CPU time in every
// period Π, in the worst case delayed by up to 2(Π − Θ). The existing
// compositional analysis computes, for the tasks mapped onto a VCPU, the
// minimum budget Θ such that EDF meets all deadlines given the worst-case
// supply — this minimum is what carries the *abstraction overhead* vC2M
// removes: e.g. a single task (p=10, e=1) with utilization 0.1 needs
// Θ = 5.5 at Π = 10, a bandwidth 5.5× the task's utilization.
#pragma once

#include <optional>
#include <span>

#include "analysis/dbf.h"
#include "util/time.h"

namespace vc2m::analysis {

/// Periodic resource model Γ = (Π, Θ).
struct Prm {
  util::Time period;  ///< Π
  util::Time budget;  ///< Θ

  /// Worst-case supply bound function sbf_Γ(t) (exact form of [13]):
  ///   sbf(t) = (k−1)Θ + max(0, t − 2(Π−Θ) − (k−1)Π),
  ///   k = ⌊(t − (Π−Θ))/Π⌋ + 1, for t ≥ Π−Θ; 0 otherwise.
  util::Time sbf(util::Time t) const;

  /// Linear lower bound lsbf(t) = (Θ/Π)·(t − 2(Π−Θ)), clipped at 0.
  double lsbf(util::Time t) const;

  double bandwidth() const { return budget.ratio(period); }
};

/// True iff the taskset is EDF-schedulable on the supply of `prm`:
/// dbf(t) ≤ sbf(t) at every demand checkpoint up to lcm(hyperperiod, Π),
/// plus the long-run rate condition U ≤ Θ/Π.
bool edf_schedulable_on_prm(std::span<const PTask> tasks, const Prm& prm);

/// Minimum integer-nanosecond budget Θ such that the taskset is
/// EDF-schedulable on (Π = period, Θ); std::nullopt if even Θ = Π fails
/// (i.e. the taskset exceeds a dedicated core).
std::optional<util::Time> min_budget_edf(std::span<const PTask> tasks,
                                         util::Time period);

/// The least budget Θ ∈ [0, Π] with Prm{Π, Θ}.sbf(t) ≥ demand, in closed
/// form; std::nullopt when even Θ = Π (where sbf(t) = t) falls short.
/// docs/analysis.md derives it: sbf_Θ(t) ≥ d > 0 iff n chunks of Θ cover d
/// (nΘ ≥ d) and the n + 1 gaps of Π − Θ fit into the slack t − d, for
/// n = ⌈d/Θ⌉; the answer is the least of max(⌈d/n⌉, Π − ⌊(t−d)/(n+1)⌋) over
/// n ≥ 1, where those two pieces cross.
std::optional<util::Time> sbf_min_budget(util::Time period, util::Time t,
                                         util::Time demand);

// ---------------------------------------------------------------------------
// Precomputed-demand kernels (the path every solver takes, through
// AnalysisContext; see docs/performance.md).
//
// Inside one min-budget search the taskset is fixed: the checkpoint set and
// the demand at every checkpoint do not depend on Θ. The reference kernels
// above nevertheless re-derive both per probe (a fresh dbf_checkpoints
// allocation + sort, then one dbf() per point); they are kept as the test
// oracle. The curve form takes the demand once and walks the checkpoints
// once — the returned minimum is bit-identical to the reference (integer
// demand/supply, and the same ordered double sum for the rate condition).

/// One task group's demand, precomputed over the dbf checkpoints of its
/// (periods, horizon) pair. Both spans borrow caller storage (typically an
/// AnalysisContext cache + arena).
struct DemandCurve {
  std::span<const util::Time> points;  ///< sorted dbf checkpoints
  std::span<const util::Time> demand;  ///< dbf at each point
};

/// edf_schedulable_on_prm on a precomputed curve. `total_util` must be
/// total_utilization() of the same tasks (the bit-identical ordered sum);
/// `curve` must cover the checkpoints of lcm(hyperperiod, prm.period).
bool curve_schedulable(const DemandCurve& curve, double total_util,
                       const Prm& prm);

/// min_budget_edf on a precomputed curve, in one pass over the checkpoints:
/// Θ starts at ⌊U·Π⌋ and is raised only where the rate condition or a
/// checkpoint fails, straight to that checkpoint's own minimum
/// (sbf_min_budget). Feasibility is a conjunction of conditions each
/// monotone in Θ, so this is the least feasible Θ ≥ ⌊U·Π⌋ — exactly what
/// min_budget_edf's bisection returns.
std::optional<util::Time> min_budget_on_curve(const DemandCurve& curve,
                                              double total_util,
                                              util::Time period);

}  // namespace vc2m::analysis

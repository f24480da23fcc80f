#include "analysis/prm.h"

#include <algorithm>

#include "util/error.h"

namespace vc2m::analysis {

util::Time Prm::sbf(util::Time t) const {
  VC2M_CHECK(budget >= util::Time::zero() && budget <= period);
  const util::Time gap = period - budget;  // Π − Θ
  if (t <= gap) return util::Time::zero();
  const std::int64_t k = (t - gap) / period + 1;  // ⌊(t−(Π−Θ))/Π⌋ + 1
  const util::Time whole = budget * (k - 1);
  const util::Time partial =
      util::max(util::Time::zero(), t - gap - gap - period * (k - 1));
  // The partial chunk can never exceed one budget.
  return whole + util::min(partial, budget);
}

double Prm::lsbf(util::Time t) const {
  const util::Time gap2 = (period - budget) * 2;
  if (t <= gap2) return 0.0;
  return bandwidth() * static_cast<double>((t - gap2).raw_ns());
}

bool edf_schedulable_on_prm(std::span<const PTask> tasks, const Prm& prm) {
  VC2M_CHECK(prm.period > util::Time::zero());
  VC2M_CHECK(prm.budget >= util::Time::zero() && prm.budget <= prm.period);
  if (tasks.empty()) return true;

  // Long-run rate condition.
  if (total_utilization(tasks) > prm.bandwidth() + 1e-12) return false;

  const util::Time horizon = util::lcm(hyperperiod(tasks), prm.period);
  for (const util::Time t : dbf_checkpoints(tasks, horizon))
    if (dbf(tasks, t) > prm.sbf(t)) return false;
  return true;
}

std::optional<util::Time> min_budget_edf(std::span<const PTask> tasks,
                                         util::Time period) {
  VC2M_CHECK(period > util::Time::zero());
  if (tasks.empty()) return util::Time::zero();

  const double u = total_utilization(tasks);
  if (u > 1.0 + 1e-12) return std::nullopt;

  // Feasible at Θ = Π iff schedulable on a dedicated core.
  if (!edf_schedulable_on_prm(tasks, Prm{period, period})) return std::nullopt;

  // Budget feasibility is monotone in Θ: binary search the minimum feasible
  // budget in [U·Π, Π].
  util::Time lo = util::Time::ns(static_cast<std::int64_t>(
      u * static_cast<double>(period.raw_ns())));  // U·Π is a lower bound
  util::Time hi = period;
  while (lo < hi) {
    const util::Time mid =
        util::Time::ns(lo.raw_ns() + (hi.raw_ns() - lo.raw_ns()) / 2);
    if (edf_schedulable_on_prm(tasks, Prm{period, mid}))
      hi = mid;
    else
      lo = mid + util::Time::ns(1);
  }
  return hi;
}

bool curve_schedulable(const DemandCurve& curve, double total_util,
                       const Prm& prm) {
  VC2M_CHECK(prm.period > util::Time::zero());
  VC2M_CHECK(prm.budget >= util::Time::zero() && prm.budget <= prm.period);

  // Long-run rate condition — the identical expression (and epsilon) the
  // reference path applies, on the identical ordered utilization sum.
  if (total_util > prm.bandwidth() + 1e-12) return false;

  const std::size_t n = curve.points.size();
  for (std::size_t k = 0; k < n; ++k)
    if (curve.demand[k] > prm.sbf(curve.points[k])) return false;
  return true;
}

std::optional<util::Time> min_budget_on_curve(const DemandCurve& curve,
                                              double total_util,
                                              util::Time period) {
  VC2M_CHECK(period > util::Time::zero());
  if (curve.points.empty() && curve.demand.empty() && total_util == 0.0)
    return util::Time::zero();

  if (total_util > 1.0 + 1e-12) return std::nullopt;

  // Feasible at Θ = Π iff schedulable on a dedicated core.
  if (!curve_schedulable(curve, total_util, Prm{period, period}))
    return std::nullopt;

  // Identical bracket and midpoint arithmetic to min_budget_edf.
  util::Time lo = util::Time::ns(static_cast<std::int64_t>(
      total_util * static_cast<double>(period.raw_ns())));
  util::Time hi = period;
  while (lo < hi) {
    const util::Time mid =
        util::Time::ns(lo.raw_ns() + (hi.raw_ns() - lo.raw_ns()) / 2);
    if (curve_schedulable(curve, total_util, Prm{period, mid}))
      hi = mid;
    else
      lo = mid + util::Time::ns(1);
  }
  return hi;
}

}  // namespace vc2m::analysis

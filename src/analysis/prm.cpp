#include "analysis/prm.h"

#include <algorithm>
#include <cmath>

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

std::optional<util::Time> sbf_min_budget(util::Time period, util::Time t,
                                         util::Time demand) {
  VC2M_CHECK(period > util::Time::zero());
  const std::int64_t p = period.raw_ns();
  const std::int64_t d = demand.raw_ns();
  const std::int64_t slack = t.raw_ns() - d;
  if (d <= 0) return util::Time::zero();
  if (slack < 0) return std::nullopt;

  // a(n): n chunks of Θ cover d. b(n): n + 1 gaps of Π − Θ fit the slack.
  // a is non-increasing and b non-decreasing in n, so max(a, b) is least
  // where they cross: at the last n with a(n) ≥ b(n), or just after it.
  const auto a = [&](std::int64_t n) { return d / n + (d % n != 0); };
  const auto b = [&](std::int64_t n) { return p - slack / (n + 1); };
  // The real-valued crossing d/n = Π − (t−d)/(n+1) is the positive root of
  // Π·n² + (Π − t)·n − d = 0 (the second form avoids cancellation).
  const double tp = static_cast<double>(t.raw_ns()) - static_cast<double>(p);
  const double root_disc = std::sqrt(tp * tp + 4.0 * static_cast<double>(p) *
                                                   static_cast<double>(d));
  const double root = tp >= 0
                          ? (tp + root_disc) / (2.0 * static_cast<double>(p))
                          : 2.0 * static_cast<double>(d) / (root_disc - tp);
  // a(n) = 1 for every n ≥ d, so n never needs to pass d.
  std::int64_t n =
      root >= static_cast<double>(d) ? d
                                     : std::max<std::int64_t>(
                                           1, static_cast<std::int64_t>(root));
  while (n > 1 && a(n) < b(n)) --n;
  while (n < d && a(n + 1) >= b(n + 1)) ++n;
  if (a(n) < b(n)) return util::Time::ns(b(n));  // n = 1: b dominates all n
  return util::Time::ns(n < d ? std::min(a(n), b(n + 1)) : a(n));
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

  // Feasibility is the rate condition and one dbf ≤ sbf condition per
  // checkpoint, each monotone in Θ and each true at Π, so the least feasible
  // Θ ≥ ⌊U·Π⌋ (min_budget_edf's bracket) is ⌊U·Π⌋ raised to every
  // condition's own minimum. A condition that held at a smaller Θ still
  // holds after a later raise, so one pass suffices.
  // (U may exceed 1 by the epsilon: the bisection then returned Π.)
  util::Time theta = util::min(
      period, util::Time::ns(static_cast<std::int64_t>(
                  total_util * static_cast<double>(period.raw_ns()))));
  // ⌊U·Π⌋ is at most a nanosecond or two below the rate condition's minimum.
  while (total_util > Prm{period, theta}.bandwidth() + 1e-12)
    theta += util::Time::ns(1);

  const std::size_t n = curve.points.size();
  for (std::size_t k = 0; k < n; ++k) {
    const util::Time t = curve.points[k];
    const util::Time d = curve.demand[k];
    const auto ok = [&](util::Time th) { return d <= Prm{period, th}.sbf(t); };
    if (ok(theta)) continue;
    // The closed form must be this point's minimum by sbf itself; should it
    // ever miss, bisect the point alone over (Θ, Π].
    const auto guess = sbf_min_budget(period, t, d);
    if (guess && *guess > theta && *guess <= period && ok(*guess) &&
        !ok(*guess - util::Time::ns(1))) {
      theta = *guess;
      continue;
    }
    util::Time lo = theta + util::Time::ns(1);
    util::Time hi = period;
    while (lo < hi) {
      const util::Time mid =
          util::Time::ns(lo.raw_ns() + (hi.raw_ns() - lo.raw_ns()) / 2);
      if (ok(mid))
        hi = mid;
      else
        lo = mid + util::Time::ns(1);
    }
    theta = hi;
  }
  return theta;
}

}  // namespace vc2m::analysis

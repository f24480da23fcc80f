#include "core/core_load.h"

#include <numeric>

#include "analysis/schedulability.h"
#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::core {

CoreLoad::CoreLoad(std::span<const model::Vcpu> vcpus,
                   const model::ResourceGrid& grid)
    : vcpus_(vcpus),
      grid_(grid),
      demand_(grid.size()),
      util_(grid.size()) {}

CoreLoad::CoreLoad(std::span<const model::Vcpu> vcpus,
                   const model::ResourceGrid& grid,
                   std::span<const std::size_t> members)
    : CoreLoad(vcpus, grid) {
  for (const std::size_t v : members) add(v);
}

util::Time CoreLoad::budget_at(const model::WcetFn& budget,
                               std::size_t i) const {
  if (budget.grid() == grid_) return budget.flat()[i];
  return budget.at(grid_.c_min + static_cast<unsigned>(i / grid_.bw_levels()),
                   grid_.b_min + static_cast<unsigned>(i % grid_.bw_levels()));
}

void CoreLoad::add(std::size_t vcpu_index) {
  VC2M_CHECK(vcpu_index < vcpus_.size());
  on_core_.push_back(vcpu_index);
  util_.clear();
  if (!exact_) {
    sched_.clear();
    return;
  }

  const std::int64_t p = vcpus_[vcpu_index].period.raw_ns();
  VC2M_CHECK(p > 0);
  const std::int64_t g = std::gcd(common_multiple_, p);
  if (common_multiple_ / g > analysis::kPeriodLcmCap / p) {
    // L would overflow the exact-comparison cap: defer to the fallback
    // test from here on (same verdicts, no incremental accounting).
    exact_ = false;
    sched_ = PointMemo<std::uint8_t>(grid_.size());
    return;
  }
  const std::int64_t next = common_multiple_ / g * p;
  const std::int64_t scale = next / common_multiple_;
  if (scale > 1) {
    for (auto& w : weight_) w *= scale;
    for (const std::size_t i : demand_.points) demand_.value[i] *= scale;
  }
  common_multiple_ = next;
  const std::int64_t w = common_multiple_ / p;
  weight_.push_back(w);

  const auto& budget = vcpus_[vcpu_index].budget;
  for (const std::size_t i : demand_.points)
    demand_.value[i] +=
        static_cast<__int128>(budget_at(budget, i).raw_ns()) * w;
}

std::size_t CoreLoad::remove_at(std::size_t pos) {
  VC2M_CHECK(pos < on_core_.size());
  const std::size_t v = on_core_[pos];
  util_.clear();
  if (exact_) {
    const std::int64_t w = weight_[pos];
    const auto& budget = vcpus_[v].budget;
    for (const std::size_t i : demand_.points)
      demand_.value[i] -=
          static_cast<__int128>(budget_at(budget, i).raw_ns()) * w;
    weight_.erase(weight_.begin() + static_cast<std::ptrdiff_t>(pos));
    // common_multiple_ stays: it remains a common multiple of the
    // remaining periods, which is all the exact comparison needs.
  } else {
    sched_.clear();
  }
  on_core_.erase(on_core_.begin() + static_cast<std::ptrdiff_t>(pos));
  return v;
}

double CoreLoad::utilization(unsigned c, unsigned b) {
  const std::size_t i = grid_.index(c, b);
  if (util_.valid[i]) {
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    return util_.value[i];
  }
  const double u = analysis::core_utilization(vcpus_, on_core_, c, b);
  util_.set(i, u);
  return u;
}

bool CoreLoad::schedulable(unsigned c, unsigned b) {
  const std::size_t i = grid_.index(c, b);
  if (!exact_) {
    if (sched_.valid[i]) {
      const bool ok = sched_.value[i] != 0;
      if (auto* ctr = util::alloc_counters()) {
        ++ctr->load_cache_hits;
        ++ctr->admission_tests;
        ctr->admission_passed += ok ? 1 : 0;
      }
      return ok;
    }
    const bool ok = analysis::core_schedulable(vcpus_, on_core_, c, b);
    sched_.set(i, ok ? 1 : 0);
    return ok;
  }

  if (demand_.valid[i]) {
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
  } else {
    __int128 d = 0;
    for (std::size_t k = 0; k < on_core_.size(); ++k)
      d += static_cast<__int128>(
               budget_at(vcpus_[on_core_[k]].budget, i).raw_ns()) *
           weight_[k];
    demand_.set(i, d);
  }
  const bool ok = demand_.value[i] <= static_cast<__int128>(common_multiple_);
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->admission_tests;
    ctr->admission_passed += ok ? 1 : 0;
  }
  return ok;
}

}  // namespace vc2m::core

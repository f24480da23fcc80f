#include "analysis/dbf.h"

#include <algorithm>
#include <queue>

#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::analysis {

util::Time dbf(std::span<const PTask> tasks, util::Time t) {
  if (auto* ctr = util::alloc_counters()) ++ctr->dbf_evaluations;
  util::Time demand = util::Time::zero();
  for (const auto& tk : tasks) {
    VC2M_CHECK(tk.period > util::Time::zero());
    demand += tk.wcet * (t / tk.period);
  }
  return demand;
}

double total_utilization(std::span<const PTask> tasks) {
  double u = 0;
  for (const auto& tk : tasks) u += tk.wcet.ratio(tk.period);
  return u;
}

util::Time hyperperiod(std::span<const PTask> tasks) {
  util::Time h = util::Time::ns(1);
  for (const auto& tk : tasks) h = util::lcm(h, tk.period);
  return h;
}

std::vector<util::Time> dbf_checkpoints(std::span<const PTask> tasks,
                                        util::Time horizon) {
  std::vector<std::int64_t> periods;
  periods.reserve(tasks.size());
  for (const auto& tk : tasks) {
    VC2M_CHECK(tk.period > util::Time::zero());
    periods.push_back(tk.period.raw_ns());
  }
  std::vector<util::Time> pts;
  merge_checkpoints(periods, horizon, pts);
  return pts;
}

void TaskArrays::assign(std::span<const PTask> tasks) {
  period.clear();
  wcet.clear();
  period.reserve(tasks.size());
  wcet.reserve(tasks.size());
  total_util = 0;
  for (const auto& tk : tasks) {
    VC2M_CHECK(tk.period > util::Time::zero());
    period.push_back(tk.period.raw_ns());
    wcet.push_back(tk.wcet.raw_ns());
    // Same expression as Time::ratio so the sum is bit-identical to
    // total_utilization() over the same span.
    total_util += static_cast<double>(tk.wcet.raw_ns()) /
                  static_cast<double>(tk.period.raw_ns());
  }
}

util::Time TaskArrays::hyperperiod() const {
  util::Time h = util::Time::ns(1);
  for (const std::int64_t p : period) h = util::lcm(h, util::Time::ns(p));
  return h;
}

void demand_at(std::span<const std::int64_t> periods,
               std::span<const std::int64_t> wcets,
               std::span<const util::Time> points,
               std::span<util::Time> out) {
  VC2M_CHECK(periods.size() == wcets.size());
  VC2M_CHECK(out.size() >= points.size());
  if (auto* ctr = util::alloc_counters())
    ctr->dbf_evaluations += points.size();
  const std::size_t n = periods.size();
  for (std::size_t k = 0; k < points.size(); ++k) {
    const std::int64_t t = points[k].raw_ns();
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) acc += wcets[i] * (t / periods[i]);
    out[k] = util::Time::ns(acc);
  }
}

void merge_checkpoints(std::span<const std::int64_t> periods,
                       util::Time horizon, std::vector<util::Time>& out) {
  out.clear();
  const std::int64_t h = horizon.raw_ns();

  // Deduplicate the period streams (equal periods emit identical multiples)
  // and count the pre-dedup total so a pathological horizon/period ratio
  // fails with a clear message instead of attempting a gigabyte push_back
  // loop. unsigned __int128 keeps the count exact even when a single stream
  // alone would overflow 64 bits.
  std::vector<std::int64_t> uniq(periods.begin(), periods.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  unsigned __int128 count = 0;
  for (const std::int64_t p : uniq) {
    VC2M_CHECK_MSG(p > 0, "checkpoint stream requires positive periods");
    count += static_cast<unsigned __int128>(h / p);
  }
  VC2M_CHECK_MSG(
      count <= static_cast<unsigned __int128>(kDbfCheckpointCap),
      "dbf checkpoint count "
          << static_cast<double>(count) << " exceeds the cap "
          << kDbfCheckpointCap
          << " (horizon/period ratios too extreme — e.g. a 1 ns period "
             "against a long horizon); refusing to materialize "
          << static_cast<double>(count) * sizeof(util::Time) * 1e-6
          << " MB of checkpoints");
  out.reserve(static_cast<std::size_t>(count));

  // K-way merge of the arithmetic streams (p, 2p, …): pop the smallest next
  // multiple, emit it once, advance every stream sitting on that value.
  // Emits sorted + deduplicated directly — no materialize-then-sort.
  using Head = std::pair<std::int64_t, std::int64_t>;  // (next, step)
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  for (const std::int64_t p : uniq)
    if (p <= h) heap.push({p, p});
  std::int64_t last = -1;
  while (!heap.empty()) {
    const auto [next, step] = heap.top();
    heap.pop();
    if (next != last) {
      out.push_back(util::Time::ns(next));
      last = next;
    }
    if (next <= h - step) heap.push({next + step, step});
  }
}

void DemandSteps::assign(std::span<const std::int64_t> periods,
                         util::Time horizon) {
  merge_checkpoints(periods, horizon, points);
  std::vector<std::int64_t> uniq(periods.begin(), periods.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  slots = uniq.size();
  slot_of_task.clear();
  for (const std::int64_t p : periods)
    slot_of_task.push_back(static_cast<std::uint32_t>(
        std::lower_bound(uniq.begin(), uniq.end(), p) - uniq.begin()));

  // Every multiple m of a period (m ≤ horizon) is one of the sorted points,
  // so one cursor per period stream finds them all in a single walk.
  const std::int64_t h = horizon.raw_ns();
  const auto walk = [&](auto&& visit) {
    for (std::size_t u = 0; u < uniq.size(); ++u) {
      const std::int64_t p = uniq[u];
      if (p > h) continue;
      std::size_t k = 0;
      for (std::int64_t m = p;; m += p) {
        while (points[k].raw_ns() < m) ++k;
        visit(k, static_cast<std::uint32_t>(u));
        if (m > h - p) break;
      }
    }
  };
  const std::size_t n = points.size();
  step_begin.assign(n + 1, 0);
  walk([&](std::size_t k, std::uint32_t) { ++step_begin[k + 1]; });
  for (std::size_t k = 0; k < n; ++k) step_begin[k + 1] += step_begin[k];
  step_slot.resize(step_begin[n]);
  std::vector<std::uint32_t> fill(step_begin.begin(), step_begin.end() - 1);
  walk([&](std::size_t k, std::uint32_t u) { step_slot[fill[k]++] = u; });
}

void DemandSteps::demand(std::span<const PTask> tasks,
                         std::span<std::int64_t> slot_wcet,
                         std::span<util::Time> out) const {
  VC2M_CHECK(tasks.size() == slot_of_task.size());
  VC2M_CHECK(slot_wcet.size() >= slots && out.size() >= points.size());
  if (auto* ctr = util::alloc_counters())
    ctr->dbf_evaluations += points.size();
  std::fill_n(slot_wcet.begin(), slots, 0);
  for (std::size_t i = 0; i < tasks.size(); ++i)
    slot_wcet[slot_of_task[i]] += tasks[i].wcet.raw_ns();
  std::int64_t acc = 0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    for (std::uint32_t j = step_begin[k]; j < step_begin[k + 1]; ++j)
      acc += slot_wcet[step_slot[j]];
    out[k] = util::Time::ns(acc);
  }
}

}  // namespace vc2m::analysis

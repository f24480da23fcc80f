#include "analysis/context.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "analysis/prm.h"
#include "obs/decision_log.h"
#include "util/phase_profiler.h"
#include "util/thread_pool.h"

namespace vc2m::analysis {

void AnalysisContext::emit_budget_search(
    std::span<const PTask> tasks, util::Time period,
    const std::optional<util::Time>& theta) {
  auto* log = obs::decision_log();
  if (!log) return;
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kBudgetSearch;
  if (theta) {
    e.accepted = true;
    e.value = theta->ratio(period);
    e.margin = 1.0 - e.value;
  } else {
    double u = 0;
    for (const auto& t : tasks) u += t.wcet.ratio(t.period);
    e.constraint = obs::DecisionConstraint::kNoFeasibleBudget;
    e.value = u;
    e.margin = std::max(0.0, u - 1.0);
  }
  log->emit(e);
}

namespace {

struct Fnv1a {  // FNV-1a over 64-bit words
  std::uint64_t h = 1469598103934665603ull;
  void operator()(std::int64_t w) {
    h ^= static_cast<std::uint64_t>(w);
    h *= 1099511628211ull;
  }
};

}  // namespace

AnalysisContext::KeyView::KeyView(util::Time period,
                                  std::span<const PTask> tasks, bool wcets)
    : period(period.raw_ns()), tasks(tasks), wcets(wcets) {
  Fnv1a fnv;
  for_each_word(fnv);
  hash = static_cast<std::size_t>(fnv.h);
}

std::vector<std::int64_t> AnalysisContext::KeyView::words() const {
  std::vector<std::int64_t> key;
  key.reserve((wcets ? 2 : 1) * tasks.size() + 1);
  for_each_word([&](std::int64_t w) { key.push_back(w); });
  return key;
}

std::size_t AnalysisContext::KeyHash::operator()(
    const std::vector<std::int64_t>& key) const {
  Fnv1a fnv;
  for (const std::int64_t w : key) fnv(w);
  return static_cast<std::size_t>(fnv.h);
}

bool AnalysisContext::KeyEq::operator()(
    const KeyView& v, const std::vector<std::int64_t>& key) const {
  if (key.size() != (v.wcets ? 2 : 1) * v.tasks.size() + 1) return false;
  std::size_t i = 0;
  bool same = true;
  v.for_each_word([&](std::int64_t w) { same = same && key[i++] == w; });
  return same;
}

bool AnalysisContext::KeyEq::operator()(const KeyView& a,
                                        const KeyView& b) const {
  return a.period == b.period && a.wcets == b.wcets &&
         std::equal(a.tasks.begin(), a.tasks.end(), b.tasks.begin(),
                    b.tasks.end(), [&](const PTask& x, const PTask& y) {
                      return x.period == y.period &&
                             (!a.wcets || x.wcet == y.wcet);
                    });
}

const DemandSteps& AnalysisContext::checkpoints_for(
    std::span<const PTask> tasks, util::Time period) {
  const KeyView view(period, tasks, false);
  const auto it = checkpoint_cache_.find(view);
  if (it != checkpoint_cache_.end()) return it->second;

  VC2M_PROFILE_PHASE("checkpoints");
  if (auto* ctr = util::alloc_counters()) ++ctr->soa_rebuilds;
  soa_.assign(tasks);
  DemandSteps steps;
  steps.assign(soa_.period, util::lcm(soa_.hyperperiod(), period));
  // unordered_map values are node-stable: the reference survives rehashes.
  return checkpoint_cache_.emplace(view.words(), std::move(steps))
      .first->second;
}

std::optional<util::Time> AnalysisContext::compute_min_budget(
    std::span<const PTask> tasks, util::Time period, const DemandSteps* ck,
    double total_util, util::Arena& scratch) {
  // Mirrors min_budget_edf's early-outs exactly; when neither fires the
  // caller has resolved `ck` (over-utilized groups never build checkpoints,
  // matching the reference path's order of operations).
  if (tasks.empty()) return util::Time::zero();
  if (total_util > 1.0 + 1e-12) return std::nullopt;

  util::Arena::Scope mark(scratch);
  auto slot_wcet = scratch.alloc_array<std::int64_t>(ck->slots);
  auto demand = scratch.alloc_array<util::Time>(ck->points.size());
  ck->demand(tasks, slot_wcet, demand);
  return min_budget_on_curve(DemandCurve{ck->points, demand}, total_util,
                             period);
}

std::optional<util::Time> AnalysisContext::min_budget(
    std::span<const PTask> tasks, util::Time period) {
  const KeyView view(period, tasks, true);
  const auto it = budget_memo_.find(view);
  if (it != budget_memo_.end()) {
    if (auto* ctr = util::alloc_counters()) ++ctr->budget_cache_hits;
    return it->second;
  }

  if (auto* ctr = util::alloc_counters()) ++ctr->budget_evaluations;
  VC2M_PROFILE_PHASE("min_budget");
  const double u = total_utilization(tasks);
  const DemandSteps* ck = nullptr;
  if (!tasks.empty() && u <= 1.0 + 1e-12) ck = &checkpoints_for(tasks, period);
  const std::optional<util::Time> theta =
      compute_min_budget(tasks, period, ck, u, arena_);
  emit_budget_search(tasks, period, theta);
  budget_memo_.emplace(view.words(), theta);
  return theta;
}

std::vector<AnalysisContext::BatchResult> AnalysisContext::min_budget_batch(
    std::span<const std::span<const PTask>> queries, util::Time period) {
  std::vector<BatchResult> out(queries.size());
  if (queries.empty()) return out;
  VC2M_PROFILE_PHASE("min_budget_surface");

  // One distinct, unmemoized query; duplicates within the batch alias it.
  struct Job {
    std::size_t first;  ///< first query index asking this key
    double util = 0;
    const DemandSteps* ck = nullptr;
    std::optional<util::Time> theta;
    util::AllocCounters counters;  ///< striped runs only
  };
  std::vector<Job> jobs;
  std::vector<std::size_t> job_of(queries.size(), SIZE_MAX);
  // Keyed by views into `queries`, which outlive the batch.
  std::unordered_map<KeyView, std::size_t, KeyHash, KeyEq> batch_index;
  batch_index.reserve(queries.size());

  // Serial pass 1 — memo and duplicate resolution, with counter semantics
  // identical to a serial min_budget() loop over the queries: fresh key →
  // budget_evaluations, repeated or memoized key → budget_cache_hits.
  auto* ctr = util::alloc_counters();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const KeyView view(period, queries[q], true);
    if (const auto hit = budget_memo_.find(view); hit != budget_memo_.end()) {
      if (ctr) ++ctr->budget_cache_hits;
      out[q] = BatchResult{hit->second, false};
      continue;
    }
    const auto [dup, fresh] = batch_index.emplace(view, jobs.size());
    if (!fresh) {
      // A serial loop would have memoized the first occurrence already.
      if (ctr) ++ctr->budget_cache_hits;
      job_of[q] = dup->second;
      continue;
    }
    if (ctr) ++ctr->budget_evaluations;
    job_of[q] = jobs.size();
    jobs.push_back(Job{q, total_utilization(queries[q]), nullptr,
                       std::nullopt, util::AllocCounters{}});
  }

  if (!jobs.empty()) {
    if (ctr) ctr->inner_tasks += jobs.size();

    // Serial pass 2 — resolve checkpoint streams. Cache fills (and any
    // lcm-overflow / checkpoint-cap failure they raise) happen here in
    // deterministic batch order, never on a worker. Over-utilized groups
    // skip the build, like the reference path.
    for (auto& job : jobs)
      if (!queries[job.first].empty() && job.util <= 1.0 + 1e-12)
        job.ck = &checkpoints_for(queries[job.first], period);

    const std::size_t stripes =
        (inner_pool_ != nullptr && inner_jobs_ > 1)
            ? std::min<std::size_t>(static_cast<std::size_t>(inner_jobs_),
                                    jobs.size())
            : 1;
    if (stripes <= 1) {
      // Serial compute: counters land directly in the context scope, in job
      // order — the baseline the striped path reproduces.
      for (auto& job : jobs)
        job.theta = compute_min_budget(queries[job.first], period, job.ck,
                                       job.util, arena_);
    } else {
      // Striped compute: job j runs on stripe j % stripes. Each stripe has
      // its own arena (arenas are single-threaded) and each job its own
      // counter scope (null parent on a pool worker, so nothing merges
      // implicitly); the slots are merged below on the calling thread.
      // Every counter a job touches is a uint64 add, so the totals are
      // bit-identical to the serial path regardless of stripe count.
      //
      // The batch waits on its own latch, not ThreadPool::wait(): pool
      // tasks must not call wait(), and the pool may be shared by batches
      // of concurrently running solves.
      std::vector<util::Arena> stripe_arenas(stripes);
      std::mutex mu;
      std::condition_variable cv;
      std::size_t remaining = stripes;
      std::exception_ptr error;
      for (std::size_t s = 0; s < stripes; ++s) {
        inner_pool_->submit([&, s] {
          try {
            for (std::size_t j = s; j < jobs.size(); j += stripes) {
              util::AllocCounterScope scope;
              jobs[j].theta = compute_min_budget(
                  queries[jobs[j].first], period, jobs[j].ck, jobs[j].util,
                  stripe_arenas[s]);
              jobs[j].counters = scope.counters();
            }
          } catch (...) {
            const std::lock_guard<std::mutex> lk(mu);
            if (!error) error = std::current_exception();
          }
          {
            // Notify while still holding the mutex: the waiter cannot
            // return from wait() (and destroy cv/mu/the arenas) until this
            // unlock, so the notify never touches a dead condvar.
            const std::lock_guard<std::mutex> lk(mu);
            --remaining;
            cv.notify_one();
          }
        });
      }
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return remaining == 0; });
      lk.unlock();
      if (error) std::rethrow_exception(error);
      if (ctr)
        for (const auto& job : jobs) ctr->merge(job.counters);
    }

    for (const auto& job : jobs)
      budget_memo_.emplace(KeyView(period, queries[job.first], true).words(),
                           job.theta);
  }

  for (std::size_t q = 0; q < queries.size(); ++q)
    if (job_of[q] != SIZE_MAX)
      out[q] = BatchResult{jobs[job_of[q]].theta,
                           q == jobs[job_of[q]].first};
  return out;
}

}  // namespace vc2m::analysis

// Shared memoization context for one allocation run.
//
// Both allocation levels (vm_alloc, hv_alloc) and the online paths
// (admission, exact search) ask the same analysis questions repeatedly: the
// existing-CSA minimum budget for a task group at a grid point, and the
// effort counters everything reports through. An AnalysisContext is created
// once per run (one solve(), one admission decision), threaded through both
// levels, and memoizes those answers — so a budget computed while
// parameterizing a VCPU is never re-derived by a later stage asking for the
// identical (period, taskset) pair.
//
// The memo is bit-identity-preserving: a hit returns exactly the value the
// unmemoized analysis::min_budget_edf call produced for the identical key.
// Beyond the memo, the context owns the analysis hot path
// (docs/performance.md):
//  - a per-solve bump Arena for all scratch (checkpoint buffers, demand
//    curves, per-cell task views, packing work arrays);
//  - a checkpoint cache keyed by (Π, periods): every grid cell of one VCPU
//    shares one sorted checkpoint stream and its demand step lists, so a
//    cell's demand is a running sum and its budget one pass over the
//    stream;
//  - min_budget_batch(), which answers a whole min-budget surface in one
//    call, optionally striping the per-cell searches over a thread pool
//    with a serial-order reduction so results *and* AllocCounters are
//    bit-identical at any inner-jobs count.
//
// The span-of-PTask kernels (dbf in analysis/dbf.h, min_budget_edf in
// analysis/prm.h) are the reference this context is tested against, not a
// runtime alternative: tests/test_analysis.cpp checks min_budget and
// min_budget_batch against min_budget_edf on random task groups, and
// tests/test_golden.cpp pins the allocations of whole sweeps.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/dbf.h"
#include "util/arena.h"
#include "util/instrument.h"
#include "util/time.h"

namespace vc2m::util {
class ThreadPool;
}

namespace vc2m::analysis {

class AnalysisContext {
 public:
  /// Opens an AllocCounterScope: every instrumented call made while this
  /// context is alive lands in counters() (and merges into any enclosing
  /// scope on destruction). Use on one thread only (min_budget_batch may
  /// fan work out to a configured pool, but the context API itself is
  /// single-caller).
  AnalysisContext() = default;
  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  /// Memoized analysis::min_budget_edf, computed in one pass over the
  /// cached checkpoint stream. Returns exactly what min_budget_edf(tasks,
  /// period) returns.
  std::optional<util::Time> min_budget(std::span<const PTask> tasks,
                                       util::Time period);

  /// One query of a min-budget surface batch. `searched` is true when this
  /// query ran a fresh search (a memo miss — exactly the queries for which
  /// a serial ctx.min_budget() sequence would have emitted a kBudgetSearch
  /// decision event; use emit_budget_search() to reproduce it).
  struct BatchResult {
    std::optional<util::Time> theta;
    bool searched = false;
  };

  /// Answer `queries` (task groups sharing the VCPU period Π) exactly as a
  /// serial loop of min_budget(queries[j], period) would — same memo
  /// hit/miss pattern, same budget_evaluations/budget_cache_hits, same
  /// minima — with duplicate queries coalesced and the distinct searches
  /// optionally striped over the pool configured via
  /// set_inner_parallelism(). Counters from striped work are merged in
  /// job-index order on the calling thread, so AllocCounters totals are
  /// bit-identical at any inner-jobs value (docs/performance.md spells out
  /// the determinism contract). Emits no decision events; the caller
  /// replays them in cell order to keep event streams identical too.
  std::vector<BatchResult> min_budget_batch(
      std::span<const std::span<const PTask>> queries, util::Time period);

  /// Emit the kBudgetSearch decision event a serial min_budget(tasks,
  /// period) miss would have emitted for this outcome (no-op when no
  /// decision log is active).
  static void emit_budget_search(std::span<const PTask> tasks,
                                 util::Time period,
                                 const std::optional<util::Time>& theta);

  /// Configure intra-solve parallelism for min_budget_batch: stripe the
  /// per-cell searches over `pool` with `jobs` stripes. `pool` is borrowed
  /// and must not be the pool whose worker is calling the batch (the batch
  /// blocks until its stripes finish). jobs <= 1 or a null pool means
  /// serial. Results and counters do not depend on the setting.
  void set_inner_parallelism(util::ThreadPool* pool, int jobs) {
    inner_pool_ = pool;
    inner_jobs_ = jobs;
  }

  /// Telemetry correlation: the id of the service request this context is
  /// solving for (-1 = not request-scoped). Purely informational — nothing
  /// in the analysis reads it; the admission layer stamps it so span-level
  /// tooling can attribute a context's counters to one request.
  void set_request_id(std::int64_t id) { request_id_ = id; }
  std::int64_t request_id() const { return request_id_; }

  /// The per-solve scratch arena. Callers may draw scratch from it under an
  /// Arena::Scope mark; everything is reclaimed when the context dies.
  util::Arena& arena() { return arena_; }

  /// The effort counters collected so far by this context's scope.
  const util::AllocCounters& counters() const { return scope_.counters(); }

 private:
  // Keys are flat words in caller order: [Π, p_0, e_0, p_1, e_1, ...] for
  // the budget memo, [Π, p_0, p_1, ...] for the checkpoint cache (identical
  // queries build identical task vectors, so order sensitivity costs nothing
  // and avoids a canonicalization pass). A lookup hashes and compares the
  // query's PTask span in place through a KeyView (heterogeneous lookup); a
  // key vector is built only when an entry is inserted.
  struct KeyView {
    KeyView(util::Time period, std::span<const PTask> tasks, bool wcets);
    template <class F>
    void for_each_word(F&& f) const {
      f(period);
      for (const auto& t : tasks) {
        f(t.period.raw_ns());
        if (wcets) f(t.wcet.raw_ns());
      }
    }
    std::vector<std::int64_t> words() const;

    std::int64_t period;
    std::span<const PTask> tasks;
    bool wcets;        ///< budget key (p, e pairs) vs checkpoint key (p only)
    std::size_t hash;  ///< FNV-1a over the words, computed once
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const std::vector<std::int64_t>& key) const;
    std::size_t operator()(const KeyView& v) const { return v.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const std::vector<std::int64_t>& a,
                    const std::vector<std::int64_t>& b) const {
      return a == b;
    }
    bool operator()(const KeyView& v,
                    const std::vector<std::int64_t>& key) const;
    bool operator()(const std::vector<std::int64_t>& key,
                    const KeyView& v) const {
      return (*this)(v, key);
    }
    bool operator()(const KeyView& a, const KeyView& b) const;
  };

  /// Cache lookup/build for the checkpoint stream and demand step lists of
  /// (tasks' periods, Π), shared by every wcet surface (grid cell) asking
  /// about the same periods. Serial only (called before any striped
  /// dispatch). Counts soa_rebuilds on build.
  const DemandSteps& checkpoints_for(std::span<const PTask> tasks,
                                     util::Time period);

  /// The min-budget computation (no memo, no events): demand as a running
  /// sum over the cached step lists, then one raise-only pass over the
  /// checkpoints. `scratch` backs the demand column. Bit-identical result to
  /// min_budget_edf(tasks, period).
  std::optional<util::Time> compute_min_budget(std::span<const PTask> tasks,
                                               util::Time period,
                                               const DemandSteps* ck,
                                               double total_util,
                                               util::Arena& scratch);

  std::unordered_map<std::vector<std::int64_t>, std::optional<util::Time>,
                     KeyHash, KeyEq>
      budget_memo_;
  std::unordered_map<std::vector<std::int64_t>, DemandSteps, KeyHash, KeyEq>
      checkpoint_cache_;
  TaskArrays soa_;  ///< reusable SoA build buffer for cache fills
  util::Arena arena_;
  util::ThreadPool* inner_pool_ = nullptr;
  int inner_jobs_ = 1;
  std::int64_t request_id_ = -1;
  util::AllocCounterScope scope_;
};

}  // namespace vc2m::analysis

// Lightweight allocator instrumentation counters.
//
// The analysis and allocation layers increment these counters while a
// collection scope is active (solve(), admit_vm(), the benches); with no
// scope the hooks are a single thread-local pointer test, so the hot paths
// stay effectively free when nobody is measuring. The observability layer
// (src/obs) converts a populated AllocCounters into registry metrics.
#pragma once

#include <cstdint>

namespace vc2m::util {

// The effort counters, listed once: X(type, name, report label, exempt).
// Every per-field operation — merge() below, the alloc.* registry metrics
// (obs::record_alloc_counters), the bench-report counter map
// (obs::set_counters), the allocator-effort table (obs::write_alloc_effort)
// and perfdiff's exemption list — is generated from this table. `exempt`
// marks counters where growth is not more effort (more memo reuse, more
// admissions passed, convergence deltas, scratch routed through an arena,
// batched cells); perfdiff never flags those as regressions.
//
//  - kmeans_*: k-means clustering at VM and hypervisor level;
//    kmeans_final_shift sums, over runs, how far the centroids moved in
//    each run's last update step (Σ_c of the squared distance from the
//    centroid before that step to the one after), the convergence delta
//    at which the assignment settled or the iteration cap cut it off.
//  - admission_tests/admission_passed: core_schedulable() calls;
//    dbf_evaluations: dbf(t) evaluations.
//  - budget_evaluations/budget_cache_hits: min-budget searches performed /
//    served from the analysis::AnalysisContext memo; load_cache_hits:
//    core::CoreLoad Σ Θ/Π served cached.
//  - candidate_packings, partition_grants, vcpu_migrations: hypervisor
//    phases 1, 2 and 3.
//  - arena_bytes: rounded scratch-arena allocation requests (a pure
//    function of the work, unlike a high-water mark); soa_rebuilds:
//    checkpoint/SoA cache entries built; inner_tasks: min-budget cells
//    computed by the batch engine, serially or striped over the pool.
//
// All are deterministic at any --jobs / --inner-jobs.
#define VC2M_ALLOC_COUNTERS(X)                                              \
  X(std::uint64_t, kmeans_runs, "k-means runs", false)                     \
  X(std::uint64_t, kmeans_iterations, "k-means iterations", false)         \
  X(double, kmeans_final_shift, "k-means final shift", true)               \
  X(std::uint64_t, admission_tests, "admission tests", false)              \
  X(std::uint64_t, admission_passed, "admission passed", true)             \
  X(std::uint64_t, dbf_evaluations, "dbf evaluations", false)              \
  X(std::uint64_t, budget_evaluations, "min-budget searches", false)       \
  X(std::uint64_t, budget_cache_hits, "budget memo hits", true)            \
  X(std::uint64_t, load_cache_hits, "core-load memo hits", true)           \
  X(std::uint64_t, candidate_packings, "candidate packings", false)        \
  X(std::uint64_t, partition_grants, "partition grants", false)            \
  X(std::uint64_t, vcpu_migrations, "vcpu migrations", false)              \
  X(std::uint64_t, arena_bytes, "arena bytes", true)                       \
  X(std::uint64_t, soa_rebuilds, "checkpoint set builds", false)           \
  X(std::uint64_t, inner_tasks, "batched budget queries", true)

/// What the allocator actually did for one solve. All counters are
/// cumulative over the scope. Wall time is the phase profiler's job
/// (util/phase_profiler.h: the vm_alloc / hv_alloc phases), not a counter.
struct AllocCounters {
#define VC2M_ALLOC_FIELD(type, name, label, exempt) type name = 0;
  VC2M_ALLOC_COUNTERS(VC2M_ALLOC_FIELD)
#undef VC2M_ALLOC_FIELD

  void merge(const AllocCounters& o) {
#define VC2M_ALLOC_MERGE(type, name, label, exempt) name += o.name;
    VC2M_ALLOC_COUNTERS(VC2M_ALLOC_MERGE)
#undef VC2M_ALLOC_MERGE
  }
};

namespace detail {
inline thread_local AllocCounters* g_alloc_counters = nullptr;
}

/// The active collector, or nullptr when no scope is open. Instrumented
/// code uses `if (auto* c = alloc_counters()) ++c->...;`.
inline AllocCounters* alloc_counters() { return detail::g_alloc_counters; }

/// RAII collection scope. Scopes nest: an inner scope shadows the outer
/// one and merges its counts into it on destruction, so a caller measuring
/// a whole experiment still sees the totals of nested solves.
class AllocCounterScope {
 public:
  AllocCounterScope() : prev_(detail::g_alloc_counters) {
    detail::g_alloc_counters = &counters_;
  }
  ~AllocCounterScope() {
    detail::g_alloc_counters = prev_;
    if (prev_) prev_->merge(counters_);
  }
  AllocCounterScope(const AllocCounterScope&) = delete;
  AllocCounterScope& operator=(const AllocCounterScope&) = delete;

  const AllocCounters& counters() const { return counters_; }

 private:
  AllocCounters counters_;
  AllocCounters* prev_;
};

}  // namespace vc2m::util

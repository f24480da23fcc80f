#include "core/hv_alloc.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "analysis/schedulability.h"
#include "core/core_load.h"
#include "core/kmeans.h"
#include "core/packing.h"
#include "obs/decision_log.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/phase_profiler.h"

namespace vc2m::core {

unsigned HvAllocResult::total_cache() const {
  unsigned t = 0;
  for (const unsigned c : cache) t += c;
  return t;
}

unsigned HvAllocResult::total_bw() const {
  unsigned t = 0;
  for (const unsigned b : bw) t += b;
  return t;
}

namespace {

/// Working state of one candidate mapping: a CoreLoad per core (the
/// incremental membership/Σ Θ/Π accounts) plus its partition counts.
struct CoreState {
  std::vector<CoreLoad> cores;
  std::vector<unsigned> cache;
  std::vector<unsigned> bw;
};

double util_of(CoreState& st, std::size_t core) {
  return st.cores[core].utilization(st.cache[core], st.bw[core]);
}

bool sched_of(CoreState& st, std::size_t core) {
  return st.cores[core].schedulable(st.cache[core], st.bw[core]);
}

bool all_schedulable(CoreState& st) {
  for (std::size_t i = 0; i < st.cores.size(); ++i)
    if (!sched_of(st, i)) return false;
  return true;
}

/// Record why a grant loop stopped: which pool (or gain) bound, and how far
/// the closest unschedulable core still was from Σ Θ/Π ≤ 1.
void log_grant_exhausted(obs::DecisionLog& log, CoreState& st,
                         const std::vector<std::size_t>& unsched,
                         unsigned pool_c, unsigned pool_b,
                         const model::ResourceGrid& grid) {
  bool could_c = false, could_b = false;
  for (const std::size_t i : unsched) {
    could_c = could_c || (pool_c > 0 && st.cache[i] < grid.c_max);
    could_b = could_b || (pool_b > 0 && st.bw[i] < grid.b_max);
  }
  double min_excess = std::numeric_limits<double>::infinity();
  std::size_t closest = unsched.front();
  for (const std::size_t i : unsched) {
    const double excess = util_of(st, i) - 1.0;
    if (excess < min_excess) {
      min_excess = excess;
      closest = i;
    }
  }
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kGrantExhausted;
  e.constraint = (could_c || could_b)
                     ? obs::DecisionConstraint::kNoBeneficialGrant
                     : (pool_c == 0 ? obs::DecisionConstraint::kCachePoolExhausted
                                    : obs::DecisionConstraint::kBwPoolExhausted);
  e.core = static_cast<std::int32_t>(closest);
  e.cache = static_cast<std::int32_t>(pool_c);
  e.bw = static_cast<std::int32_t>(pool_b);
  e.value = util_of(st, closest);
  e.margin = std::max(0.0, min_excess);
  log.emit(e);
}

/// Phase 1: pack clusters (in permutation order) worst-fit decreasing by
/// reference utilization onto m cores.
CoreState phase1_pack(std::span<const model::Vcpu> vcpus,
                      const std::vector<std::vector<std::size_t>>& clusters,
                      const std::vector<std::size_t>& perm, unsigned m,
                      const model::ResourceGrid& grid) {
  CoreState st;
  st.cores.assign(m, CoreLoad(vcpus, grid));
  st.cache.assign(m, grid.c_min);
  st.bw.assign(m, grid.b_min);

  std::vector<double> ref_load(m, 0);
  for (const std::size_t ci : perm) {
    std::vector<std::size_t> order = clusters[ci];
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return vcpus[a].reference_utilization() >
             vcpus[b].reference_utilization();
    });
    for (const std::size_t v : order) {
      const std::size_t least = packing::worst_fit_bin(ref_load);
      st.cores[least].add(v);
      ref_load[least] += vcpus[v].reference_utilization();
    }
  }
  return st;
}

/// Phase 2: grow per-core cache/BW from (C_min, B_min), always granting the
/// partition with the largest utilization reduction on an unschedulable
/// core (or cycling grants round-robin under the ablation policy).
/// Returns true iff the system became schedulable.
bool phase2_resources(CoreState& st, const model::PlatformSpec& platform,
                      HvAllocConfig::Phase2Policy policy) {
  const auto& grid = platform.grid;
  const unsigned m = static_cast<unsigned>(st.cores.size());
  for (std::size_t i = 0; i < m; ++i) {
    st.cache[i] = grid.c_min;
    st.bw[i] = grid.b_min;
  }
  unsigned pool_c = platform.total_cache() - m * grid.c_min;
  unsigned pool_b = platform.total_bw() - m * grid.b_min;

  std::size_t rr_cursor = 0;  // round-robin state for the ablation policy
  std::vector<std::size_t> unsched;  // reused across grant iterations
  unsched.reserve(m);
  while (true) {
    unsched.clear();
    for (std::size_t i = 0; i < m; ++i)
      if (!sched_of(st, i)) unsched.push_back(i);
    if (unsched.empty()) return true;

    if (policy == HvAllocConfig::Phase2Policy::kRoundRobin) {
      // Ablation: grant alternating cache/BW partitions to unschedulable
      // cores in cyclic order, ignoring the utilization gain.
      bool granted = false;
      for (std::size_t attempt = 0;
           attempt < 2 * unsched.size() && !granted; ++attempt) {
        const std::size_t i = unsched[(rr_cursor / 2) % unsched.size()];
        const bool want_cache = rr_cursor % 2 == 0;
        ++rr_cursor;
        if (want_cache && pool_c > 0 && st.cache[i] < grid.c_max) {
          ++st.cache[i];
          --pool_c;
          granted = true;
        } else if (!want_cache && pool_b > 0 && st.bw[i] < grid.b_max) {
          ++st.bw[i];
          --pool_b;
          granted = true;
        }
        if (granted) {
          if (auto* ctr = util::alloc_counters()) ++ctr->partition_grants;
          if (auto* log = obs::decision_log()) {
            obs::DecisionEvent e;
            e.kind = obs::DecisionKind::kPartitionGrant;
            e.accepted = true;
            e.core = static_cast<std::int32_t>(i);
            e.cache = static_cast<std::int32_t>(st.cache[i]);
            e.bw = static_cast<std::int32_t>(st.bw[i]);
            e.value = util_of(st, i);
            log->emit(e);
          }
        }
      }
      if (!granted) {
        if (auto* log = obs::decision_log())
          log_grant_exhausted(*log, st, unsched, pool_c, pool_b, grid);
        return false;  // pools dry or cores saturated
      }
      continue;
    }

    // The grant with the highest utilization reduction, over all
    // unschedulable cores and both resource kinds.
    double best_gain = 0;
    std::size_t best_core = m;
    bool best_is_cache = false;
    for (const std::size_t i : unsched) {
      const double u_now = util_of(st, i);
      if (pool_c > 0 && st.cache[i] < grid.c_max) {
        const double gain =
            u_now - st.cores[i].utilization(st.cache[i] + 1, st.bw[i]);
        if (gain > best_gain) {
          best_gain = gain;
          best_core = i;
          best_is_cache = true;
        }
      }
      if (pool_b > 0 && st.bw[i] < grid.b_max) {
        const double gain =
            u_now - st.cores[i].utilization(st.cache[i], st.bw[i] + 1);
        if (gain > best_gain) {
          best_gain = gain;
          best_core = i;
          best_is_cache = false;
        }
      }
    }
    if (best_core == m || best_gain <= 1e-15) {  // no impact
      if (auto* log = obs::decision_log())
        log_grant_exhausted(*log, st, unsched, pool_c, pool_b, grid);
      return false;
    }
    if (auto* ctr = util::alloc_counters()) ++ctr->partition_grants;
    if (best_is_cache) {
      ++st.cache[best_core];
      --pool_c;
    } else {
      ++st.bw[best_core];
      --pool_b;
    }
    if (auto* log = obs::decision_log()) {
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kPartitionGrant;
      e.accepted = true;
      e.core = static_cast<std::int32_t>(best_core);
      e.cache = static_cast<std::int32_t>(st.cache[best_core]);
      e.bw = static_cast<std::int32_t>(st.bw[best_core]);
      e.value = best_gain;  // utilization reduction bought by this grant
      log->emit(e);
    }
  }
}

/// Phase 3: migrate VCPUs away from unschedulable cores. Destination is the
/// schedulable core least utilized after the move; the migrated VCPU is the
/// largest one the destination can absorb while staying schedulable, else
/// the smallest VCPU on the overloaded core. Returns true iff any VCPU
/// moved.
bool phase3_balance(std::span<const model::Vcpu> vcpus, CoreState& st) {
  const std::size_t m = st.cores.size();
  bool moved_any = false;

  for (std::size_t i = 0; i < m; ++i) {
    unsigned guard = 0;
    while (!sched_of(st, i) && !st.cores[i].empty() && guard++ < 64) {
      // Least-utilized currently-schedulable destination (≠ i).
      std::size_t dest = m;
      double dest_util = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < m; ++j) {
        if (j == i || !sched_of(st, j)) continue;
        const double u = util_of(st, j);
        if (u < dest_util) {
          dest_util = u;
          dest = j;
        }
      }
      if (dest == m) {  // nowhere to migrate
        if (auto* log = obs::decision_log()) {
          obs::DecisionEvent e;
          e.kind = obs::DecisionKind::kMigration;
          e.constraint = obs::DecisionConstraint::kCoreOverUtilized;
          e.core = static_cast<std::int32_t>(i);
          e.value = util_of(st, i);
          e.margin = std::max(0.0, e.value - 1.0);
          log->emit(e);
        }
        return moved_any;
      }

      // Largest VCPU the destination absorbs while staying schedulable.
      const auto& src = st.cores[i].members();
      std::size_t pick_pos = src.size();
      double pick_util = -1;
      std::size_t fallback_pos = 0;
      double fallback_util = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < src.size(); ++p) {
        const double uv =
            vcpus[src[p]].utilization(st.cache[i], st.bw[i]);
        const double uv_dest =
            vcpus[src[p]].utilization(st.cache[dest], st.bw[dest]);
        if (dest_util + uv_dest <= 1.0 && uv > pick_util) {
          pick_util = uv;
          pick_pos = p;
        }
        if (uv < fallback_util) {
          fallback_util = uv;
          fallback_pos = p;
        }
      }
      const std::size_t pos = pick_pos < src.size() ? pick_pos : fallback_pos;
      const std::size_t moved = st.cores[i].remove_at(pos);
      st.cores[dest].add(moved);
      moved_any = true;
      if (auto* ctr = util::alloc_counters()) ++ctr->vcpu_migrations;
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kMigration;
        e.accepted = true;
        e.entity = static_cast<std::int32_t>(moved);
        e.core = static_cast<std::int32_t>(dest);
        e.value = vcpus[moved].utilization(st.cache[dest], st.bw[dest]);
        log->emit(e);
      }
    }
  }
  return moved_any;
}

HvAllocResult to_result(CoreState&& st, bool schedulable) {
  HvAllocResult res;
  res.schedulable = schedulable;
  res.cores_used = static_cast<unsigned>(st.cores.size());
  res.vcpus_on_core.reserve(st.cores.size());
  for (const auto& core : st.cores) res.vcpus_on_core.push_back(core.members());
  res.cache = std::move(st.cache);
  res.bw = std::move(st.bw);
  return res;
}

}  // namespace

HvAllocResult allocate_heuristic(std::span<const model::Vcpu> vcpus,
                                 const model::PlatformSpec& platform,
                                 const HvAllocConfig& cfg, util::Rng& rng) {
  VC2M_CHECK(!vcpus.empty());
  VC2M_PROFILE_PHASE("hv_alloc");
  const auto& grid = platform.grid;

  // Fast infeasibility screens at the full allocation (C, B).
  double best_total = 0;
  bool screened_out = false;
  for (std::size_t vi = 0; vi < vcpus.size(); ++vi) {
    const double u = vcpus[vi].utilization(grid.c_max, grid.b_max);
    if (u > 1.0) {  // one VCPU exceeds any core
      auto* log = obs::decision_log();
      if (!log) return HvAllocResult{};
      // Recording on: keep scanning so every oversized VCPU (and its VM)
      // gets a rejection event — same verdict, complete provenance.
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kVcpuScreen;
      e.constraint = obs::DecisionConstraint::kVcpuExceedsCore;
      e.vm = vcpus[vi].vm;
      e.entity = static_cast<std::int32_t>(vi);
      e.cache = static_cast<std::int32_t>(grid.c_max);
      e.bw = static_cast<std::int32_t>(grid.b_max);
      e.value = u;
      e.margin = u - 1.0;
      log->emit(e);
      screened_out = true;
    }
    best_total += u;
  }
  if (screened_out) return HvAllocResult{};
  if (best_total > static_cast<double>(platform.cores)) {
    if (auto* log = obs::decision_log()) {
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kCapacityScreen;
      e.constraint = obs::DecisionConstraint::kUtilizationExceedsCores;
      e.core = static_cast<std::int32_t>(platform.cores);
      e.value = best_total;
      e.margin = best_total - static_cast<double>(platform.cores);
      log->emit(e);
    }
    return HvAllocResult{};
  }

  // Cluster VCPUs by slowdown vector once; reused for every core count.
  // The rows are freed before packing.
  const std::size_t k =
      cfg.cluster_vcpus ? std::min(cfg.clusters, vcpus.size()) : 1;
  const auto clusters = [&] {
    const std::size_t dim = vcpus.front().budget.grid().size();
    std::vector<double> points(vcpus.size() * dim);
    for (std::size_t r = 0; r < vcpus.size(); ++r)
      vcpus[r].budget.write_slowdown(std::span(points).subspan(r * dim, dim));
    VC2M_PROFILE_PHASE("cluster");
    return cluster_members(kmeans(points, dim, k, rng), k);
  }();

  for (unsigned m = 1; m <= platform.cores; ++m) {
    if (m * grid.c_min > platform.total_cache() ||
        m * grid.b_min > platform.total_bw())
      break;  // larger m cannot satisfy the per-core minimums either
    for (unsigned perm_iter = 0; perm_iter < cfg.max_permutations;
         ++perm_iter) {
      CoreState st = [&] {
        VC2M_PROFILE_PHASE("phase1_pack");
        return phase1_pack(vcpus, clusters, rng.permutation(k), m, grid);
      }();
      if (auto* ctr = util::alloc_counters()) ++ctr->candidate_packings;
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kPackingCandidate;
        e.accepted = true;
        e.entity = static_cast<std::int32_t>(perm_iter);
        e.core = static_cast<std::int32_t>(m);
        e.value = static_cast<double>(vcpus.size());
        log->emit(e);
      }
      for (unsigned round = 0; round < cfg.max_balance_rounds; ++round) {
        bool feasible;
        {
          VC2M_PROFILE_PHASE("phase2_resources");
          feasible = phase2_resources(st, platform, cfg.phase2);
        }
        if (feasible) return to_result(std::move(st), true);
        if (!cfg.load_balance) break;  // ablation: no Phase 3
        bool improved;
        {
          VC2M_PROFILE_PHASE("phase3_balance");
          improved = phase3_balance(vcpus, st);
        }
        if (!improved) break;  // no benefit in balancing
      }
    }
  }
  if (auto* log = obs::decision_log()) {
    // Every candidate at every core count failed; the per-candidate
    // kGrantExhausted events above carry the specific margins.
    obs::DecisionEvent e;
    e.kind = obs::DecisionKind::kHvAttempt;
    e.constraint = obs::DecisionConstraint::kCoreLimit;
    e.core = static_cast<std::int32_t>(platform.cores);
    e.value = best_total;
    log->emit(e);
  }
  return HvAllocResult{};
}

HvAllocResult allocate_even_partition(std::span<const model::Vcpu> vcpus,
                                      const model::PlatformSpec& platform) {
  VC2M_CHECK(!vcpus.empty());
  VC2M_PROFILE_PHASE("hv_alloc");
  VC2M_PROFILE_PHASE("even_partition");
  const auto& grid = platform.grid;
  const unsigned m = platform.cores;
  const unsigned c_even =
      std::max(grid.c_min, platform.total_cache() / m);
  const unsigned b_even = std::max(grid.b_min, platform.total_bw() / m);
  VC2M_CHECK_MSG(m * grid.c_min <= platform.total_cache() &&
                     m * grid.b_min <= platform.total_bw(),
                 "platform cannot give every core the minimum partitions");

  std::vector<double> weights;
  weights.reserve(vcpus.size());
  for (const auto& v : vcpus) weights.push_back(v.utilization(c_even, b_even));

  auto bins = packing::best_fit_decreasing(weights, 1.0, m);
  if (!bins) {
    if (auto* log = obs::decision_log()) {
      double w_max = 0;
      std::size_t worst = 0;
      for (std::size_t vi = 0; vi < weights.size(); ++vi)
        if (weights[vi] > w_max) {
          w_max = weights[vi];
          worst = vi;
        }
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kBinPack;
      e.constraint = w_max > 1.0
                         ? obs::DecisionConstraint::kVcpuExceedsCore
                         : obs::DecisionConstraint::kCoreLimit;
      e.vm = vcpus[worst].vm;
      e.entity = static_cast<std::int32_t>(worst);
      e.core = static_cast<std::int32_t>(m);
      e.cache = static_cast<std::int32_t>(c_even);
      e.bw = static_cast<std::int32_t>(b_even);
      e.value = w_max;
      e.margin = std::max(0.0, w_max - 1.0);
      log->emit(e);
    }
    return HvAllocResult{};
  }

  CoreState st;
  st.cores.reserve(bins->size());
  for (const auto& bin : *bins) st.cores.emplace_back(vcpus, grid, bin);
  st.cache.assign(st.cores.size(), c_even);
  st.bw.assign(st.cores.size(), b_even);
  const bool ok = all_schedulable(st);
  if (!ok) {
    if (auto* log = obs::decision_log()) {
      for (std::size_t i = 0; i < st.cores.size(); ++i) {
        if (sched_of(st, i)) continue;
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kHvAttempt;
        e.constraint = obs::DecisionConstraint::kCoreOverUtilized;
        e.core = static_cast<std::int32_t>(i);
        e.cache = static_cast<std::int32_t>(c_even);
        e.bw = static_cast<std::int32_t>(b_even);
        e.value = util_of(st, i);
        e.margin = std::max(0.0, e.value - 1.0);
        // The VM of the core's heaviest VCPU: the most likely culprit.
        double u_max = -1;
        for (const std::size_t v : st.cores[i].members()) {
          const double uv = vcpus[v].utilization(c_even, b_even);
          if (uv > u_max) {
            u_max = uv;
            e.vm = vcpus[v].vm;
            e.entity = static_cast<std::int32_t>(v);
          }
        }
        log->emit(e);
      }
    }
  }
  return to_result(std::move(st), ok);
}

}  // namespace vc2m::core

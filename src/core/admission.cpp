#include "core/admission.h"

#include <algorithm>
#include <optional>

#include "analysis/context.h"
#include "core/core_load.h"
#include "obs/decision_log.h"
#include "util/error.h"

namespace vc2m::core {
namespace {

/// Minimal (cache, bw) the core behind `cl` needs to absorb its VCPU set,
/// growing from its current allocation with max-gain grants bounded by the
/// free pools. Returns the final allocation or nullopt. Probing through the
/// CoreLoad lets the grant loop and the candidate comparison reuse each
/// already-summed grid point instead of re-deriving it per probe.
std::optional<std::pair<unsigned, unsigned>> fit_with_grants(
    CoreLoad& cl, unsigned c, unsigned b, unsigned free_c, unsigned free_b,
    const model::ResourceGrid& grid) {
  while (!cl.schedulable(c, b)) {
    double best_gain = 0;
    bool grant_cache = false;
    const double u_now = cl.utilization(c, b);
    if (free_c > 0 && c < grid.c_max) {
      const double gain = u_now - cl.utilization(c + 1, b);
      if (gain > best_gain) {
        best_gain = gain;
        grant_cache = true;
      }
    }
    if (free_b > 0 && b < grid.b_max) {
      const double gain = u_now - cl.utilization(c, b + 1);
      if (gain > best_gain) {
        best_gain = gain;
        grant_cache = false;
      }
    }
    if (best_gain <= 1e-15) return std::nullopt;  // no grant helps
    if (grant_cache) {
      ++c;
      --free_c;
    } else {
      ++b;
      --free_b;
    }
  }
  return std::make_pair(c, b);
}


bool holds_vm(const AdmissionState& st, int vm_id) {
  return std::any_of(st.vcpus.begin(), st.vcpus.end(),
                     [&](const model::Vcpu& v) { return v.vm == vm_id; });
}

void check_vm_tasks(const model::Taskset& vm_tasks, int vm_id) {
  VC2M_CHECK(!vm_tasks.empty());
  for (const auto& t : vm_tasks)
    VC2M_CHECK_MSG(t.vm == vm_id, "task does not belong to the admitted VM");
}

/// Parameterizes `vm_tasks` as `vm_id`'s new VCPUs and places them into
/// `next`, appending to `next.vcpus` and growing `next.mapping`. Returns
/// false on rejection, with `next` partly updated: the caller rolls it
/// back.
bool place_vm(AdmissionState& next, const model::Taskset& vm_tasks, int vm_id,
              const model::PlatformSpec& platform, const VmAllocConfig& vm_cfg,
              util::Rng& rng) {
  analysis::AnalysisContext ctx;  // one memo + counter scope per decision
  ctx.set_inner_parallelism(vm_cfg.inner_pool, vm_cfg.inner_jobs);
  ctx.set_request_id(vm_cfg.request_id);

  // Parameterize the new VM's VCPUs.
  std::vector<std::size_t> idx(vm_tasks.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto new_vcpus = allocate_vm_heuristic(vm_tasks, idx, vm_cfg, ctx, rng);
  std::sort(new_vcpus.begin(), new_vcpus.end(),
            [](const model::Vcpu& a, const model::Vcpu& b) {
              return a.reference_utilization() > b.reference_utilization();
            });

  const auto& grid = platform.grid;
  unsigned free_c = platform.total_cache() - next.mapping.total_cache();
  unsigned free_b = platform.total_bw() - next.mapping.total_bw();

  for (auto& vcpu : new_vcpus) {
    vcpu.vm = vm_id;
    next.vcpus.push_back(std::move(vcpu));
    const std::size_t vi = next.vcpus.size() - 1;

    // Candidate placements compete on pool consumption (partitions newly
    // drawn from the free pools), ties broken toward lower utilization —
    // so a lightly loaded or fresh core beats squeezing onto a hot one
    // with expensive grants.
    std::size_t best_core = next.mapping.cores_used;  // == "open new core"
    bool have_candidate = false;
    std::pair<unsigned, unsigned> best_alloc{0, 0};
    unsigned best_cost = ~0u;
    double best_util = 2.0;
    for (unsigned k = 0; k < next.mapping.cores_used; ++k) {
      CoreLoad with_new(next.vcpus, grid, next.mapping.vcpus_on_core[k]);
      with_new.add(vi);
      const auto fit =
          fit_with_grants(with_new, next.mapping.cache[k],
                          next.mapping.bw[k], free_c, free_b, grid);
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kAdmitPlacement;
        e.vm = vm_id;
        e.entity = static_cast<std::int32_t>(vi);
        e.core = static_cast<std::int32_t>(k);
        if (fit) {
          e.accepted = true;
          e.cache = static_cast<std::int32_t>(fit->first);
          e.bw = static_cast<std::int32_t>(fit->second);
          const double u = with_new.utilization(fit->first, fit->second);
          e.value = u;
          e.margin = 1.0 - u;
        } else {
          // No grant sequence from the current partitions makes the core
          // schedulable with the VCPU added.
          e.constraint = obs::DecisionConstraint::kNoBeneficialGrant;
          e.cache = static_cast<std::int32_t>(next.mapping.cache[k]);
          e.bw = static_cast<std::int32_t>(next.mapping.bw[k]);
          const double u = with_new.utilization(next.mapping.cache[k],
                                                next.mapping.bw[k]);
          e.value = u;
          e.margin = std::max(0.0, u - 1.0);
        }
        log->emit(e);
      }
      if (!fit) continue;
      const unsigned cost = (fit->first - next.mapping.cache[k]) +
                            (fit->second - next.mapping.bw[k]);
      const double u = with_new.utilization(fit->first, fit->second);
      if (cost < best_cost || (cost == best_cost && u < best_util)) {
        best_core = k;
        best_alloc = *fit;
        best_cost = cost;
        best_util = u;
        have_candidate = true;
      }
    }
    if (next.mapping.cores_used < platform.cores && free_c >= grid.c_min &&
        free_b >= grid.b_min) {
      CoreLoad alone(next.vcpus, grid);
      alone.add(vi);
      const auto fit =
          fit_with_grants(alone, grid.c_min, grid.b_min, free_c - grid.c_min,
                          free_b - grid.b_min, grid);
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kAdmitPlacement;
        e.vm = vm_id;
        e.entity = static_cast<std::int32_t>(vi);
        e.core = static_cast<std::int32_t>(next.mapping.cores_used);  // new
        if (fit) {
          e.accepted = true;
          e.cache = static_cast<std::int32_t>(fit->first);
          e.bw = static_cast<std::int32_t>(fit->second);
          const double u = alone.utilization(fit->first, fit->second);
          e.value = u;
          e.margin = 1.0 - u;
        } else {
          e.constraint = obs::DecisionConstraint::kNoBeneficialGrant;
          e.cache = static_cast<std::int32_t>(grid.c_min);
          e.bw = static_cast<std::int32_t>(grid.b_min);
          const double u = alone.utilization(grid.c_min, grid.b_min);
          e.value = u;
          e.margin = std::max(0.0, u - 1.0);
        }
        log->emit(e);
      }
      if (fit) {
        const unsigned cost = fit->first + fit->second;
        const double u = alone.utilization(fit->first, fit->second);
        if (cost < best_cost || (cost == best_cost && u < best_util)) {
          best_core = next.mapping.cores_used;
          best_alloc = *fit;
          have_candidate = true;
        }
      }
    }
    if (!have_candidate) {
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kAdmitVerdict;
        e.vm = vm_id;
        e.entity = static_cast<std::int32_t>(vi);
        e.value = next.vcpus[vi].reference_utilization();
        if (next.mapping.cores_used >= platform.cores) {
          e.constraint = obs::DecisionConstraint::kCoreLimit;
        } else if (free_c < grid.c_min) {
          e.constraint = obs::DecisionConstraint::kCachePoolExhausted;
          e.margin = static_cast<double>(grid.c_min - free_c);
        } else if (free_b < grid.b_min) {
          e.constraint = obs::DecisionConstraint::kBwPoolExhausted;
          e.margin = static_cast<double>(grid.b_min - free_b);
        } else {
          e.constraint = obs::DecisionConstraint::kNoBeneficialGrant;
        }
        log->emit(e);
      }
      return false;
    }

    if (best_core < next.mapping.cores_used) {
      free_c -= best_alloc.first - next.mapping.cache[best_core];
      free_b -= best_alloc.second - next.mapping.bw[best_core];
      next.mapping.cache[best_core] = best_alloc.first;
      next.mapping.bw[best_core] = best_alloc.second;
      next.mapping.vcpus_on_core[best_core].push_back(vi);
    } else {
      free_c -= best_alloc.first;
      free_b -= best_alloc.second;
      next.mapping.vcpus_on_core.push_back({vi});
      next.mapping.cache.push_back(best_alloc.first);
      next.mapping.bw.push_back(best_alloc.second);
      ++next.mapping.cores_used;
    }
  }

  if (auto* log = obs::decision_log()) {
    obs::DecisionEvent e;
    e.kind = obs::DecisionKind::kAdmitVerdict;
    e.accepted = true;
    e.vm = vm_id;
    e.core = static_cast<std::int32_t>(next.mapping.cores_used);
    e.value = static_cast<double>(new_vcpus.size());
    log->emit(e);
  }
  next.mapping.schedulable = true;
  return true;
}

/// Undoes a rejected place_vm: drops the VCPUs appended past `n0` and puts
/// back the mapping saved before it ran.
void roll_back(AdmissionState& st, std::size_t n0, HvAllocResult& saved) {
  st.vcpus.erase(st.vcpus.begin() + static_cast<std::ptrdiff_t>(n0),
                 st.vcpus.end());
  st.mapping = std::move(saved);
}

/// A VCPU taken out of the state, with its index before the removal.
using RemovedVcpu = std::pair<std::size_t, model::Vcpu>;

/// Removes `vm_id`'s VCPUs from `st` in place: survivors move down in
/// their order, every core's list is remapped, and empty trailing cores are
/// trimmed (interior cores keep their partitions — shrinking them would
/// perturb running VMs' cache contents). The removed VCPUs are moved into
/// `removed`, in ascending original index.
void erase_vm(AdmissionState& st, int vm_id,
              std::vector<RemovedVcpu>& removed) {
  const std::size_t n = st.vcpus.size();
  std::vector<std::size_t> remap(n, n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (st.vcpus[i].vm == vm_id) {
      removed.emplace_back(i, std::move(st.vcpus[i]));
      continue;
    }
    remap[i] = kept;
    if (kept != i) st.vcpus[kept] = std::move(st.vcpus[i]);
    ++kept;
  }
  st.vcpus.erase(st.vcpus.begin() + static_cast<std::ptrdiff_t>(kept),
                 st.vcpus.end());

  auto& m = st.mapping;
  for (auto& core : m.vcpus_on_core) {
    std::size_t w = 0;
    for (const std::size_t v : core)
      if (remap[v] < n) core[w++] = remap[v];
    core.resize(w);
  }
  while (!m.vcpus_on_core.empty() && m.vcpus_on_core.back().empty()) {
    m.vcpus_on_core.pop_back();
    m.cache.pop_back();
    m.bw.pop_back();
    --m.cores_used;
  }
  m.schedulable = true;
}

}  // namespace

AdmitResult admit_vm(AdmissionState current, const model::Taskset& vm_tasks,
                     int vm_id, const model::PlatformSpec& platform,
                     const VmAllocConfig& vm_cfg, util::Rng& rng) {
  check_vm_tasks(vm_tasks, vm_id);
  VC2M_CHECK_MSG(!holds_vm(current, vm_id), "VM id already present");

  AdmitResult result;
  result.request_id = vm_cfg.request_id;
  const std::size_t n0 = current.vcpus.size();
  HvAllocResult saved = current.mapping;
  result.admitted = place_vm(current, vm_tasks, vm_id, platform, vm_cfg, rng);
  if (!result.admitted) roll_back(current, n0, saved);
  result.state = std::move(current);
  return result;
}

AdmissionState remove_vm(AdmissionState current, int vm_id) {
  VC2M_CHECK_MSG(holds_vm(current, vm_id), "VM id not present");
  std::vector<RemovedVcpu> removed;
  erase_vm(current, vm_id, removed);
  return current;
}

AdmitResult resize_vm(AdmissionState current, const model::Taskset& new_tasks,
                      int vm_id, const model::PlatformSpec& platform,
                      const VmAllocConfig& vm_cfg, util::Rng& rng) {
  VC2M_CHECK_MSG(holds_vm(current, vm_id), "resize: VM id not present");
  check_vm_tasks(new_tasks, vm_id);

  AdmitResult result;
  result.request_id = vm_cfg.request_id;
  HvAllocResult saved = current.mapping;
  std::vector<RemovedVcpu> removed;
  erase_vm(current, vm_id, removed);
  const std::size_t n0 = current.vcpus.size();
  result.admitted =
      place_vm(current, new_tasks, vm_id, platform, vm_cfg, rng);
  if (!result.admitted) {
    // The original VM is never lost to a failed resize: its VCPUs go back
    // to their old indices, which the restored mapping refers to.
    roll_back(current, n0, saved);
    for (auto& [i, v] : removed)
      current.vcpus.insert(
          current.vcpus.begin() + static_cast<std::ptrdiff_t>(i),
          std::move(v));
  }
  result.state = std::move(current);
  return result;
}

}  // namespace vc2m::core

// Online admission control: grow or shrink a running system without
// disturbing the VMs already placed.
//
// The paper's allocator is offline (§4); a deployed hypervisor also needs
// to admit a VM into a system that is already running. `admit_vm` places
// the new VM's VCPUs using only headroom: existing VCPUs stay on their
// cores, existing cores may *gain* cache/BW partitions from the free pools
// but never lose any (so running guarantees are untouched), and unused
// cores may be brought up. `remove_vm` releases a VM's VCPUs and returns
// its cores' now-free capacity to the pools (partitions stay with the
// cores until a later admission redistributes the free pool).
//
// All three take the running state by value and work on it in place, so a
// caller that moves its state in pays for no copy: a decision moves the
// state through and hands it back in the result, rejected or not. A caller
// that passes an lvalue keeps its own state untouched and gets a copy.
#pragma once

#include <cstddef>
#include <vector>

#include "core/hv_alloc.h"
#include "core/vm_alloc.h"
#include "model/platform.h"
#include "model/task.h"
#include "util/rng.h"

namespace vc2m::core {

struct AdmissionState {
  /// All placed VCPUs; `mapping.vcpus_on_core` indexes into this vector.
  std::vector<model::Vcpu> vcpus;
  HvAllocResult mapping;
};

struct AdmitResult {
  bool admitted = false;
  /// The updated system on success; on rejection the input state exactly
  /// as it came in (rejection is atomic), so a caller that moved its state
  /// in always stores this one back.
  AdmissionState state;
  /// Echo of `vm_cfg.request_id` (the serve trace seq that triggered this
  /// decision; -1 when not request-scoped), present on success and on
  /// rejection so telemetry can correlate either outcome.
  std::int64_t request_id = -1;
};

/// Try to admit a VM (the tasks must all carry `vm_id`) into `current`.
/// New VCPUs are parameterized per `vm_cfg.analysis`, packed best-fit onto
/// the least-loaded feasible cores, with greedy partition grants from the
/// free pools when a core needs more resources; a new core is opened only
/// when no existing core fits. On rejection `state` is `current`
/// byte-identical: the VCPUs placed so far are dropped and the mapping is
/// restored. Precondition failures throw util::Error before any change.
AdmitResult admit_vm(AdmissionState current, const model::Taskset& vm_tasks,
                     int vm_id, const model::PlatformSpec& platform,
                     const VmAllocConfig& vm_cfg, util::Rng& rng);

/// Remove every VCPU belonging to `vm_id`. Survivors keep their order;
/// cores keep their partition allocations (still valid supersets); empty
/// trailing cores are trimmed. Throws util::Error when `vm_id` is not
/// present.
AdmissionState remove_vm(AdmissionState current, int vm_id);

/// Replace a running VM's workload: remove `vm_id`, then re-admit it with
/// `new_tasks` (which must all carry `vm_id`). Transactional like admit_vm:
/// on success `state` holds the resized system; on rejection it is
/// `current` byte-identical, the removed VCPUs back at their indices — the
/// original VM is never lost to a failed resize. Throws util::Error when
/// `vm_id` is not present.
AdmitResult resize_vm(AdmissionState current, const model::Taskset& new_tasks,
                      int vm_id, const model::PlatformSpec& platform,
                      const VmAllocConfig& vm_cfg, util::Rng& rng);

}  // namespace vc2m::core

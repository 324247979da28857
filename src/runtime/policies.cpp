#include "runtime/policies.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "runtime/computation.hpp"
#include "runtime/device_array.hpp"
#include "sim/runtime.hpp"

namespace psched::rt {

DevicePlacer::DevicePlacer(sim::GpuRuntime& gpu, DevicePolicy policy)
    : gpu_(&gpu), policy_(policy) {}

sim::DeviceId DevicePlacer::place(const Computation& c) {
  const int ndev = gpu_->num_devices();
  if (ndev == 1 || policy_ == DevicePolicy::SingleDevice) {
    return sim::kDefaultDevice;
  }

  // Stream inheritance comes first for every policy: the first child of a
  // scheduled parent reuses the parent's stream (no synchronization event),
  // which pins it to the parent's device.
  for (const Computation* p : c.parents) {
    if (p->stream == sim::kInvalidStream) continue;  // synchronous parent
    if (p->first_child == c.id && p->device != sim::kInvalidDevice) {
      return p->device;
    }
  }

  switch (policy_) {
    case DevicePolicy::RoundRobin:
      return static_cast<sim::DeviceId>(next_rr_++ % ndev);
    case DevicePolicy::MinTransfer:
      return min_transfer_device(c);
    case DevicePolicy::MinPressure:
      return min_pressure_device(c);
    case DevicePolicy::SingleDevice:
      break;  // handled above
  }
  return sim::kDefaultDevice;
}

void DevicePlacer::transfer_costs(const Computation& c,
                                  std::vector<double>& cost) {
  const int ndev = gpu_->num_devices();
  // Bytes each device would have to migrate to run `c` right now. Arrays
  // passed as several arguments migrate once, so they must cost once.
  cost.assign(static_cast<std::size_t>(ndev), 0.0);
  std::vector<const ArrayState*> seen;
  for (const Computation::Use& use : c.uses) {
    if (std::find(seen.begin(), seen.end(), use.array) != seen.end()) {
      continue;
    }
    seen.push_back(use.array);
    const sim::ArrayInfo& info = gpu_->memory().info(use.array->sim_id);
    for (sim::DeviceId d = 0; d < ndev; ++d) {
      if (info.needs_transfer_to(d)) {
        cost[static_cast<std::size_t>(d)] += static_cast<double>(info.bytes);
      }
    }
  }
}

sim::DeviceId DevicePlacer::pick_tie(const std::vector<sim::DeviceId>& t) {
  if (t.size() == 1) return t.front();
  // All-equal scores (e.g. host-fresh inputs): spread the load like
  // round-robin instead of piling everything onto device 0.
  return t[static_cast<std::size_t>(next_rr_++) % t.size()];
}

sim::DeviceId DevicePlacer::min_transfer_device(const Computation& c) {
  const int ndev = gpu_->num_devices();
  std::vector<double> cost;
  transfer_costs(c, cost);
  double best = std::numeric_limits<double>::infinity();
  for (const double v : cost) best = std::min(best, v);
  std::vector<sim::DeviceId> ties;
  for (sim::DeviceId d = 0; d < ndev; ++d) {
    if (cost[static_cast<std::size_t>(d)] == best) ties.push_back(d);
  }
  return pick_tie(ties);
}

sim::DeviceId DevicePlacer::min_pressure_device(const Computation& c) {
  const int ndev = gpu_->num_devices();
  const sim::TenantId tenant = gpu_->active_tenant();
  // Pressure is the tenant's own eviction-byte delta over the current
  // placement window: monotone counters become a recent rate, so a
  // device that stopped thrashing regains eligibility. The first window
  // (and a tenant switch) baselines at zero — all-time pressure — and
  // every kPressureWindow placements the baseline advances to the
  // counters' current value, forgetting old thrash.
  if (tenant != pressure_tenant_ ||
      pressure_base_.size() != static_cast<std::size_t>(ndev)) {
    pressure_base_.assign(static_cast<std::size_t>(ndev), 0);
    pressure_tenant_ = tenant;
    pressure_tick_ = 0;
  } else if (pressure_tick_ >= kPressureWindow) {
    for (sim::DeviceId d = 0; d < ndev; ++d) {
      pressure_base_[static_cast<std::size_t>(d)] =
          gpu_->tenant_bytes_evicted(tenant, d);
    }
    pressure_tick_ = 0;
  }
  ++pressure_tick_;

  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (sim::DeviceId d = 0; d < ndev; ++d) {
    const std::size_t p = gpu_->tenant_bytes_evicted(tenant, d) -
                          pressure_base_[static_cast<std::size_t>(d)];
    best = std::min(best, p);
  }
  std::vector<sim::DeviceId> low;
  for (sim::DeviceId d = 0; d < ndev; ++d) {
    const std::size_t p = gpu_->tenant_bytes_evicted(tenant, d) -
                          pressure_base_[static_cast<std::size_t>(d)];
    if (p == best) low.push_back(d);
  }
  if (low.size() == 1) return low.front();
  // Among equally unpressured devices, fewest bytes to migrate wins.
  std::vector<double> cost;
  transfer_costs(c, cost);
  double best_cost = std::numeric_limits<double>::infinity();
  for (const sim::DeviceId d : low) {
    best_cost = std::min(best_cost, cost[static_cast<std::size_t>(d)]);
  }
  std::vector<sim::DeviceId> ties;
  for (const sim::DeviceId d : low) {
    if (cost[static_cast<std::size_t>(d)] == best_cost) ties.push_back(d);
  }
  return pick_tie(ties);
}

}  // namespace psched::rt

// Fluid (processor-sharing) resource model.
//
// Whenever the set of concurrently running operations changes, the engine
// asks this model for a fresh progress rate for every running op:
//
//   * Kernels progress in "solo time" units: rate 1.0 means the kernel runs
//     exactly as fast as it would alone on an idle device. Concurrent
//     kernels share the device's warp slots (space-sharing) and DRAM
//     bandwidth. Latency hiding means two half-occupancy kernels together
//     run *better* than serially (the paper's block-size observation in
//     section V-C), while kernels that already saturate the device neither
//     gain nor lose from co-scheduling.
//   * Transfers progress in bytes: PCIe bandwidth is shared per direction
//     (an equal split); unified-memory
//     fault migrations use a de-rated fault path whose efficiency degrades
//     with the number of concurrently faulting ops (the paper's "page fault
//     controller becomes the main bottleneck" effect, section V-C).
#pragma once

#include <vector>

#include "sim/device_spec.hpp"
#include "sim/op.hpp"

namespace psched::sim {

/// Static (contention-independent) demand parameters of one kernel launch.
struct KernelDemand {
  double sm_demand = 0;   ///< SMs required to run at full rate (<= sm_count)
  double occupancy = 0;   ///< per-SM thread occupancy in [0, 1]
  double warp_fill = 0;   ///< device-wide fill fraction: sm share * occupancy
  double solo_us = 0;     ///< execution time alone on an idle device
  double bw_need = 0;     ///< DRAM bytes/us consumed when running at rate 1
};

class ResourceModel {
 public:
  explicit ResourceModel(const DeviceSpec& spec) : spec_(&spec) {}

  /// Latency-hiding utilization curve: fraction of peak throughput achieved
  /// at device fill `w` (in [0, inf), capped at 1.0 for w >= 1).
  [[nodiscard]] static double utilization(double warp_fill);

  /// Per-SM blocks limit for a block size (threads and block-slot limits).
  [[nodiscard]] int blocks_per_sm(const LaunchConfig& cfg) const;

  /// Compute the static demand of one kernel launch.
  [[nodiscard]] KernelDemand kernel_demand(const LaunchConfig& cfg,
                                           const KernelProfile& prof) const;

  // Each resource class is solved in isolation. Classes share no
  // resources with each other — kernels contend for warp slots and DRAM,
  // each copy direction owns its DMA engine, faults own the page-fault
  // path — so a membership change in one class never invalidates another
  // class's rates. The model is per-device: a multi-GPU engine keeps one
  // ResourceModel per roster entry and prices the cross-device CopyP2P
  // link classes as an equal split of the machine's link bandwidth.

  /// Kernel-class solver over the engine's compact per-class demand arrays
  /// (the demand columns of a class's member table, maintained at
  /// join/leave): `fill[i]` is member i's device fill
  /// (sm_demand/sm_count * occupancy), `solo_u[i]` its solo utilization
  /// (utilization(fill[i])), `bw_need[i]` its DRAM appetite at rate 1.
  /// `rates[i]` receives member i's dimensionless rate (progress in
  /// solo-us per us); the hot re-solve never touches an Op.
  void solve_kernel_class(const std::vector<double>& fill,
                          const std::vector<double>& solo_u,
                          const std::vector<double>& bw_need,
                          std::vector<double>& rates) const;

  /// Per-member rate (bytes/us) of the equal-share classes (PCIe
  /// directions, the contended fault path) at occupancy `n` — the scalar
  /// the engine assigns to every member without materializing a rates
  /// vector. Zero for kernels and rate-less kinds (markers, host spans).
  [[nodiscard]] double class_share(OpKind kind, std::size_t n) const;

  /// Bounded weighted water-fill of `total` across parties — the model's
  /// one water-fill: party j wants a weight-proportional share but can
  /// absorb at most cap[j]; a capped party's surplus re-fills over the
  /// rest instead of going idle. Writes budget (resized); `active` is
  /// caller-provided scratch. Unit weights with caps = demands make it
  /// max-min fair (the kernel class's DRAM split); the engine's tenant
  /// budgets (group weight, n_g x member cap) and each budget's spread
  /// over the tenant's members (base rates as weights, member cap) run
  /// the same arithmetic. An infinite cap makes it the plain weighted
  /// split transfers get.
  static void water_fill_budgets(const std::vector<double>& weight,
                                 const std::vector<double>& cap, double total,
                                 std::vector<double>& budget,
                                 std::vector<char>& active);

  /// Inverse of the proportional split: the weight a party needs for a
  /// `share` fraction of a saturated class against competitors whose
  /// weights sum to `other_weight_sum` — w = share/(1-share) * W_others.
  /// The QoS controller uses it to bound latency-class weight boosts so
  /// batch tenants always keep a guaranteed sliver of the class.
  [[nodiscard]] static double weight_for_share(double share,
                                               double other_weight_sum);

  [[nodiscard]] const DeviceSpec& spec() const { return *spec_; }

 private:
  const DeviceSpec* spec_;

  /// Reusable scratch for solve_kernel_class (one re-solve per running-set
  /// change is the engine's hot path; no per-solve heap traffic). Mutable:
  /// the model is logically const, scratch is not observable state.
  mutable std::vector<double> bw_demand_;
  mutable std::vector<double> bw_alloc_;
  mutable std::vector<double> bw_unit_;
  mutable std::vector<char> bw_active_;

  /// Latency-hiding shape parameter: u(w) = (1+c) * w / (w + c), u(1) = 1.
  static constexpr double kLatencyHiding = 0.18;
  /// Device fill needed (as fraction of all SMs at full occupancy) to
  /// saturate DRAM bandwidth.
  static constexpr double kBwSaturationFill = 0.5;
  /// Per-extra-op degradation of the page-fault path.
  static constexpr double kFaultContentionPenalty = 0.30;
};

}  // namespace psched::sim

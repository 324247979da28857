#include "sim/resource_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace psched::sim {

double ResourceModel::utilization(double warp_fill) {
  if (warp_fill <= 0) return 0;
  const double w = std::min(warp_fill, 1.0);
  return (1.0 + kLatencyHiding) * w / (w + kLatencyHiding);
}

int ResourceModel::blocks_per_sm(const LaunchConfig& cfg) const {
  const long tpb = std::max<long>(1, cfg.threads_per_block());
  const long by_threads = std::max<long>(1, spec_->max_threads_per_sm / tpb);
  long limit = std::min<long>(spec_->max_blocks_per_sm, by_threads);
  if (cfg.shared_mem_per_block > 0) {
    const long by_smem =
        std::max<long>(1, static_cast<long>(spec_->shared_mem_per_sm_bytes) /
                              cfg.shared_mem_per_block);
    limit = std::min(limit, by_smem);
  }
  return static_cast<int>(limit);
}

KernelDemand ResourceModel::kernel_demand(const LaunchConfig& cfg,
                                          const KernelProfile& prof) const {
  KernelDemand d;
  const long blocks = std::max<long>(1, cfg.blocks());
  const int bpsm = blocks_per_sm(cfg);
  const long sms_needed = (blocks + bpsm - 1) / bpsm;
  d.sm_demand = static_cast<double>(
      std::min<long>(sms_needed, spec_->sm_count));

  // Occupancy of the SMs the kernel actually occupies.
  const long resident_blocks =
      std::min<long>(bpsm, (blocks + static_cast<long>(d.sm_demand) - 1) /
                               std::max<long>(1, static_cast<long>(d.sm_demand)));
  d.occupancy = std::min(
      1.0, static_cast<double>(resident_blocks * cfg.threads_per_block()) /
               spec_->max_threads_per_sm);
  // Fold the kernel's issue-slot duty cycle into its effective occupancy:
  // a latency-bound kernel keeps fewer of its resident warps busy, so it
  // fills less of the device and co-scheduling can reclaim the slack.
  d.occupancy *= std::clamp(prof.duty, 0.01, 1.0);
  d.warp_fill = (d.sm_demand / spec_->sm_count) * d.occupancy;

  // Compute time: peak throughput scaled by the latency-hiding curve at the
  // kernel's own device fill. GFLOP/s == 1e3 flops/us.
  const double u = utilization(d.warp_fill);
  const double fp32_rate = spec_->fp32_gflops() * 1e3 * u;  // flops/us
  const double fp64_rate = spec_->fp64_gflops() * 1e3 * u;
  double compute_us = 0;
  if (prof.flops_sp > 0) compute_us += prof.flops_sp / fp32_rate;
  if (prof.flops_dp > 0) compute_us += prof.flops_dp / fp64_rate;

  // Memory time: DRAM bandwidth reachable with this kernel's parallelism.
  // Outstanding memory requests scale with the *effective* device fill
  // (resident warps times duty), so an under-filling or latency-bound
  // kernel cannot saturate DRAM alone — the headroom space-sharing taps.
  const double bw_cap =
      spec_->dram_bytes_per_us() *
      std::min(1.0, d.warp_fill / kBwSaturationFill);
  const double mem_us = prof.dram_bytes > 0 && bw_cap > 0
                            ? prof.dram_bytes / bw_cap
                            : 0;

  d.solo_us = std::max(compute_us, mem_us) + spec_->kernel_launch_overhead_us;
  d.solo_us = std::max(d.solo_us, 0.5);  // floor: no zero-length kernels
  d.bw_need = prof.dram_bytes > 0 ? prof.dram_bytes / d.solo_us : 0;
  return d;
}

double ResourceModel::weight_for_share(double share, double other_weight_sum) {
  if (!(share > 0)) return 0;
  if (share >= 1.0) return std::numeric_limits<double>::infinity();
  return share / (1.0 - share) * other_weight_sum;
}

void ResourceModel::water_fill_budgets(const std::vector<double>& weight,
                                       const std::vector<double>& cap,
                                       double total,
                                       std::vector<double>& budget,
                                       std::vector<char>& active) {
  const std::size_t nt = weight.size();
  budget.assign(nt, 0);
  active.assign(nt, 1);
  double total_weight = 0;
  for (const double w : weight) total_weight += w;
  double remaining = total;
  double active_weight = total_weight;
  for (std::size_t pass = 0; pass < nt && active_weight > 0; ++pass) {
    bool any_capped = false;
    for (std::size_t j = 0; j < nt; ++j) {
      if (!active[j]) continue;
      const double target = remaining * weight[j] / active_weight;
      if (target >= cap[j]) {
        budget[j] = cap[j];
        active[j] = 0;
        any_capped = true;
      }
    }
    if (!any_capped) {
      for (std::size_t j = 0; j < nt; ++j) {
        if (active[j]) budget[j] = remaining * weight[j] / active_weight;
      }
      break;
    }
    // Rebuild the active aggregate after removing the capped parties.
    remaining = total;
    active_weight = 0;
    for (std::size_t j = 0; j < nt; ++j) {
      if (active[j]) {
        active_weight += weight[j];
      } else {
        remaining -= budget[j];
      }
    }
  }
}

void ResourceModel::solve_kernel_class(const std::vector<double>& fill,
                                       const std::vector<double>& solo_u,
                                       const std::vector<double>& bw_need,
                                       std::vector<double>& rates) const {
  const std::size_t n = fill.size();
  rates.assign(n, 0);
  if (n == 0) return;
  double total_fill = 0;
  for (const double f : fill) total_fill += f;
  const double device_u = utilization(total_fill);
  bw_demand_.assign(n, 0);
  auto& bw_demand = bw_demand_;
  double bw_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Device throughput at the combined fill, split proportionally to each
    // kernel's fill, relative to the throughput the kernel had solo.
    double r = 1.0;
    if (total_fill > 0 && solo_u[i] > 0) {
      r = device_u * (fill[i] / total_fill) / solo_u[i];
    }
    r = std::min(r, 1.0);  // a kernel never runs faster than solo
    rates[i] = std::max(r, 1e-9);
    bw_demand[i] = bw_need[i] * r;
    bw_total += bw_demand[i];
  }
  // DRAM unsaturated (the common case): max-min fair hands every kernel
  // its full demand and the bandwidth cap never binds — skip the fill.
  // Saturated: max-min fair is the water-fill at unit weights, each
  // kernel capped at its demand.
  if (bw_total <= spec_->dram_bytes_per_us()) return;
  bw_unit_.assign(n, 1.0);
  water_fill_budgets(bw_unit_, bw_demand, spec_->dram_bytes_per_us(),
                     bw_alloc_, bw_active_);
  const auto& bw_alloc = bw_alloc_;
  for (std::size_t i = 0; i < n; ++i) {
    double r = rates[i];
    if (bw_need[i] > 0 && bw_demand[i] > 0) {
      r = std::min(r, bw_alloc[i] / bw_need[i]);
    }
    rates[i] = std::max(r, 1e-9);
  }
}

double ResourceModel::class_share(OpKind kind, std::size_t n) const {
  if (n == 0) return 0;
  switch (kind) {
    case OpKind::CopyH2D:
    case OpKind::CopyD2H:
      return spec_->pcie_bytes_per_us() / static_cast<double>(n);
    case OpKind::Fault: {
      const auto count = static_cast<double>(n);
      const double capacity = spec_->fault_bytes_per_us() /
                              (1.0 + kFaultContentionPenalty * (count - 1.0));
      return capacity / count;
    }
    default:
      return 0;  // kernels are not equal-share; markers carry no rate
  }
}

}  // namespace psched::sim

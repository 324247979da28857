#include <gtest/gtest.h>

#include <numeric>

#include "sim/device_spec.hpp"
#include "sim/resource_model.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

class ResourceModelTest : public ::testing::Test {
 protected:
  /// Kernel-class rates of `ops`, each member's fill, solo utilization and
  /// DRAM appetite derived from its Op the way the engine's class join
  /// derives them.
  std::vector<double> kernel_rates(const std::vector<Op>& ops) const {
    std::vector<double> fill, solo_u, bw, rates;
    for (const Op& op : ops) {
      fill.push_back((op.sm_demand / spec_.sm_count) * op.occupancy);
      solo_u.push_back(ResourceModel::utilization(fill.back()));
      bw.push_back(op.bw_need);
    }
    model_.solve_kernel_class(fill, solo_u, bw, rates);
    return rates;
  }

  DeviceSpec spec_ = DeviceSpec::test_device();
  ResourceModel model_{spec_};
};

TEST_F(ResourceModelTest, UtilizationCurveShape) {
  EXPECT_DOUBLE_EQ(ResourceModel::utilization(0), 0);
  EXPECT_DOUBLE_EQ(ResourceModel::utilization(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ResourceModel::utilization(2.0), 1.0);  // capped
  // Strictly increasing below saturation.
  double prev = 0;
  for (double w = 0.1; w <= 1.0; w += 0.1) {
    const double u = ResourceModel::utilization(w);
    EXPECT_GT(u, prev);
    EXPECT_LE(u, 1.0);
    prev = u;
  }
  // Latency hiding: half fill achieves much more than half throughput.
  EXPECT_GT(ResourceModel::utilization(0.5), 0.8);
}

TEST_F(ResourceModelTest, BlocksPerSmLimits) {
  // Big blocks: limited by threads (1024 per SM on the test device).
  EXPECT_EQ(model_.blocks_per_sm(LaunchConfig::linear(64, 512)), 2);
  EXPECT_EQ(model_.blocks_per_sm(LaunchConfig::linear(64, 1024)), 1);
  // Tiny blocks: limited by the block-slot count (16).
  EXPECT_EQ(model_.blocks_per_sm(LaunchConfig::linear(64, 32)), 16);
}

TEST_F(ResourceModelTest, KernelDemandFullDevice) {
  // 16 blocks of 256 threads on 4 SMs: 4 blocks/SM -> needs exactly 4 SMs.
  KernelProfile prof;
  prof.flops_sp = 1e6;
  const KernelDemand d =
      model_.kernel_demand(LaunchConfig::linear(16, 256), prof);
  EXPECT_DOUBLE_EQ(d.sm_demand, 4);
  EXPECT_DOUBLE_EQ(d.occupancy, 1.0);  // 4 * 256 == 1024 threads per SM
  EXPECT_DOUBLE_EQ(d.warp_fill, 1.0);
  // At full fill the kernel runs at peak: 1e6 flops / 512e3 flops/us.
  EXPECT_NEAR(d.solo_us, 1e6 / (spec_.fp32_gflops() * 1e3), 1e-9);
}

TEST_F(ResourceModelTest, KernelDemandPartialDevice) {
  // 1 block cannot fill the device; its solo time reflects low utilization.
  KernelProfile prof;
  prof.flops_sp = 1e6;
  const KernelDemand d =
      model_.kernel_demand(LaunchConfig::linear(1, 256), prof);
  EXPECT_DOUBLE_EQ(d.sm_demand, 1);
  EXPECT_DOUBLE_EQ(d.occupancy, 0.25);  // 256 of 1024 threads
  const KernelDemand full =
      model_.kernel_demand(LaunchConfig::linear(16, 256), prof);
  EXPECT_GT(d.solo_us, full.solo_us);
}

TEST_F(ResourceModelTest, SmallBlocksSlowerSolo) {
  // Same work, block 32 vs block 256, both with enough blocks to span SMs.
  KernelProfile prof;
  prof.flops_sp = 1e7;
  const KernelDemand small =
      model_.kernel_demand(LaunchConfig::linear(1024, 32), prof);
  const KernelDemand big =
      model_.kernel_demand(LaunchConfig::linear(128, 256), prof);
  // Block 32 with 16 blocks/SM reaches only 512/1024 threads: occupancy 0.5.
  EXPECT_DOUBLE_EQ(small.occupancy, 0.5);
  EXPECT_GT(small.solo_us, big.solo_us);
}

TEST_F(ResourceModelTest, MemBoundKernel) {
  KernelProfile prof;
  prof.dram_bytes = 1e6;  // DRAM-bound: 1e6 / 1e5 B/us = 10us at full bw
  const KernelDemand d =
      model_.kernel_demand(LaunchConfig::linear(16, 256), prof);
  EXPECT_NEAR(d.solo_us, 10.0, 1e-9);
  EXPECT_NEAR(d.bw_need, 1e5, 1.0);  // consumes full DRAM bandwidth
}

TEST_F(ResourceModelTest, FewSmsCannotSaturateDram) {
  KernelProfile prof;
  prof.dram_bytes = 1e6;
  // 1 of 4 SMs -> sm share 0.25 < saturation fill 0.5 -> half bandwidth.
  const KernelDemand d =
      model_.kernel_demand(LaunchConfig::linear(4, 256), prof);
  EXPECT_DOUBLE_EQ(d.sm_demand, 1);
  EXPECT_NEAR(d.solo_us, 20.0, 1e-9);
}

TEST_F(ResourceModelTest, Fp64Slower) {
  KernelProfile sp, dp;
  sp.flops_sp = 1e6;
  dp.flops_dp = 1e6;
  const auto cfg = LaunchConfig::linear(16, 256);
  const double t_sp = model_.kernel_demand(cfg, sp).solo_us;
  const double t_dp = model_.kernel_demand(cfg, dp).solo_us;
  EXPECT_NEAR(t_dp / t_sp, 1.0 / spec_.fp64_ratio, 1e-6);
}

TEST_F(ResourceModelTest, SoloTimeHasFloor) {
  KernelProfile empty;
  const KernelDemand d =
      model_.kernel_demand(LaunchConfig::linear(1, 32), empty);
  EXPECT_GE(d.solo_us, 0.5);
}

/// Max-min fair allocation of `capacity` among `demands`: the water-fill
/// at unit weights with every party capped at its demand.
std::vector<double> max_min_fair(const std::vector<double>& demands,
                                 double capacity) {
  std::vector<double> alloc;
  std::vector<char> active;
  ResourceModel::water_fill_budgets(std::vector<double>(demands.size(), 1.0),
                                    demands, capacity, alloc, active);
  return alloc;
}

TEST_F(ResourceModelTest, MaxMinFairUnderSubscribed) {
  const auto a = max_min_fair({10, 20, 30}, 100);
  EXPECT_DOUBLE_EQ(a[0], 10);
  EXPECT_DOUBLE_EQ(a[1], 20);
  EXPECT_DOUBLE_EQ(a[2], 30);
}

TEST_F(ResourceModelTest, MaxMinFairOverSubscribed) {
  const auto a = max_min_fair({60, 60}, 100);
  EXPECT_DOUBLE_EQ(a[0], 50);
  EXPECT_DOUBLE_EQ(a[1], 50);
}

TEST_F(ResourceModelTest, MaxMinFairMixed) {
  // Small demand fully served; the rest split what remains.
  const auto a = max_min_fair({10, 100, 100}, 100);
  EXPECT_DOUBLE_EQ(a[0], 10);
  EXPECT_DOUBLE_EQ(a[1], 45);
  EXPECT_DOUBLE_EQ(a[2], 45);
}

TEST_F(ResourceModelTest, MaxMinFairConservation) {
  const std::vector<double> demands = {5, 17, 3, 88, 41};
  const auto a = max_min_fair(demands, 60);
  const double total = std::accumulate(a.begin(), a.end(), 0.0);
  EXPECT_LE(total, 60 + 1e-9);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_LE(a[i], demands[i] + 1e-9);
  }
}

TEST_F(ResourceModelTest, SolveTwoFullKernelsShareEvenly) {
  const Op a = test::raw_kernel(0, 100, 4, 1.0);
  const auto rates = kernel_rates({a, a});
  EXPECT_NEAR(rates[0], 0.5, 1e-9);
  EXPECT_NEAR(rates[1], 0.5, 1e-9);
}

TEST_F(ResourceModelTest, SolveLowOccupancyKernelsBenefit) {
  // Two quarter-fill kernels co-run better than half speed each.
  const Op a = test::raw_kernel(0, 100, 1, 1.0);
  const auto rates = kernel_rates({a, a});
  EXPECT_GT(rates[0], 0.55);
  EXPECT_LT(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[0], rates[1]);
}

TEST_F(ResourceModelTest, SolveKernelNeverFasterThanSolo) {
  const auto rates = kernel_rates({test::raw_kernel(0, 100, 1, 0.25)});
  EXPECT_LE(rates[0], 1.0 + 1e-12);
  EXPECT_NEAR(rates[0], 1.0, 1e-9);
}

TEST_F(ResourceModelTest, SolveDramContentionThrottles) {
  // Two kernels that each want the full DRAM bandwidth when running.
  const Op a = test::raw_kernel(0, 10, 4, 1.0, /*bw_need=*/1e5);
  const auto rates = kernel_rates({a, a});
  // Compute sharing alone would give 0.5; DRAM sharing gives the same 0.5
  // here (each gets half bandwidth), so no extra slowdown.
  EXPECT_NEAR(rates[0], 0.5, 1e-9);
  // One memory hog + one compute-only kernel: the hog is bandwidth-capped.
  const Op c = test::raw_kernel(0, 10, 4, 1.0, /*bw_need=*/0);
  const auto rates2 = kernel_rates({a, c});
  EXPECT_NEAR(rates2[1], 0.5, 1e-9);   // compute share
  EXPECT_LE(rates2[0], 0.5 + 1e-9);    // cannot exceed compute share
}

TEST_F(ResourceModelTest, SolveTransfersSharePciePerDirection) {
  // Two H2D copies share 1e4 B/us; the D2H direction is uncontended.
  EXPECT_NEAR(model_.class_share(OpKind::CopyH2D, 2), 5e3, 1e-6);
  EXPECT_NEAR(model_.class_share(OpKind::CopyD2H, 1), 1e4, 1e-6);
}

TEST_F(ResourceModelTest, SolveFaultPathDegradesWithConcurrency) {
  EXPECT_NEAR(model_.class_share(OpKind::Fault, 1), 5e3, 1e-6);  // 5 GB/s
  // Two concurrent faulting ops: capacity degrades beyond an even split.
  EXPECT_LT(2 * model_.class_share(OpKind::Fault, 2), 5e3 + 1e-6);
}

TEST_F(ResourceModelTest, SolveIgnoresMarkers) {
  EXPECT_EQ(model_.class_share(OpKind::Marker, 1), 0);
}


// ---------------------------------------------------------------------
// Issue-slot duty cycle (latency-bound kernels) and shared-memory
// occupancy limits — the two space-sharing headroom mechanisms.
// ---------------------------------------------------------------------

TEST_F(ResourceModelTest, DutyReducesEffectiveFillAndSlowsSolo) {
  const auto cfg = LaunchConfig::linear(1024, 256);  // fills the device
  KernelProfile busy;
  busy.flops_sp = 1e9;
  KernelProfile lazy = busy;
  lazy.duty = 0.1;
  const KernelDemand d_busy = model_.kernel_demand(cfg, busy);
  const KernelDemand d_lazy = model_.kernel_demand(cfg, lazy);
  EXPECT_LT(d_lazy.warp_fill, d_busy.warp_fill);
  EXPECT_GT(d_lazy.solo_us, d_busy.solo_us);
}

TEST_F(ResourceModelTest, DutyLimitsAchievableDramBandwidth) {
  // A latency-bound streaming kernel cannot keep enough requests in
  // flight to saturate DRAM: its solo time becomes bytes / (duty-scaled
  // bandwidth), not bytes / peak.
  const auto cfg = LaunchConfig::linear(1024, 256);
  KernelProfile p;
  p.dram_bytes = 1e8;  // 1e5 B/us peak -> 1000us at full rate
  KernelProfile half = p;
  half.duty = 0.25;  // fill 0.25 / saturation 0.5 -> half bandwidth
  const double t_full = model_.kernel_demand(cfg, p).solo_us;
  const double t_half = model_.kernel_demand(cfg, half).solo_us;
  EXPECT_NEAR(t_half / t_full, 2.0, 0.05);
}

TEST_F(ResourceModelTest, CoRunningLowDutyKernelsCompressBusyTime) {
  // Two duty-0.2 kernels co-run faster than back to back: that headroom
  // is the whole point of space-sharing (Fig. 12 ratios above 1).
  const auto cfg = LaunchConfig::linear(1024, 256);
  KernelProfile p;
  p.flops_sp = 1e9;
  p.duty = 0.2;
  const KernelDemand d = model_.kernel_demand(cfg, p);
  const Op a = test::raw_kernel(0, d.solo_us, d.sm_demand, d.occupancy);
  const auto rates = kernel_rates({a, a});
  const double combined = rates[0] + rates[1];
  EXPECT_GT(combined, 1.2);  // > 20% busy-time compression
  EXPECT_LT(rates[0], 1.0);
  EXPECT_NEAR(rates[0], rates[1], 1e-12);
}

TEST_F(ResourceModelTest, SharedMemoryLimitsBlocksPerSm) {
  // 64 KiB per SM on the test device: 20 KiB blocks -> 3 resident.
  auto cfg = LaunchConfig::linear(64, 64).with_shared_mem(20 << 10);
  EXPECT_EQ(model_.blocks_per_sm(cfg), 3);
  // Without shared memory the thread limit governs: 1024 / 64 = 16.
  EXPECT_EQ(model_.blocks_per_sm(LaunchConfig::linear(64, 64)), 16);
  // A block larger than the SM's shared memory still runs (1 per SM).
  cfg = LaunchConfig::linear(64, 64).with_shared_mem(128 << 10);
  EXPECT_EQ(model_.blocks_per_sm(cfg), 1);
}

TEST_F(ResourceModelTest, SharedMemoryLimitLowersOccupancy) {
  const auto wide = LaunchConfig::linear(1024, 64);
  const auto tiled = wide.with_shared_mem(16 << 10);  // 4 blocks/SM
  KernelProfile p;
  p.flops_sp = 1e9;
  const KernelDemand d_wide = model_.kernel_demand(wide, p);
  const KernelDemand d_tiled = model_.kernel_demand(tiled, p);
  EXPECT_GT(d_wide.occupancy, d_tiled.occupancy);
  EXPECT_GT(d_tiled.solo_us, d_wide.solo_us);
}

TEST_F(ResourceModelTest, DutyIsClampedToSaneRange) {
  const auto cfg = LaunchConfig::linear(1024, 256);
  KernelProfile p;
  p.flops_sp = 1e6;
  p.duty = -3.0;  // nonsense input
  EXPECT_GT(model_.kernel_demand(cfg, p).occupancy, 0);
  p.duty = 99.0;
  EXPECT_LE(model_.kernel_demand(cfg, p).occupancy, 1.0);
}

}  // namespace
}  // namespace psched::sim

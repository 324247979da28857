// The full-scan reference oracle itself, against hand-computed rates on
// the test device (4 SMs, PCIe 1e4 B/us, NVLink 2e4 B/us). The solver
// tests trust the oracle; these pin it independently of the engine.
#include <gtest/gtest.h>

#include <vector>

#include "reference_solver.hpp"

namespace psched::sim {
namespace {

using test::reference_rates;

Op running_kernel(OpId id, TenantId tenant, double sm_demand) {
  Op op;
  op.id = id;
  op.kind = OpKind::Kernel;
  op.tenant = tenant;
  op.sm_demand = sm_demand;
  op.occupancy = 1.0;
  op.state = OpState::Running;
  return op;
}

Op running_copy(OpId id, OpKind kind, TenantId tenant) {
  Op op;
  op.id = id;
  op.kind = kind;
  op.tenant = tenant;
  op.state = OpState::Running;
  return op;
}

TEST(ReferenceSolver, WeightedSaturatedKernelsSplitByWeight) {
  // Two full-device kernels: base rate 0.5 each; weights 3:1 re-split the
  // class total 1.0 into 0.75 / 0.25.
  Engine eng(DeviceSpec::test_device());
  eng.set_tenant_weight(1, 3.0);
  const auto r = reference_rates(
      eng, {running_kernel(1, 1, 4.0), running_kernel(2, 2, 4.0)});
  EXPECT_DOUBLE_EQ(r.at(1), 0.75);
  EXPECT_DOUBLE_EQ(r.at(2), 0.25);
}

TEST(ReferenceSolver, CappedTenantSurplusFlowsToTheOthers) {
  // Four half-device kernels (fill 0.5 each, base rate b apiece). Tenant 1
  // (one kernel, weight 9) wants 0.9 * 4b > 1.0, caps at solo speed, and
  // the rest of the class total goes to tenant 2's three kernels equally.
  Engine eng(DeviceSpec::test_device());
  eng.set_tenant_weight(1, 9.0);
  const auto r = reference_rates(
      eng, {running_kernel(1, 1, 2.0), running_kernel(2, 2, 2.0),
            running_kernel(3, 2, 2.0), running_kernel(4, 2, 2.0)});
  const double b = 0.25 / ResourceModel::utilization(0.5);
  ASSERT_GT(0.9 * 4 * b, 1.0);  // the heavy tenant really caps
  EXPECT_DOUBLE_EQ(r.at(1), 1.0);
  for (const OpId id : {2, 3, 4}) {
    EXPECT_NEAR(r.at(id), (4 * b - 1.0) / 3, 1e-15);
  }
}

TEST(ReferenceSolver, EqualShareTransfersSplitPerTenantThenPerOp) {
  // PCIe H2D at equal weights: tenant 1's single copy gets half the link,
  // tenant 2's two copies a quarter each.
  Engine eng(DeviceSpec::test_device());
  const auto r = reference_rates(
      eng, {running_copy(1, OpKind::CopyH2D, 1),
            running_copy(2, OpKind::CopyH2D, 2),
            running_copy(3, OpKind::CopyH2D, 2)});
  EXPECT_DOUBLE_EQ(r.at(1), 5e3);
  EXPECT_DOUBLE_EQ(r.at(2), 2.5e3);
  EXPECT_DOUBLE_EQ(r.at(3), 2.5e3);
}

TEST(ReferenceSolver, PeerCopiesShareTheirDirectedLink) {
  // Two copies on link 0 -> 1 halve it; the reverse link is its own class.
  Engine eng(Machine::uniform(DeviceSpec::test_device(), 2, true));
  Op a = running_copy(1, OpKind::CopyP2P, 0);
  Op b = running_copy(2, OpKind::CopyP2P, 0);
  Op c = running_copy(3, OpKind::CopyP2P, 0);
  a.peer = b.peer = 0;
  a.device = b.device = 1;
  c.peer = 1;
  c.device = 0;
  const auto r = reference_rates(eng, {a, b, c});
  EXPECT_DOUBLE_EQ(r.at(1), 1e4);
  EXPECT_DOUBLE_EQ(r.at(2), 1e4);
  EXPECT_DOUBLE_EQ(r.at(3), 2e4);
}

TEST(ReferenceSolver, RatelessKindsAreSkipped) {
  Engine eng(DeviceSpec::test_device());
  const auto r =
      reference_rates(eng, {running_copy(1, OpKind::Marker, 0),
                            running_copy(2, OpKind::Host, 0)});
  EXPECT_TRUE(r.empty());
}

}  // namespace
}  // namespace psched::sim

// Solver rates against the full-scan reference oracle.
//
// The engine re-prices running ops through a per-member full scan or the
// virtual-service incremental path, switching regimes on its own. Either
// way every running op's rate must equal what a from-scratch scan of the
// running set gives (tests/solver/reference_solver.hpp): each scenario is
// stopped at the midpoint of every inter-event interval and compared
// there to 1e-9 relative. The matrix covers axes the pinned golden
// fixtures (test_golden_equivalence) do not reach: multi-GPU rosters with
// P2P link classes, multi-tenant weighted sharing with a mid-flight
// re-weight, and batched ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "../sim/sim_test_util.hpp"
#include "reference_solver.hpp"
#include "sim/synthetic.hpp"

namespace psched::sim {
namespace {

using test::Stepper;
using test::expect_rates_match_reference;

std::vector<TimelineEntry> multi_gpu_contention(Stepper& d) {
  Machine machine = Machine::uniform(DeviceSpec::test_device(), 4,
                                     /*nvlink_all_pairs=*/true);
  Engine eng(std::move(machine));
  build_contention_dag(eng, 2000, 32);
  d.run_all(eng);
  return eng.timeline().entries().to_vector();
}

TEST(SolverEquivalence, MultiGpuContention) {
  expect_rates_match_reference(multi_gpu_contention, "multi_gpu_contention");
}

/// Three tenants with weights {1, 2, 3} churning a shared kernel class
/// (plus per-tenant copies), including a mid-flight re-weighting — the
/// water-fill budget-split arithmetic.
std::vector<TimelineEntry> tenant_weighted(Stepper& d) {
  Engine eng(DeviceSpec::test_device());
  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 3; ++t) {
    eng.set_tenant_weight(t, static_cast<double>(t));
    for (int s = 0; s < 2; ++s) {
      streams.push_back(eng.create_stream(kDefaultDevice, t));
    }
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (int k = 0; k < 20; ++k) {
      // Varied fills: some members cap at solo speed, so the bounded
      // water-fill's surplus redistribution engages.
      eng.enqueue(test::raw_kernel(streams[i], 4.0 + 0.5 * (k % 3),
                                   k % 2 == 0 ? 4.0 : 1.0,
                                   k % 2 == 0 ? 1.0 : 0.5),
                  0);
      if (k % 5 == 0) {
        eng.enqueue(test::raw_copy(streams[i], OpKind::CopyH2D, 1e5), 0);
      }
    }
  }
  d.advance_to(eng, 100.0);
  eng.set_tenant_weight(2, 5.0);  // mid-flight re-pricing
  d.run_all(eng);
  return eng.timeline().entries().to_vector();
}

TEST(SolverEquivalence, TenantWeightedSharing) {
  expect_rates_match_reference(tenant_weighted, "tenant_weighted");
}

std::vector<TimelineEntry> batched_ingest(Stepper& d) {
  Engine eng(DeviceSpec::test_device());
  eng.begin_transaction(0);
  build_contention_dag(eng, 500, 16);
  eng.commit_transaction();
  d.run_all(eng);
  return eng.timeline().entries().to_vector();
}

TEST(SolverEquivalence, BatchedIngest) {
  expect_rates_match_reference(batched_ingest, "batched_ingest");
}

// ---------------------------------------------------------------------
// Solver-work bound: the virtual-service path keeps full-scan member
// touches flat as fan-in grows. Pinned per op at twice the value this
// contention DAG measured when the second solver path was retired
// (17 touches over 1000 ops), so an O(members)-per-change regression
// fails here.
// ---------------------------------------------------------------------

TEST(SolverEquivalence, MemberTouchesPerOpStayBounded) {
  constexpr double kMeasuredPerOp = 0.017;
  Engine eng(DeviceSpec::test_device());
  build_contention_dag(eng, 1000, 16);
  eng.run_all();
  const double per_op = static_cast<double>(eng.member_touch_count()) /
                        static_cast<double>(eng.timeline().entries().size());
  EXPECT_LE(per_op, 2 * kMeasuredPerOp);
}

// Fan-in scaling: on the 10k-op contention DAG, member touches per op at
// 128 streams stay within 8x the 8-stream value (or 0.5 while that is
// near zero) — re-solves are O(changed members), not O(members).
TEST(SolverEquivalence, MemberTouchesFlatAsFanInGrows) {
  constexpr int kOps = 10000;
  const auto touches_per_op = [](int streams) {
    Engine eng(DeviceSpec::test_device());
    build_contention_dag(eng, kOps, streams);
    eng.run_all();
    return static_cast<double>(eng.member_touch_count()) / kOps;
  };
  const double low = touches_per_op(8);
  EXPECT_LE(touches_per_op(128), std::max(8 * low, 0.5));
}

}  // namespace
}  // namespace psched::sim

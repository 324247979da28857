// Randomized join/leave churn and mid-flight re-weighting, checked against
// the full-scan reference oracle (tests/solver/reference_solver.hpp).
//
// The churn harness drives a seeded random mix of kernels, transfers and
// faults across several tenants and devices, interleaving enqueues with
// host-clock advances so ops join and leave classes at arbitrary points
// of other members' lifetimes — the regime where the virtual-service
// bookkeeping (lazy V advance, finish-heap epochs, group aggregate
// joins/leaves) has to agree with folding every member on every change.
// At the midpoint of every inter-event interval each running op's rate
// must equal the oracle's to 1e-9 relative. A second input, a DRAM-bound
// kernel mix, keeps every kernel class in the scan regime through the
// same churn.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "../sim/sim_test_util.hpp"
#include "reference_solver.hpp"
#include "sim/engine.hpp"
#include "sim/synthetic.hpp"

namespace psched::sim {
namespace {

using test::Stepper;
using test::expect_rates_match_reference;

constexpr int kChurnOps = 400;

/// The generator's inputs. Mixed: kernels, transfers and faults. DramBound:
/// kernels only, each wanting 1.5-3x its device's DRAM bandwidth alone, so
/// every kernel class (four tenants, eight streams on each device) fails
/// the virtual-service validity test at every solve and stays in scan
/// mode across every join and leave.
enum class ChurnMix { Mixed, DramBound };

/// One seeded churn run: every random draw comes from the same
/// deterministic sequence however the clock is driven.
std::vector<TimelineEntry> run_churn(Stepper& d, Engine& eng, unsigned seed,
                                     ChurnMix mix = ChurnMix::Mixed) {
  std::mt19937 rng(seed);
  // DramBound gives each tenant two streams per device, so a tenant's
  // budget spreads over several members of one class.
  const int per_device = mix == ChurnMix::DramBound ? 2 : 1;
  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 4; ++t) {
    eng.set_tenant_weight(t, 1.0 + 0.5 * t);
    for (DeviceId dev = 0; dev < 2; ++dev) {
      for (int k = 0; k < per_device; ++k) {
        streams.push_back(eng.create_stream(dev, t));
      }
    }
  }

  std::uniform_int_distribution<std::size_t> pick(0, streams.size() - 1);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_real_distribution<double> work(1.0, 12.0);
  std::uniform_real_distribution<double> occ(0.25, 1.0);
  std::uniform_real_distribution<double> gap(0.0, 3.0);
  std::uniform_real_distribution<double> dram_share(1.5, 3.0);

  TimeUs t = 0;
  for (int i = 0; i < kChurnOps; ++i) {
    const StreamId s = streams[pick(rng)];
    if (mix == ChurnMix::DramBound) {
      const double dram = eng.spec(eng.stream_device(s)).dram_bytes_per_us();
      eng.enqueue(test::raw_kernel(s, work(rng), kind(rng) < 7 ? 4.0 : 1.0,
                                   occ(rng), dram * dram_share(rng)),
                  t);
    } else {
      switch (kind(rng)) {
        case 0:
        case 1:
          eng.enqueue(test::raw_copy(s, OpKind::CopyH2D, 1e4 * work(rng)), t);
          break;
        case 2:
          eng.enqueue(test::raw_copy(s, OpKind::CopyD2H, 1e4 * work(rng)), t);
          break;
        case 3:
          eng.enqueue(test::raw_copy(s, OpKind::Fault, 5e3 * work(rng)), t);
          break;
        default:
          // Mixed fills: some saturate the device, some cap at solo speed.
          eng.enqueue(
              test::raw_kernel(s, work(rng), kind(rng) < 7 ? 4.0 : 1.0,
                               occ(rng)),
              t);
          break;
      }
    }
    // Advance between enqueues so joins hit classes mid-epoch; every few
    // steps stay put so transactions of same-instant joins occur too.
    if (i % 4 != 3) {
      t += gap(rng);
      d.advance_to(eng, t);
      eng.audit();
    }
  }
  d.run_all(eng);
  eng.audit();
  return eng.timeline().entries().to_vector();
}

constexpr unsigned kChurnSeeds[] = {1u, 7u, 1234u};

Machine churn_machine() {
  return Machine::uniform(DeviceSpec::test_device(), 2,
                          /*nvlink_all_pairs=*/true);
}

TEST(SolverChurn, RandomJoinLeaveRatesMatchReference) {
  for (const unsigned seed : kChurnSeeds) {
    expect_rates_match_reference(
        [seed](Stepper& d) {
          Engine eng(churn_machine());
          return run_churn(d, eng, seed);
        },
        "churn seed " + std::to_string(seed));
  }
}

TEST(SolverChurn, DramBoundScanModeRatesMatchReference) {
  for (const unsigned seed : kChurnSeeds) {
    const std::string name = "dram-bound churn seed " + std::to_string(seed);
    expect_rates_match_reference(
        [seed](Stepper& d) {
          Engine eng(churn_machine());
          return run_churn(d, eng, seed, ChurnMix::DramBound);
        },
        name);
    // The regime under test really is the scan: no kernel-class solve
    // ever took the virtual-service path.
    Stepper plain;
    Engine eng(churn_machine());
    run_churn(plain, eng, seed, ChurnMix::DramBound);
    for (DeviceId dev = 0; dev < eng.num_devices(); ++dev) {
      const auto stats = eng.class_solver_stats(dev, OpKind::Kernel);
      EXPECT_GT(stats.solves, 0) << name;
      EXPECT_EQ(stats.full_scans, stats.solves) << name << " device " << dev;
    }
  }
}

// ---------------------------------------------------------------------
// Mid-flight set_tenant_weight: re-pricing must be immediate AND stay on
// the group-aggregate path — the weight change re-splits tenant budgets
// without a member scan.
// ---------------------------------------------------------------------

TEST(SolverChurn, WeightChangeRepricesWithoutMemberScan) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
  const StreamId s2 = eng.create_stream(kDefaultDevice, 2);
  // Saturated: fill 1.0 each, base rate 0.5 apiece at equal weights.
  eng.enqueue(test::raw_kernel(s1, 100.0, 4, 1.0), 0);
  eng.enqueue(test::raw_kernel(s2, 100.0, 4, 1.0), 0);
  eng.advance_to(10.0);  // 5.0 work each at equal weights
  eng.audit();

  const long scans_before = eng.full_scan_count();
  const long touches_before = eng.member_touch_count();
  eng.set_tenant_weight(1, 3.0);
  EXPECT_EQ(eng.full_scan_count(), scans_before)
      << "weight change fell back to a full member scan";
  EXPECT_EQ(eng.member_touch_count(), touches_before)
      << "weight change touched members";

  eng.advance_to(20.0);  // [10, 20]: rates 0.75 / 0.25
  eng.audit();
  EXPECT_NEAR(eng.tenant_inflight_work(1), 12.5, 1e-9);
  EXPECT_NEAR(eng.tenant_inflight_work(2), 7.5, 1e-9);
}

// Water-fill under many tenants: {8, 32} tenants at alternating 2:1
// weights saturate one kernel class, four streams apiece, so every
// completion re-splits the tenant budgets. The re-split works on group
// aggregates: the first admission costs one full scan and the drain tail
// a handful more as the solo cap trips, and member touches stay near zero
// (one full scan and 0.005 touches/op when the bound was set).
TEST(SolverChurn, TenantWaterfillStaysOnGroupAggregates) {
  constexpr int kStreamsPerTenant = 4;
  constexpr int kOpsPerStream = 200;
  constexpr long kMaxFullScans = 64;
  constexpr double kMaxTouchesPerOp = 1.0;
  for (const int n_tenants : {8, 32}) {
    Engine eng(DeviceSpec::test_device());
    for (TenantId t = 1; t <= n_tenants; ++t) {
      eng.set_tenant_weight(t, t % 2 == 0 ? 2.0 : 1.0);
      for (int s = 0; s < kStreamsPerTenant; ++s) {
        const StreamId st = eng.create_stream(kDefaultDevice, t);
        for (int i = 0; i < kOpsPerStream; ++i) {
          eng.enqueue(test::raw_kernel(st, 5.0, 4.0, 1.0), 0);
        }
      }
    }
    eng.run_all();
    const double ops = n_tenants * kStreamsPerTenant * kOpsPerStream;
    EXPECT_LE(eng.full_scan_count(), kMaxFullScans) << n_tenants << " tenants";
    EXPECT_LE(static_cast<double>(eng.member_touch_count()) / ops,
              kMaxTouchesPerOp)
        << n_tenants << " tenants";
  }
}

std::vector<TimelineEntry> weight_change(Stepper& d) {
  Engine eng(DeviceSpec::test_device());
  std::vector<StreamId> streams;
  for (TenantId t = 1; t <= 3; ++t) {
    streams.push_back(eng.create_stream(kDefaultDevice, t));
  }
  for (const StreamId s : streams) {
    for (int k = 0; k < 8; ++k) {
      eng.enqueue(test::raw_kernel(s, 6.0, 4, 1.0), 0);
    }
  }
  d.advance_to(eng, 15.0);
  eng.audit();
  eng.set_tenant_weight(1, 4.0);
  d.advance_to(eng, 40.0);
  eng.audit();
  eng.set_tenant_weight(1, 1.0);
  eng.set_tenant_weight(3, 0.5);
  d.run_all(eng);
  eng.audit();
  return eng.timeline().entries().to_vector();
}

TEST(SolverChurn, WeightChangeRatesMatchReference) {
  // A mid-flight re-weighting sequence: every interval between re-weights
  // and completions is priced with the weights in effect.
  expect_rates_match_reference(weight_change, "weight_change");
}

// ---------------------------------------------------------------------
// Counter contract: full-scan member touches stay bounded per op under
// churn — pinned at twice what each seed measured when the second solver
// path was retired — and per-class stats add up to the engine-wide
// totals.
// ---------------------------------------------------------------------

TEST(SolverChurn, MemberTouchesPerOpStayBounded) {
  constexpr std::pair<unsigned, double> kMeasuredPerOp[] = {
      {1u, 1.1025}, {7u, 0.975}, {1234u, 1.15}};
  for (const auto& [seed, measured] : kMeasuredPerOp) {
    Stepper plain;
    Engine eng(churn_machine());
    run_churn(plain, eng, seed);
    const double per_op = static_cast<double>(eng.member_touch_count()) /
                          static_cast<double>(kChurnOps);
    EXPECT_LE(per_op, 2 * measured) << "churn seed " << seed;
  }
}

TEST(SolverChurn, PerClassStatsSumToTotals) {
  Engine eng(DeviceSpec::test_device());
  eng.set_solve_timing(true);
  build_contention_dag(eng, 500, 16);
  eng.run_all();
  eng.audit();

  long scans = 0;
  long touches = 0;
  double time_us = 0;
  for (const OpKind kind : {OpKind::Kernel, OpKind::CopyH2D,
                            OpKind::CopyD2H, OpKind::Fault}) {
    const auto s = eng.class_solver_stats(kDefaultDevice, kind);
    scans += s.full_scans;
    touches += s.member_touches;
    time_us += s.solve_time_us;
  }
  EXPECT_EQ(scans, eng.full_scan_count());
  EXPECT_EQ(touches, eng.member_touch_count());
  EXPECT_GT(time_us, 0.0);  // timing was enabled
  EXPECT_NEAR(time_us, eng.solve_time_us(), 1e-9);
}

}  // namespace
}  // namespace psched::sim

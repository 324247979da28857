// Multi-tenant scheduling: weighted fair sharing across tenants inside a
// resource class, quota-biased LRU eviction, per-tenant accounting and
// OOM attribution, and tenant tagging through streams, transactions, and
// recorded replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "../../bench/multi_app_scenario.hpp"
#include "sim/tenant.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

/// The saturating test kernel: fills the whole test device (sm_demand 4,
/// occupancy 1.0) and runs 5us solo, so N concurrent instances share the
/// kernel class at rate 1/N each — fair-sharing arithmetic is exact.
LaunchSpec full_kernel(const std::string& name) {
  LaunchSpec k;
  k.name = name;
  k.config = LaunchConfig::linear(8, 512);
  k.profile.flops_sp = 2.56e6;
  return k;
}

// ---------------------------------------------------------------------
// Weighted fair sharing — asserted on the exact scenario the bench
// ratchet gates (bench/multi_app_scenario.hpp), so the acceptance
// number and the test can never diverge.
// ---------------------------------------------------------------------

TEST(TenantFairSharing, WeightTwoTenantGetsTwiceTheThroughput) {
  // The acceptance bound: 2x +- 10% under a saturated class.
  const auto w = psched::bench::run_weighted_pair(/*smoke=*/false, 2.0, 1.0);
  EXPECT_GT(w.work_ratio, 1.8);
  EXPECT_LT(w.work_ratio, 2.2);
}

TEST(TenantFairSharing, EqualWeightsShareEqually) {
  const auto w = psched::bench::run_weighted_pair(/*smoke=*/false, 1.0, 1.0);
  EXPECT_NEAR(w.work_ratio, 1.0, 0.05);
}

TEST(TenantFairSharing, CappedTenantSurplusFlowsToOthers) {
  // Lightly-loaded kernel class where the weight-2 tenant's target
  // exceeds solo speed: its rate caps at 1.0 and the surplus must flow
  // to the weight-1 tenant — the class aggregate matches the unweighted
  // run exactly (work conservation) instead of idling the device.
  auto progress_at = [](bool weighted, TimeUs at) {
    Engine eng(DeviceSpec::test_device());
    if (weighted) eng.set_tenant_weight(1, 2.0);
    const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
    const StreamId s2 = eng.create_stream(kDefaultDevice, 2);
    // fill 0.05 each: base rate ~0.82, so the weighted 2/3 target (~1.1)
    // crosses the 1.0 cap.
    eng.enqueue(test::raw_kernel(s1, 10.0, 1, 0.2), 0);
    eng.enqueue(test::raw_kernel(s2, 10.0, 1, 0.2), 0);
    eng.advance_to(at);
    const auto work = [&eng](TenantId t) {
      return eng.tenant_completed_work(t) + eng.tenant_inflight_work(t);
    };
    return std::make_pair(work(1), work(2));
  };
  const auto [uw_hi, uw_lo] = progress_at(false, 5.0);
  EXPECT_DOUBLE_EQ(uw_hi, uw_lo);  // equal weights: identical shares
  const auto [w_hi, w_lo] = progress_at(true, 5.0);
  EXPECT_NEAR(w_hi, 5.0, 1e-9);              // capped at solo speed
  EXPECT_GT(w_lo, uw_lo * 0.5);              // got the surplus, not 1/3
  EXPECT_NEAR(w_hi + w_lo, uw_hi + uw_lo, 1e-9);  // aggregate conserved
}

TEST(TenantFairSharing, WeightChangeAppliesImmediately) {
  // Dynamic re-weighting (the QoS entry point): changing a weight while
  // ops are mid-flight re-prices them at the call, not at the next
  // unrelated membership churn.
  Engine eng(DeviceSpec::test_device());
  const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
  const StreamId s2 = eng.create_stream(kDefaultDevice, 2);
  // Saturated: fill 1.0 each, base rate 0.5 apiece.
  eng.enqueue(test::raw_kernel(s1, 100.0, 4, 1.0), 0);
  eng.enqueue(test::raw_kernel(s2, 100.0, 4, 1.0), 0);
  eng.advance_to(10.0);  // 5.0 work each at equal weights
  eng.set_tenant_weight(1, 3.0);
  eng.advance_to(20.0);  // [10, 20]: rates 0.75 / 0.25
  EXPECT_NEAR(eng.tenant_inflight_work(1), 12.5, 1e-9);
  EXPECT_NEAR(eng.tenant_inflight_work(2), 7.5, 1e-9);
}

TEST(TenantFairSharing, FaultClassSharesByWeight) {
  // Two equal-size fault migrations in flight together (faults are not
  // DMA-serialized): the weight-2 tenant's fault gets 2/3 of the
  // contended fault-path bandwidth. test_device: fault bw 5e3 bytes/us,
  // two faults de-rate it to 5e3/1.3. With weights {2, 1}:
  //   hi rate = (2/3)(5e3/1.3) -> 1e6 bytes end at exactly 390us;
  //   lo holds 5e5 bytes at hi's finish, then runs solo -> ends at 490us.
  // With equal weights both migrate at half the de-rated path: 520us.
  auto fault_ends = [](double w_hi) {
    Engine eng(DeviceSpec::test_device());
    eng.set_tenant_weight(1, w_hi);
    eng.set_tenant_weight(2, 1.0);
    const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
    const StreamId s2 = eng.create_stream(kDefaultDevice, 2);
    const OpId f1 = eng.enqueue(test::raw_copy(s1, OpKind::Fault, 1e6), 0);
    const OpId f2 = eng.enqueue(test::raw_copy(s2, OpKind::Fault, 1e6), 0);
    eng.run_all();
    return std::make_pair(eng.op(f1).end_time, eng.op(f2).end_time);
  };
  const auto [w_hi, w_lo] = fault_ends(2.0);
  EXPECT_NEAR(w_hi, 390.0, 1e-6);
  EXPECT_NEAR(w_lo, 490.0, 1e-6);
  const auto [e_hi, e_lo] = fault_ends(1.0);
  EXPECT_NEAR(e_hi, 520.0, 1e-6);
  EXPECT_DOUBLE_EQ(e_hi, e_lo);
}

// ---------------------------------------------------------------------
// Quota-biased eviction (MemoryManager level: exact victim control)
// ---------------------------------------------------------------------

DeviceSpec tiny_device(std::size_t bytes) {
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = bytes;
  return spec;
}

TEST(TenantQuota, OverQuotaTenantEvictedBeforeUnderQuotaTenant) {
  MemoryManager mm(Machine::single(tiny_device(10'000)), /*page=*/1000);
  // Tenant 2 (under quota) resident first: strictly LRU-oldest.
  const ArrayId b = mm.alloc(3000, "b", /*owner=*/2);
  mm.charge_residency(mm.info(b), 0);
  // Tenant 1 over its 2000-byte quota with two newer arrays.
  mm.set_tenant_quota(1, 0, 2000);
  const ArrayId a1 = mm.alloc(3000, "a1", 1);
  mm.charge_residency(mm.info(a1), 0);
  const ArrayId a2 = mm.alloc(3000, "a2", 1);
  mm.charge_residency(mm.info(a2), 0);
  ASSERT_TRUE(mm.tenant_over_quota(1, 0));
  ASSERT_FALSE(mm.tenant_over_quota(2, 0));

  // Tenant 2 admits 2000 more: the 1000-byte shortfall must come from
  // tenant 1's pages even though tenant 2's array b is LRU-colder.
  const ArrayId c = mm.alloc(2000, "c", 2);
  const ArrayId ids[] = {c};
  const EvictionPlan plan = mm.charge_residency(ids, 0, /*requester=*/2);
  ASSERT_FALSE(plan.empty());
  for (const PageOut& po : plan.page_outs) {
    EXPECT_TRUE(po.array == a1 || po.array == a2)
        << "victimized under-quota array " << po.array;
  }
  EXPECT_EQ(mm.info(b).resident_bytes_on(0), 3000u);
  EXPECT_EQ(mm.tenant_evicted_bytes(1, 0), 1000u);
  EXPECT_EQ(mm.tenant_evicted_bytes(2, 0), 0u);
}

TEST(TenantQuota, PinnedPagesStayExemptFromQuotaBias) {
  MemoryManager mm(Machine::single(tiny_device(10'000)), /*page=*/1000);
  mm.set_tenant_quota(1, 0, 2000);
  const ArrayId a1 = mm.alloc(4000, "a1", 1);
  mm.charge_residency(mm.info(a1), 0);
  const ArrayId a2 = mm.alloc(4000, "a2", 1);
  mm.charge_residency(mm.info(a2), 0);
  mm.set_pinned(mm.info(a1), 0, true);

  // Shortfall 2000: a1 is over-quota AND LRU-colder, but pinned — every
  // victim must come from a2.
  const ArrayId c = mm.alloc(4000, "c", 2);
  const ArrayId ids[] = {c};
  const EvictionPlan plan = mm.charge_residency(ids, 0, 2);
  ASSERT_FALSE(plan.empty());
  for (const PageOut& po : plan.page_outs) EXPECT_EQ(po.array, a2);
  EXPECT_EQ(mm.info(a1).resident_bytes_on(0), 4000u);
}

TEST(TenantQuota, NoQuotaConfigurationKeepsHistoricalVictimOrder) {
  // The same admission sequence with and without (never-binding) quota
  // calls must produce identical eviction plans: quota bias only ever
  // reorders when someone is actually over quota.
  auto run = [](bool configure) {
    MemoryManager mm(Machine::single(tiny_device(10'000)), /*page=*/1000);
    if (configure) {
      mm.set_tenant_quota(1, 0, MemoryManager::kNoQuota);
      mm.set_tenant_quota(2, 0, 1 << 30);
    }
    const ArrayId x = mm.alloc(4000, "x", 1);
    mm.charge_residency(mm.info(x), 0);
    const ArrayId y = mm.alloc(4000, "y", 2);
    mm.charge_residency(mm.info(y), 0);
    const ArrayId z = mm.alloc(4000, "z", 1);
    const ArrayId ids[] = {z};
    return mm.charge_residency(ids, 0, 1);
  };
  const EvictionPlan with = run(true);
  const EvictionPlan without = run(false);
  ASSERT_EQ(with.page_outs.size(), without.page_outs.size());
  for (std::size_t i = 0; i < with.page_outs.size(); ++i) {
    EXPECT_EQ(with.page_outs[i].array, without.page_outs[i].array);
    EXPECT_EQ(with.page_outs[i].first, without.page_outs[i].first);
    EXPECT_EQ(with.page_outs[i].count, without.page_outs[i].count);
  }
}

// ---------------------------------------------------------------------
// Accounting and OOM attribution
// ---------------------------------------------------------------------

TEST(TenantAccounting, UsedBytesFollowChargeAndFree) {
  MemoryManager mm(Machine::single(tiny_device(10'000)), /*page=*/1000);
  const ArrayId a = mm.alloc(3000, "a", 4);
  EXPECT_EQ(mm.tenant_alloc_bytes(4), 3000u);
  EXPECT_EQ(mm.tenant_used_bytes(4, 0), 0u);
  mm.charge_residency(mm.info(a), 0);
  EXPECT_EQ(mm.tenant_used_bytes(4, 0), 3000u);
  mm.free_array(a);
  EXPECT_EQ(mm.tenant_used_bytes(4, 0), 0u);
  EXPECT_EQ(mm.tenant_alloc_bytes(4), 0u);
}

TEST(TenantAccounting, DeviceOomCarriesRequestingTenant) {
  MemoryManager mm(Machine::single(tiny_device(10'000)), /*page=*/1000);
  const ArrayId small = mm.alloc(2000, "small", 3);
  mm.charge_residency(mm.info(small), 0);
  const ArrayId big = mm.alloc(20'000, "big", 3);
  const ArrayId ids[] = {big};
  try {
    mm.charge_residency(ids, 0, /*requester=*/3);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    EXPECT_EQ(e.device, 0);
    EXPECT_EQ(e.tenant, 3);
    EXPECT_EQ(e.requested, 20'000u);
    EXPECT_EQ(e.tenant_in_use, 2000u);  // tenant 3's resident bytes
    EXPECT_NE(std::string(e.what()).find("tenant 3"), std::string::npos);
  }
}

TEST(TenantAccounting, HostHeapOomCarriesOwner) {
  MemoryManager mm(Machine::single(tiny_device(10'000)), /*page=*/1000);
  mm.alloc(30'000, "most", 6);  // heap bound = 4x device = 40'000
  try {
    mm.alloc(20'000, "over", 6);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    EXPECT_EQ(e.device, kInvalidDevice);
    EXPECT_EQ(e.tenant, 6);
    EXPECT_EQ(e.tenant_in_use, 30'000u);  // tenant 6's allocated bytes
  }
}

// ---------------------------------------------------------------------
// Tagging: streams, transactions, recorded replays
// ---------------------------------------------------------------------

TEST(TenantTagging, OpsInheritTheirStreamsTenant) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s1 = eng.create_stream(kDefaultDevice, /*tenant=*/1);
  const StreamId s2 = eng.create_stream(kDefaultDevice, /*tenant=*/2);
  EXPECT_EQ(eng.stream_tenant(s1), 1);
  EXPECT_EQ(eng.stream_tenant(s2), 2);
  EXPECT_EQ(eng.stream_tenant(kDefaultStream), kDefaultTenant);
  eng.enqueue(test::raw_kernel(s1, 5.0, 2, 1.0), 0);
  eng.enqueue(test::raw_kernel(s2, 5.0, 2, 1.0), 0);
  eng.enqueue(test::raw_kernel(s2, 5.0, 2, 1.0), 0);
  eng.run_all();
  EXPECT_EQ(eng.tenant_completed_ops(1), 1);
  EXPECT_EQ(eng.tenant_completed_ops(2), 2);
  EXPECT_DOUBLE_EQ(eng.tenant_completed_work(1), 5.0);
  EXPECT_DOUBLE_EQ(eng.tenant_completed_work(2), 10.0);
  EXPECT_THROW(eng.create_stream(kDefaultDevice, -2), ApiError);
  // Tenant ids index dense accounting vectors: a wild id must be an
  // ApiError, not a multi-gigabyte resize.
  EXPECT_THROW(eng.create_stream(kDefaultDevice, kMaxTenants), ApiError);
  EXPECT_THROW(eng.set_tenant_weight(kMaxTenants, 2.0), ApiError);
  GpuRuntime rt(DeviceSpec::test_device());
  EXPECT_THROW(rt.set_active_tenant(kMaxTenants), ApiError);
  MemoryManager mm(Machine::single(DeviceSpec::test_device()));
  EXPECT_THROW(mm.alloc(1024, "wild", kMaxTenants), ApiError);
}

TEST(TenantTagging, RecordedReplayKeepsAttribution) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t0 = mgr.create_tenant({"zero", 1.0});
  Tenant& t1 = mgr.create_tenant({"one", 1.0});
  (void)t0;
  const StreamId s = t1.create_stream();
  Submission sub;
  t1.gpu().begin_record(sub);
  t1.launch(s, full_kernel("rec"));
  t1.gpu().end_record();
  rt.synchronize_device();
  ASSERT_DOUBLE_EQ(rt.engine().tenant_completed_work(1), 5.0);
  // Two replays: the recorded op re-enqueues on tenant 1's stream, so
  // attribution re-derives from the stream without any per-op plumbing.
  rt.replay(sub);
  rt.synchronize_device();
  rt.replay(sub);
  rt.synchronize_device();
  EXPECT_DOUBLE_EQ(rt.engine().tenant_completed_work(1), 15.0);
  EXPECT_DOUBLE_EQ(rt.engine().tenant_completed_work(0), 0.0);
}

TEST(TenantTagging, WeightValidation) {
  Engine eng(DeviceSpec::test_device());
  EXPECT_THROW(eng.set_tenant_weight(0, 0.0), ApiError);
  EXPECT_THROW(eng.set_tenant_weight(-1, 1.0), ApiError);
  eng.set_tenant_weight(3, 2.5);
  EXPECT_DOUBLE_EQ(eng.tenant_weight(3), 2.5);
  EXPECT_DOUBLE_EQ(eng.tenant_weight(7), 1.0);  // unset: default weight
}

TEST(TenantTagging, NonFiniteWeightRejected) {
  // An infinite weight would turn a shared class's budget split into
  // inf/inf: both entry points reject it before any state changes.
  const double inf = std::numeric_limits<double>::infinity();
  Engine eng(DeviceSpec::test_device());
  EXPECT_THROW(eng.set_tenant_weight(1, inf), ApiError);
  EXPECT_THROW(eng.set_tenant_weight(1, std::nan("")), ApiError);
  EXPECT_DOUBLE_EQ(eng.tenant_weight(1), 1.0);

  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  mgr.create_tenant({"a", 1.0});
  EXPECT_THROW(mgr.create_tenant({"b", inf}), ApiError);
  EXPECT_EQ(mgr.num_tenants(), 1u);
  EXPECT_DOUBLE_EQ(rt.engine().tenant_weight(1), 1.0);
}

// ---------------------------------------------------------------------
// Manager surface
// ---------------------------------------------------------------------

TEST(TenantManagerSurface, HandlesRegisterWeightAndQuota) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& a = mgr.create_tenant({"a", 3.0, 1 << 20});
  Tenant& b = mgr.create_tenant({});
  EXPECT_EQ(a.id(), 0);
  EXPECT_EQ(b.id(), 1);
  EXPECT_EQ(b.name(), "tenant1");
  EXPECT_DOUBLE_EQ(rt.engine().tenant_weight(0), 3.0);
  EXPECT_EQ(rt.memory().tenant_quota(0, 0), std::size_t{1} << 20);
  EXPECT_EQ(rt.memory().tenant_quota(1, 0), MemoryManager::kNoQuota);
  EXPECT_EQ(mgr.num_tenants(), 2u);
  EXPECT_THROW((void)mgr.tenant(5), ApiError);

  // The handle's streams carry its tenant; allocs carry its ownership.
  const StreamId s = b.create_stream();
  EXPECT_EQ(rt.engine().stream_tenant(s), 1);
  const ArrayId arr = b.alloc(4096, "barr");
  EXPECT_EQ(rt.memory().info(arr).owner, 1);
}

TEST(TenantManagerSurface, JainIndexBounds) {
  const std::vector<double> fair = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(TenantManager::jain_index(fair), 1.0);
  const std::vector<double> unfair = {10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(TenantManager::jain_index(unfair), 0.25);
  EXPECT_DOUBLE_EQ(TenantManager::jain_index({}), 1.0);
}

TEST(TenantManagerSurface, TenantSynchronizeDrainsOwnStreams) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& a = mgr.create_tenant({"a", 1.0});
  Tenant& b = mgr.create_tenant({"b", 1.0});
  const StreamId sa = a.create_stream();
  const StreamId sb = b.create_stream();
  a.launch(sa, full_kernel("ka"));
  b.launch(sb, full_kernel("kb"));
  a.synchronize();
  EXPECT_EQ(a.ops_completed(), 1);
  // b's kernel may or may not have completed (shared virtual clock), but
  // a's own streams are drained.
  EXPECT_TRUE(rt.engine().stream_idle(sa));
  b.synchronize();
  EXPECT_TRUE(rt.engine().stream_idle(sb));
  EXPECT_EQ(b.ops_completed(), 1);
}

}  // namespace
}  // namespace psched::sim

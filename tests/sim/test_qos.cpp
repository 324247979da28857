// Latency QoS: EEVDF ready-head ordering, lag accounting, admission
// control, and the p99 feedback controller (sim/qos.hpp).
//
// The qos ctest label runs this suite in the sanitize gate and in both
// the asan-gate and tsan-gate presets.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "../../bench/multi_app_scenario.hpp"
#include "sim/ingest_queue.hpp"
#include "sim/qos.hpp"
#include "sim/tenant.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

/// The saturating test kernel (same as the tenant suite): fills the whole
/// test device and runs 5us solo, so N concurrent instances share the
/// kernel class at rate 1/N each.
LaunchSpec full_kernel(const std::string& name) {
  LaunchSpec k;
  k.name = name;
  k.config = LaunchConfig::linear(8, 512);
  k.profile.flops_sp = 2.56e6;
  return k;
}

// ---------------------------------------------------------------------
// EEVDF ready-head ordering. H2D copies serialize on the DMA engine
// (one in flight per direction), and drain_ready's sweep order decides
// which same-instant candidate grabs it — the stock order is ascending
// stream id, so the observable is which copy's start_time is 0.
// ---------------------------------------------------------------------

TEST(QosEevdf, EligibleEarlierDeadlineBeatsStreamOrder) {
  const auto copy_starts = [](bool keys) {
    Engine eng(DeviceSpec::test_device());
    const StreamId s0 = eng.create_stream(kDefaultDevice, /*tenant=*/0);
    const StreamId s1 = eng.create_stream(kDefaultDevice, /*tenant=*/1);
    if (keys) {
      // Tenant 1: eligible with a finite deadline; tenant 0: batch
      // (eligible, infinite). Earliest eligible deadline must win even
      // though its stream id sorts second.
      eng.set_tenant_qos(0, /*eligible=*/true, kTimeInfinity);
      eng.set_tenant_qos(1, /*eligible=*/true, /*vdeadline=*/100.0);
    }
    const OpId c0 = eng.enqueue(test::raw_copy(s0, OpKind::CopyH2D, 1e6), 0);
    const OpId c1 = eng.enqueue(test::raw_copy(s1, OpKind::CopyH2D, 1e6), 0);
    eng.run_all();
    return std::make_pair(eng.op(c0).start_time, eng.op(c1).start_time);
  };
  const auto [plain0, plain1] = copy_starts(false);
  EXPECT_EQ(plain0, 0.0);   // stock sweep: ascending stream id
  EXPECT_GT(plain1, 0.0);
  const auto [qos0, qos1] = copy_starts(true);
  EXPECT_EQ(qos1, 0.0);     // EEVDF: the finite deadline goes first
  EXPECT_GT(qos0, 0.0);
}

TEST(QosEevdf, IneligibleRanksBehindEligible) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s0 = eng.create_stream(kDefaultDevice, 0);
  const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
  // Tenant 0 has the *earlier* deadline but is ineligible (over-served);
  // the eligible batch tenant must still go first.
  eng.set_tenant_qos(0, /*eligible=*/false, /*vdeadline=*/10.0);
  eng.set_tenant_qos(1, /*eligible=*/true, kTimeInfinity);
  const OpId c0 = eng.enqueue(test::raw_copy(s0, OpKind::CopyH2D, 1e6), 0);
  const OpId c1 = eng.enqueue(test::raw_copy(s1, OpKind::CopyH2D, 1e6), 0);
  eng.run_all();
  EXPECT_EQ(eng.op(c1).start_time, 0.0);
  EXPECT_GT(eng.op(c0).start_time, 0.0);
}

TEST(QosEevdf, ClearRestoresStockOrder) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s0 = eng.create_stream(kDefaultDevice, 0);
  const StreamId s1 = eng.create_stream(kDefaultDevice, 1);
  eng.set_tenant_qos(1, true, 100.0);
  ASSERT_TRUE(eng.qos_active());
  eng.clear_tenant_qos();
  EXPECT_FALSE(eng.qos_active());
  const OpId c0 = eng.enqueue(test::raw_copy(s0, OpKind::CopyH2D, 1e6), 0);
  const OpId c1 = eng.enqueue(test::raw_copy(s1, OpKind::CopyH2D, 1e6), 0);
  eng.run_all();
  EXPECT_EQ(eng.op(c0).start_time, 0.0);
  EXPECT_GT(eng.op(c1).start_time, 0.0);
}

// ---------------------------------------------------------------------
// Lag accounting.
// ---------------------------------------------------------------------

TEST(QosLag, ConservedNearZeroUnderSaturation) {
  // Two equal-weight batch tenants flooding one saturated kernel class:
  // the fluid split matches the entitled line exactly, so per-tenant lag
  // and the roster total both stay at rounding noise.
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& a = mgr.create_tenant({"a"});
  Tenant& b = mgr.create_tenant({"b"});
  const StreamId sa = a.create_stream();
  const StreamId sb = b.create_stream();
  QosManager qos(mgr);
  const LaunchSpec k = full_kernel("flood");
  // One batched submission: both backlogs land at a single host instant,
  // so neither tenant gets a solo head start the entitled line would
  // (correctly) count against it.
  rt.begin_submit();
  for (int i = 0; i < 40; ++i) {
    a.launch(sa, k);
    b.launch(sb, k);
  }
  rt.commit();
  // The batched calls stagger the two backlogs' first ops by one 0.2us
  // call quantum — a one-time, bounded head start. Under saturation the
  // fluid split then matches the entitled line exactly: the total lag
  // telescopes to ~zero every tick and the per-tenant lag is stationary
  // (bounded by the submission quantum, zero drift across ticks).
  rt.host_advance(10.0);
  qos.tick();
  const double lag0 = a.qos_stats().lag_us;
  EXPECT_LT(std::fabs(lag0), 0.5);
  for (int step = 0; step < 10; ++step) {
    rt.host_advance(10.0);
    qos.tick();
    EXPECT_LT(std::fabs(qos.total_lag()), 1e-6);
    EXPECT_NEAR(a.qos_stats().lag_us, lag0, 1e-6);
  }
  EXPECT_TRUE(b.qos_stats().eligible);  // the later-submitted backlog
  rt.synchronize_device();
}

TEST(QosLag, CappedTenantFallsBehindItsEntitlement) {
  // Low-occupancy kernels cap near solo speed, so both tenants receive
  // ~equal service no matter the weights. Under weights {2, 1} the
  // entitled line splits 2:1: the weight-2 tenant falls behind it
  // (lag > 0, stays eligible), the weight-1 tenant runs ahead (lag < 0,
  // turns ineligible), and the total still telescopes to ~zero.
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& hi = mgr.create_tenant({"hi", 2.0});
  Tenant& lo = mgr.create_tenant({"lo", 1.0});
  const StreamId sh = hi.create_stream();
  const StreamId sl = lo.create_stream();
  QosManager qos(mgr);
  LaunchSpec k = full_kernel("light");
  k.config = LaunchConfig::linear(1, 128);  // ~solo-speed capped member
  for (int i = 0; i < 100; ++i) {
    hi.launch(sh, k);
    lo.launch(sl, k);
  }
  for (int step = 0; step < 8; ++step) {
    rt.host_advance(5.0);
    qos.tick();
  }
  const QosTenantStats h = hi.qos_stats();
  const QosTenantStats l = lo.qos_stats();
  EXPECT_GT(h.lag_us, 1e-3);   // under-served vs the 2/3 entitlement
  EXPECT_LT(l.lag_us, -1e-3);  // over-served vs the 1/3 entitlement
  EXPECT_TRUE(h.eligible);
  EXPECT_FALSE(l.eligible);
  EXPECT_LT(std::fabs(qos.total_lag()), 1e-6);
  rt.synchronize_device();
}

// ---------------------------------------------------------------------
// Batch-only equivalence: a QosManager over all-batch tenants must not
// perturb the schedule at all.
// ---------------------------------------------------------------------

TEST(QosGolden, BatchOnlyScheduleBitIdentical) {
  const auto run = [](bool with_qos) {
    GpuRuntime rt(DeviceSpec::test_device());
    TenantManager mgr(rt);
    Tenant& a = mgr.create_tenant({"a", 2.0});
    Tenant& b = mgr.create_tenant({"b", 1.0});
    std::vector<StreamId> streams = {a.create_stream(), a.create_stream(),
                                     b.create_stream()};
    std::unique_ptr<QosManager> qos;
    if (with_qos) qos = std::make_unique<QosManager>(mgr);
    const LaunchSpec k = full_kernel("k");
    for (int r = 0; r < 12; ++r) {
      a.launch(streams[0], k);
      a.launch(streams[1], k);
      b.launch(streams[2], k);
      rt.host_advance(7.0);
      // The tick polls internally; the baseline polls in the same spot.
      if (with_qos) {
        qos->tick();
      } else {
        rt.poll();
      }
    }
    rt.synchronize_device();
    return rt.timeline().entries().to_vector();
  };
  test::expect_same_timeline(run(true), run(false));
}

// ---------------------------------------------------------------------
// Admission control: structured, recoverable rejections.
// ---------------------------------------------------------------------

TEST(QosAdmission, DepthBoundRejectsAndRecovers) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t = mgr.create_tenant({"t"});
  const StreamId s = t.create_stream();
  QosManager qos(mgr);
  qos.set_limits(t.id(), {/*max_queue_depth=*/2, /*max_lag_us=*/-1});
  const LaunchSpec k = full_kernel("k");
  t.launch(s, k);
  t.launch(s, k);
  // Third launch finds the tenant at its depth bound: structured error,
  // thrown before any state changes.
  try {
    t.launch(s, k);
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.tenant, t.id());
    EXPECT_EQ(e.service_class, ServiceClass::Batch);
    EXPECT_EQ(e.queue_depth, 2);
    EXPECT_EQ(e.depth_limit, 2);
    EXPECT_EQ(e.lag_limit_us, -1);
    EXPECT_NE(std::string(e.what()).find("queue depth"), std::string::npos);
  }
  EXPECT_EQ(t.qos_stats().admission_rejections, 1);
  EXPECT_EQ(t.qos_stats().outstanding, 2);
  // Recovery: drain the backlog, let a tick observe the completions, and
  // the same call succeeds — the rejection left the runtime fully usable.
  rt.synchronize_device();
  qos.tick();
  EXPECT_EQ(t.qos_stats().outstanding, 0);
  EXPECT_NE(t.launch(s, k), kInvalidOp);
  rt.synchronize_device();
}

TEST(QosAdmission, LagBoundRejectsWithLagBranch) {
  // An unbounded depth with a tiny lag bound: force lag past it via the
  // capped-kernel imbalance from QosLag above, then expect the lag branch
  // of the error (depth_limit -1, lag over limit).
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& hi = mgr.create_tenant({"hi", 2.0});
  Tenant& lo = mgr.create_tenant({"lo", 1.0});
  const StreamId sh = hi.create_stream();
  const StreamId sl = lo.create_stream();
  QosManager qos(mgr);
  qos.set_limits(hi.id(), {-1, /*max_lag_us=*/1e-3});
  LaunchSpec k = full_kernel("light");
  k.config = LaunchConfig::linear(1, 128);
  for (int i = 0; i < 100; ++i) {
    hi.launch(sh, k);
    lo.launch(sl, k);
  }
  for (int step = 0; step < 8; ++step) {
    rt.host_advance(5.0);
    qos.tick();
  }
  ASSERT_GT(hi.qos_stats().lag_us, 1e-3);
  try {
    hi.launch(sh, k);
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.tenant, hi.id());
    EXPECT_EQ(e.depth_limit, -1);
    EXPECT_GT(e.lag_us, e.lag_limit_us);
    EXPECT_NE(std::string(e.what()).find("lag"), std::string::npos);
  }
  rt.synchronize_device();
}

// Every ingest producer entry runs the admission check: the token-
// returning ones throw, the fire-and-forget ones defer and still run.
TEST(QosAdmission, IngestSubmitRejectsPostDefers) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t = mgr.create_tenant({"t"});
  const StreamId s = t.create_stream();
  Submission sub;
  rt.begin_record(sub);
  t.launch(s, full_kernel("recorded"));
  rt.end_record();
  t.synchronize();
  const long base = t.ops_completed();

  QosManager qos(mgr);
  // Depth bound 0: every producer-side submission is over the bound, so
  // the rejection is deterministic regardless of drain timing.
  qos.set_limits(t.id(), {/*max_queue_depth=*/0, -1});
  IngestService svc(rt, {.shards = 2, .max_batch = 16});
  std::atomic<int> ran{0};
  const auto task = [&ran](GpuRuntime&) { ran.fetch_add(1); };
  EXPECT_THROW(svc.submit_replay(t.id(), &sub), AdmissionError);
  EXPECT_THROW(svc.submit_task(t.id(), task), AdmissionError);
  // Fire-and-forget posts cannot surface the error: they are deferred
  // (counted) but still queued, so no work is silently lost.
  svc.post_replay(t.id(), &sub);
  svc.post_task(t.id(), task);
  svc.flush(t.id()).wait();  // flushes are never admission-checked
  rt.synchronize_device();
  EXPECT_EQ(ran.load(), 1);                           // only the post ran
  EXPECT_EQ(t.ops_completed(),
            base + static_cast<long>(sub.num_ops()));  // only the post
  const IngestStats st = svc.stats();
  EXPECT_EQ(st.rejected, 2);
  EXPECT_EQ(st.deferred, 2);
  EXPECT_EQ(st.errors, 0);
  // The per-shard view sums to the roster totals.
  long rejected = 0;
  long deferred = 0;
  for (int i = 0; i < 2; ++i) {
    rejected += svc.shard_stats(i).rejected;
    deferred += svc.shard_stats(i).deferred;
  }
  EXPECT_EQ(rejected, st.rejected);
  EXPECT_EQ(deferred, st.deferred);
  // The manager counts every tripped check (the deferred posts tripped
  // it too); the ingest counters are what split rejected from deferred.
  EXPECT_EQ(qos.stats(t.id()).admission_rejections, 4);
}

// The depth an ingest producer entry adds is the tenant's own queued
// items: a neighbour's backlog on a shared shard neither rejects nor
// defers a tenant that has nothing queued.
TEST(QosAdmission, NeighbourBacklogOnSharedShardDoesNotCount) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& a = mgr.create_tenant({"a"});
  Tenant& b = mgr.create_tenant({"b"});
  QosManager qos(mgr);
  qos.set_limits(a.id(), {/*max_queue_depth=*/2, -1});
  IngestService svc(rt, {.shards = 1, .max_batch = 16});
  std::atomic<int> ran{0};
  const auto task = [&ran](GpuRuntime&) { ran.fetch_add(1); };
  std::future<void> admitted;
  {
    // Holding the api gate keeps the ingest thread from draining, so
    // every item pushed here is still queued at the next push.
    const auto gate = rt.api_guard();
    for (int i = 0; i < 4; ++i) svc.post_task(b.id(), task);
    admitted = svc.submit_task(a.id(), task);
    svc.post_task(a.id(), task);
    // Two of a's own items queued: a third is over a's bound.
    EXPECT_THROW(svc.submit_task(a.id(), task), AdmissionError);
  }
  admitted.get();
  svc.flush_all_and_wait();
  EXPECT_EQ(ran.load(), 6);
  const IngestStats st = svc.stats();
  EXPECT_EQ(st.rejected, 1);
  EXPECT_EQ(st.deferred, 0);
  EXPECT_EQ(st.errors, 0);
  // Drained, a has nothing queued again.
  svc.submit_task(a.id(), task).get();
  EXPECT_EQ(ran.load(), 7);
}

// GpuRuntime::replay runs the same admission check as launch, so a
// tenant at its depth bound cannot get around it by replaying recorded
// work directly.
TEST(QosAdmission, DirectReplayIsBounded) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t = mgr.create_tenant({"t"});
  const StreamId s = t.create_stream();
  Submission sub;
  rt.begin_record(sub);
  t.launch(s, full_kernel("recorded"));
  rt.end_record();
  t.synchronize();

  QosManager qos(mgr);
  qos.set_limits(t.id(), {/*max_queue_depth=*/2, -1});
  const LaunchSpec k = full_kernel("k");
  t.launch(s, k);
  t.launch(s, k);
  const TimeUs host = rt.now();
  const long ops = rt.batched_ops();
  try {
    t.gpu().replay(sub);
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.tenant, t.id());
    EXPECT_EQ(e.queue_depth, 2);
    EXPECT_EQ(std::string(e.call), "replay");
  }
  // Thrown before any state changes: no host time, no ops.
  EXPECT_EQ(rt.now(), host);
  EXPECT_EQ(rt.batched_ops(), ops);
  EXPECT_EQ(t.qos_stats().admission_rejections, 1);
  // Once the backlog drains, the same replay is admitted.
  rt.synchronize_device();
  qos.tick();
  EXPECT_EQ(t.gpu().replay(sub), sub.num_ops());
  rt.synchronize_device();
}

// ---------------------------------------------------------------------
// Service-class configuration errors.
// ---------------------------------------------------------------------

TEST(QosConfig, LatencyClassNeedsPositiveTarget) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  QosManager qos(mgr);
  TenantSpec bad;
  bad.name = "bad";
  bad.service_class = ServiceClass::LatencyCritical;  // target left at 0
  EXPECT_THROW(mgr.create_tenant(bad), QosError);
  // The rejected spec must not have leaked a half-registered tenant.
  EXPECT_EQ(qos.num_tenants(), 0u);
  bad.target_p99_us = 50.0;
  EXPECT_NO_THROW(mgr.create_tenant(bad));
  EXPECT_EQ(qos.num_tenants(), 1u);
}

TEST(QosConfig, ValidationRunsBeforeAnyStateChanges) {
  // The class config is validated up front in create_tenant, attached
  // manager or not — an invalid latency tenant can never exist, so a
  // later attach never has to fail on stale state.
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  TenantSpec bad;
  bad.name = "bad";
  bad.service_class = ServiceClass::LatencyCritical;  // target left at 0
  EXPECT_THROW(mgr.create_tenant(bad), QosError);
  // Nothing half-created: the next id is still 0 and attach succeeds.
  bad.target_p99_us = 25.0;
  Tenant& ok = mgr.create_tenant(bad);
  EXPECT_EQ(ok.id(), 0);
  QosManager qos(mgr);
  EXPECT_EQ(qos.num_tenants(), 1u);
}

TEST(QosConfig, StatsRequireAnAttachedManager) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t = mgr.create_tenant({"t"});
  EXPECT_THROW((void)t.qos_stats(), ApiError);
}

// ---------------------------------------------------------------------
// Feedback controller: re-weighting drives the latency tenant's p99
// under its target, asserted on the exact scenario the multi-app harness
// reports (bench/multi_app_scenario.hpp), at its full 400-round scale.
// ---------------------------------------------------------------------

TEST(QosController, ReweightingConvergesToTheTarget) {
  const auto q = psched::bench::run_qos_mixed(/*smoke=*/false);
  ASSERT_GT(q.latency_ops, 0);
  // The controller boosted the latency tenant well past its declared
  // weight 1.0 and brought its p99 under the target; plain weighted
  // sharing leaves it at the backlog-bound 1/4-share latency.
  EXPECT_GT(q.final_weight, 1.0);
  EXPECT_LE(q.qos_p99_us, q.target_p99_us);
  EXPECT_GT(q.base_p99_us, q.target_p99_us);
  // The acceptance bounds: at most half the plain-sharing p99, at no
  // more than a fifth of the batch throughput.
  EXPECT_LE(q.p99_ratio, 0.5);
  EXPECT_GE(q.batch_ratio, 0.8);
  EXPECT_EQ(q.deadline_misses, 0);
}

}  // namespace
}  // namespace psched::sim

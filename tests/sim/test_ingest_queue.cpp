// Concurrent ingestion front-end (sim/ingest_queue.hpp): MPSC submission
// queues, per-shard ingest threads, drain determinism, monotone host-time
// clamping, completion tokens, structured transaction-error recovery, and
// the tenant-handle routing surface. The multi-producer tests double as
// the ThreadSanitizer workload (`ctest -L ingest` under the tsan preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sim/ingest_queue.hpp"
#include "sim/machine.hpp"
#include "sim/runtime.hpp"
#include "sim/tenant.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

LaunchSpec simple_kernel(const std::string& name, std::vector<ArrayUse> arrays,
                         double flops_sp = 1e6) {
  LaunchSpec s;
  s.name = name;
  s.config = LaunchConfig::linear(16, 256);
  s.profile.flops_sp = flops_sp;
  s.arrays = std::move(arrays);
  return s;
}

/// A raw engine-level kernel op (the queue's lowest-level item kind): the
/// demand derivation mirrors GpuRuntime::launch, minus arrays/staging.
Op raw_kernel(GpuRuntime& rt, StreamId stream, const std::string& name,
              double flops_sp = 1e6) {
  const auto cfg = LaunchConfig::linear(16, 256);
  KernelProfile prof;
  prof.flops_sp = flops_sp;
  const KernelDemand d =
      rt.engine().model(rt.stream_device(stream)).kernel_demand(cfg, prof);
  Op op;
  op.kind = OpKind::Kernel;
  op.stream = stream;
  op.name = name;
  op.cfg = cfg;
  op.prof = prof;
  op.sm_demand = d.sm_demand;
  op.occupancy = d.occupancy;
  op.bw_need = d.bw_need;
  op.work = d.solo_us;
  return op;
}

/// Kernel entries grouped per stream in timeline order.
std::map<StreamId, std::vector<TimelineEntry>> kernel_projection(
    GpuRuntime& rt) {
  std::map<StreamId, std::vector<TimelineEntry>> out;
  for (const auto& e : rt.timeline().entries()) {
    if (e.kind == OpKind::Kernel) out[e.stream].push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------
// Satellite: structured transaction-misuse errors (recoverable).
// ---------------------------------------------------------------------

TEST(TransactionErrorTest, BeginWhileOpenIsStructuredAndRecoverable) {
  GpuRuntime rt(DeviceSpec::test_device());
  const StreamId s = rt.create_stream();
  Engine& eng = rt.engine();

  eng.begin_transaction(rt.now());
  eng.enqueue(raw_kernel(rt, s, "k0"), rt.now());
  try {
    eng.begin_transaction(rt.now());
    FAIL() << "begin_transaction with a transaction open must throw";
  } catch (const TransactionError& e) {
    EXPECT_EQ(e.kind, TransactionError::Kind::AlreadyOpen);
    EXPECT_STREQ(e.call, "begin_transaction");
    EXPECT_EQ(e.pending_ops, 1u);
    EXPECT_NE(std::string(e.what()).find("already open"), std::string::npos);
  }
  // The error left the open transaction intact: committing still works.
  EXPECT_TRUE(eng.in_transaction());
  EXPECT_EQ(eng.commit_transaction(), 1u);
  rt.synchronize_device();
}

TEST(TransactionErrorTest, CommitWithoutOpenIsStructured) {
  GpuRuntime rt(DeviceSpec::test_device());
  Engine& eng = rt.engine();
  try {
    eng.commit_transaction();
    FAIL() << "commit_transaction with no transaction must throw";
  } catch (const TransactionError& e) {
    EXPECT_EQ(e.kind, TransactionError::Kind::NotOpen);
    EXPECT_STREQ(e.call, "commit_transaction");
  }
  // TransactionError is an ApiError: generic handlers keep working.
  EXPECT_THROW(eng.commit_transaction(), ApiError);
  EXPECT_FALSE(eng.in_transaction());
}

// ---------------------------------------------------------------------
// Tentpole: determinism of the queued path.
// ---------------------------------------------------------------------

// Headline guarantee, runtime level: a single producer driving the full
// async API through the queue (task items) is bit-identical to the same
// call sequence submitted directly as an explicit batch.
TEST(IngestQueueTest, SingleProducerTaskPathBitIdenticalToDirectBatch) {
  const auto setup = [](GpuRuntime& rt, StreamId& s1, StreamId& s2,
                        ArrayId& a, ArrayId& b, EventId& ev) {
    s1 = rt.create_stream();
    s2 = rt.create_stream();
    a = rt.alloc(20000, "a");
    b = rt.alloc(30000, "b");
    rt.host_write(a);
    rt.host_write(b);
    ev = rt.create_event();
  };

  GpuRuntime direct(DeviceSpec::test_device());
  {
    StreamId s1, s2;
    ArrayId a, b;
    EventId ev;
    setup(direct, s1, s2, a, b, ev);
    direct.begin_submit();
    direct.mem_prefetch_async(a, s1);
    direct.launch(s1, simple_kernel("k1", {{a, false}}));
    direct.record_event(ev, s1);
    direct.stream_wait_event(s2, ev);
    direct.launch(s2, simple_kernel("k2", {{a, false}, {b, true}}));
    direct.commit();
    direct.synchronize_device();
  }

  GpuRuntime queued(DeviceSpec::test_device());
  {
    StreamId s1, s2;
    ArrayId a, b;
    EventId ev;
    setup(queued, s1, s2, a, b, ev);
    IngestService svc(queued);
    svc.post_task(0, [=](GpuRuntime& g) { g.mem_prefetch_async(a, s1); });
    svc.post_task(0, [=](GpuRuntime& g) {
      g.launch(s1, simple_kernel("k1", {{a, false}}));
    });
    svc.post_task(0, [=](GpuRuntime& g) { g.record_event(ev, s1); });
    svc.post_task(0, [=](GpuRuntime& g) { g.stream_wait_event(s2, ev); });
    svc.post_task(0, [=](GpuRuntime& g) {
      g.launch(s2, simple_kernel("k2", {{a, false}, {b, true}}));
    });
    svc.flush_and_wait(0);
    queued.synchronize_device();
  }

  test::expect_same_timeline(queued.timeline().entries(),
                             direct.timeline().entries());
  test::expect_time_near(queued.timeline().makespan(),
                         direct.timeline().makespan(), "makespan");
  test::expect_time_near(queued.now(), direct.now(), "now");
}

// Satellite: out-of-order producer host times are clamped against the
// shard's monotone floor, deterministically — any submission order yields
// a schedule bit-identical to a direct drive applying the same clamp in
// the same order.
TEST(IngestQueueTest, MonotoneClampDeterministicAcrossShuffledOrders) {
  std::vector<TimeUs> times = {5, 40, 10, 80, 20, 80, 3, 55, 7, 120};
  for (const unsigned seed : {1u, 2u, 3u}) {
    std::vector<std::size_t> order(times.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);

    GpuRuntime queued(DeviceSpec::test_device());
    const StreamId qs = queued.create_stream();
    long clamped = 0;
    {
      IngestService svc(queued);
      for (const std::size_t i : order) {
        svc.post(0, raw_kernel(queued, qs, "k" + std::to_string(i)),
                 times[i]);
      }
      svc.flush_and_wait(0);
      clamped = svc.stats().clamped;
    }
    queued.synchronize_device();

    GpuRuntime direct(DeviceSpec::test_device());
    const StreamId ds = direct.create_stream();
    direct.begin_submit();
    TimeUs floor = 0;
    long expect_clamped = 0;
    Engine& eng = direct.engine();
    for (const std::size_t i : order) {
      TimeUs t = times[i];
      if (t < floor) {
        t = floor;
        ++expect_clamped;
      }
      floor = t;
      if (!eng.in_transaction()) eng.begin_transaction(t);
      eng.enqueue(raw_kernel(direct, ds, "k" + std::to_string(i)), t);
    }
    direct.commit();
    direct.synchronize_device();

    EXPECT_EQ(clamped, expect_clamped) << "seed " << seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    test::expect_same_timeline(queued.timeline().entries(),
                               direct.timeline().entries());
  }
}

// Satellite + TSan meat: real concurrent producers with out-of-order host
// stamps. Every producer leads with a sentinel stamp that dominates the
// rest, so the shard floor clamps all work to one instant regardless of
// interleaving — the per-stream schedule must then be identical to a
// single-threaded canonical submission order.
TEST(IngestQueueTest, MultiProducerClampIsInterleavingInvariant) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;
  constexpr TimeUs kSentinel = 1000;

  const auto drive = [&](bool threaded) {
    auto rt = std::make_unique<GpuRuntime>(DeviceSpec::test_device());
    std::vector<StreamId> streams;
    for (int p = 0; p < kProducers; ++p) {
      streams.push_back(rt->create_stream());
    }
    {
      IngestService svc(*rt);
      const auto produce = [&](int p) {
        for (int j = 0; j < kPerProducer; ++j) {
          // First item at the sentinel, the rest below it: every stamp
          // this producer emits after the first is non-monotone and must
          // clamp to exactly kSentinel on the shared shard.
          const TimeUs t = j == 0 ? kSentinel : kSentinel - 10 * j;
          svc.post(0,
                   raw_kernel(*rt, streams[static_cast<std::size_t>(p)],
                              "k" + std::to_string(j) + "@p" +
                                  std::to_string(p),
                              1e6 * (1 + j)),
                   t);
        }
      };
      if (threaded) {
        std::vector<std::thread> producers;
        producers.reserve(kProducers);
        for (int p = 0; p < kProducers; ++p) {
          producers.emplace_back(produce, p);
        }
        for (auto& th : producers) th.join();
      } else {
        for (int p = 0; p < kProducers; ++p) produce(p);
      }
      svc.flush_and_wait(0);
    }
    rt->synchronize_device();
    auto projection = kernel_projection(*rt);
    return std::make_pair(std::move(rt), std::move(projection));
  };

  const auto [ref_rt, ref] = drive(false);
  const auto [con_rt, con] = drive(true);

  ASSERT_EQ(ref.size(), static_cast<std::size_t>(kProducers));
  ASSERT_EQ(con.size(), ref.size());
  for (const auto& [stream, ref_entries] : ref) {
    const auto it = con.find(stream);
    ASSERT_NE(it, con.end()) << "stream " << stream;
    const auto& con_entries = it->second;
    SCOPED_TRACE("stream " + std::to_string(stream));
    test::expect_same_timeline(con_entries, ref_entries);
    // All starts sit at/after the sentinel: the clamp really fired.
    for (const TimelineEntry& e : con_entries) EXPECT_GE(e.start, kSentinel);
  }
}

// ---------------------------------------------------------------------
// Tokens, flush points, error recovery.
// ---------------------------------------------------------------------

TEST(IngestQueueTest, TokensResolveWithOpIdsAfterCommit) {
  GpuRuntime rt(DeviceSpec::test_device());
  const StreamId s = rt.create_stream();
  IngestService svc(rt);
  std::vector<std::future<OpId>> tokens;
  for (int i = 0; i < 8; ++i) {
    tokens.push_back(svc.submit(
        0, raw_kernel(rt, s, "k" + std::to_string(i)), rt.now()));
  }
  svc.flush_and_wait(0);
  std::vector<OpId> ids;
  for (auto& tok : tokens) ids.push_back(tok.get());
  rt.synchronize_device();
  for (const OpId id : ids) {
    EXPECT_NE(id, kInvalidOp);
    EXPECT_TRUE(rt.engine().op_done(id));
  }
  const IngestStats st = svc.stats();
  EXPECT_GE(st.items, 8);
  EXPECT_GE(st.ops, 8);
  EXPECT_GE(st.batches, 1);
  EXPECT_EQ(st.errors, 0);
}

TEST(IngestQueueTest, BlockingCallsFlushTheQueueImplicitly) {
  GpuRuntime rt(DeviceSpec::test_device());
  const StreamId s = rt.create_stream();
  const ArrayId a = rt.alloc(1000, "a");
  IngestService svc(rt);
  std::atomic<bool> ran{false};
  svc.post_task(0, [&, s, a](GpuRuntime& g) {
    LaunchSpec spec = simple_kernel("k", {{a, true}});
    spec.functional = [&ran] { ran.store(true); };
    g.launch(s, spec);
  });
  // No explicit flush: synchronize_device is an observation point and must
  // drain the ambient tenant's shard before it reports the device idle.
  rt.synchronize_device();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(rt.stream_idle(s));
}

TEST(IngestQueueTest, PerItemErrorsFailTokensAndDrainContinues) {
  GpuRuntime rt(DeviceSpec::test_device());
  const StreamId s = rt.create_stream();
  IngestService svc(rt);

  auto bad = svc.submit_task(
      0, [](GpuRuntime&) { throw ApiError("injected failure"); });
  auto good = svc.submit(0, raw_kernel(rt, s, "after-error"), rt.now());
  svc.flush_and_wait(0);

  EXPECT_THROW(bad.get(), ApiError);
  const OpId id = good.get();  // the failed item did not poison the batch
  EXPECT_NE(id, kInvalidOp);
  rt.synchronize_device();
  EXPECT_TRUE(rt.engine().op_done(id));
  EXPECT_GE(svc.stats().errors, 1);
}

TEST(IngestQueueTest, DestructorFlushesOutstandingWork) {
  GpuRuntime rt(DeviceSpec::test_device());
  const StreamId s = rt.create_stream();
  OpId id = kInvalidOp;
  {
    IngestService svc(rt);
    auto tok = svc.submit(0, raw_kernel(rt, s, "k"), rt.now());
    // No flush: the destructor drains, joins, and detaches.
    id = tok.get();
  }
  EXPECT_EQ(rt.ingest(), nullptr);
  rt.synchronize_device();
  EXPECT_TRUE(rt.engine().op_done(id));
}

// ---------------------------------------------------------------------
// Shard topology and the tenant-handle surface.
// ---------------------------------------------------------------------

TEST(IngestQueueTest, ShardAssignmentExplicitAndModuloDefault) {
  GpuRuntime rt(DeviceSpec::test_device());
  IngestService svc(rt, {.shards = 3, .max_batch = 64});
  EXPECT_EQ(svc.num_shards(), 3);
  EXPECT_EQ(svc.shard_of(0), 0);
  EXPECT_EQ(svc.shard_of(4), 1);  // modulo default
  svc.assign_shard(4, 2);
  EXPECT_EQ(svc.shard_of(4), 2);
  EXPECT_THROW(svc.assign_shard(0, 3), ApiError);
  EXPECT_THROW(svc.assign_shard(-1, 0), ApiError);
}

TEST(IngestQueueTest, TenantHandlesRouteThroughTheirShard) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t0 = mgr.create_tenant({.name = "a", .ingest_shard = 1});
  Tenant& t1 = mgr.create_tenant({.name = "b"});
  EXPECT_THROW(t0.run_async([](GpuRuntime&) {}), ApiError);  // not attached

  IngestService svc(rt, {.shards = 2, .max_batch = 64});
  mgr.attach_ingest(svc);
  EXPECT_EQ(mgr.ingest(), &svc);
  EXPECT_EQ(t0.ingest_shard(), 1);  // spec pin applied retroactively
  EXPECT_EQ(t1.ingest_shard(), 1);  // modulo default: 1 % 2
  Tenant& t2 = mgr.create_tenant({.name = "c", .ingest_shard = 0});
  EXPECT_EQ(t2.ingest_shard(), 0);  // pin applied at creation

  const StreamId s0 = t0.create_stream();
  const ArrayId a = t0.alloc(1000, "a0");
  auto done = t0.run_async([s0, a](GpuRuntime& g) {
    g.launch(s0, simple_kernel("t0k", {{a, true}}));
  });
  t0.flush_ingest_and_wait();
  done.get();
  t0.synchronize();
  EXPECT_EQ(t0.ops_completed(), 1);
  EXPECT_EQ(t1.ops_completed(), 0);
}

TEST(IngestQueueTest, RecordedSubmissionReplaysThroughTheQueue) {
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  Tenant& t0 = mgr.create_tenant({.name = "a"});
  const StreamId s = t0.create_stream();
  const ArrayId a = t0.alloc(4000, "a0");

  Submission sub;
  {
    GpuRuntime& g = t0.gpu();
    g.begin_record(sub);
    g.launch(s, simple_kernel("rec", {{a, true}}));
    g.end_record();
  }
  t0.synchronize();
  const long base = t0.ops_completed();

  IngestService svc(rt, {.shards = 2, .max_batch = 64});
  mgr.attach_ingest(svc);
  auto tok = t0.replay_async(sub);
  t0.post_replay(sub);
  tok.get();  // resolved once its drain batch committed
  t0.flush_ingest_and_wait();
  t0.synchronize();
  EXPECT_EQ(t0.ops_completed(), base + 2);
}

// Eight concurrent producers flooding two shards: the contended-path
// smoke (the throughput claim itself lives in the benchmark). Everything
// must drain, token order within a producer must hold, and the run must
// be TSan-clean under the tsan preset.
TEST(IngestQueueTest, ContendedMultiProducerFloodDrainsCompletely) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 64;
  GpuRuntime rt(DeviceSpec::test_device());
  TenantManager mgr(rt);
  std::vector<StreamId> streams;
  for (int p = 0; p < kProducers; ++p) {
    Tenant& t = mgr.create_tenant({.name = "t" + std::to_string(p)});
    streams.push_back(t.create_stream());
  }
  IngestService svc(rt, {.shards = 2, .max_batch = 32});
  mgr.attach_ingest(svc);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  std::atomic<long> resolved{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto tenant = static_cast<TenantId>(p);
      const StreamId s = streams[static_cast<std::size_t>(p)];
      std::future<OpId> last;
      for (int j = 0; j < kPerProducer; ++j) {
        if (j % 8 == 7) {
          last = svc.submit(
              tenant, raw_kernel(rt, s, "f" + std::to_string(j)),
              static_cast<TimeUs>(j));
        } else {
          svc.post(tenant, raw_kernel(rt, s, "f" + std::to_string(j)),
                   static_cast<TimeUs>(j));
        }
      }
      if (last.valid()) {
        last.get();
        resolved.fetch_add(1);
      }
    });
  }
  for (auto& th : producers) th.join();
  svc.flush_all_and_wait();
  rt.synchronize_device();

  EXPECT_EQ(resolved.load(), kProducers);
  const IngestStats st = svc.stats();
  EXPECT_EQ(st.ops, kProducers * kPerProducer);
  EXPECT_EQ(st.errors, 0);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(mgr.tenant(static_cast<TenantId>(p)).ops_completed(),
              kPerProducer)
        << "tenant " << p;
  }
}

}  // namespace
}  // namespace psched::sim

// Concurrent ingestion front-end (sim/ingest_queue.hpp): MPSC submission
// queues, per-shard ingest threads, drain determinism, completion tokens,
// structured transaction-error recovery, and the tenant-handle routing
// surface. The multi-producer tests double as
// the ThreadSanitizer workload (`ctest -L ingest` under the tsan preset).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
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

/// A closure launching one array-free kernel on `stream`; it stores the
/// launched op's id in `*id` when given one.
std::function<void(GpuRuntime&)> launch_task(StreamId stream, std::string name,
                                             OpId* id = nullptr) {
  return [stream, name = std::move(name), id](GpuRuntime& g) {
    const OpId op = g.launch(stream, simple_kernel(name, {}));
    if (id != nullptr) *id = op;
  };
}

// ---------------------------------------------------------------------
// Satellite: structured transaction-misuse errors (recoverable).
// ---------------------------------------------------------------------

TEST(TransactionErrorTest, BeginWhileOpenIsStructuredAndRecoverable) {
  GpuRuntime rt(DeviceSpec::test_device());
  const StreamId s = rt.create_stream();
  Engine& eng = rt.engine();

  eng.begin_transaction(rt.now());
  eng.enqueue(test::raw_kernel(s, 5.0, 1, 1.0, 0, "k0"), rt.now());
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

// TSan meat: real concurrent producers. Each closure logs its drain
// position; the schedule is a pure function of that order, so re-issuing
// the same closures directly, in logged order and as one explicit batch,
// must reproduce the queued run's timeline however the drain grouped
// them.
TEST(IngestQueueTest, MultiProducerScheduleIsAFunctionOfDrainOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 6;

  // Closure j of producer p: a kernel on the producer's stream that
  // writes its own array and reads a shared one, logged at drain time.
  const auto closure = [](const std::vector<StreamId>& streams,
                          const std::vector<ArrayId>& arrays, ArrayId shared,
                          std::vector<int>* log, int p, int j) {
    return [=](GpuRuntime& g) {
      if (log != nullptr) log->push_back(p * kPerProducer + j);
      const auto pi = static_cast<std::size_t>(p);
      g.launch(streams[pi],
               simple_kernel("k" + std::to_string(j) + "@p" +
                                 std::to_string(p),
                             {{arrays[pi], true}, {shared, false}},
                             1e6 * (1 + j)));
    };
  };
  const auto setup = [](GpuRuntime& rt, std::vector<StreamId>& streams,
                        std::vector<ArrayId>& arrays, ArrayId& shared) {
    for (int p = 0; p < kProducers; ++p) {
      streams.push_back(rt.create_stream());
      arrays.push_back(rt.alloc(4000, "a" + std::to_string(p)));
    }
    shared = rt.alloc(8000, "shared");
    rt.host_write(shared);
  };

  GpuRuntime queued(DeviceSpec::test_device());
  std::vector<StreamId> qs;
  std::vector<ArrayId> qa;
  ArrayId qshared = kInvalidArray;
  setup(queued, qs, qa, qshared);
  std::vector<int> order;  // appended under the api gate by the drain
  {
    IngestService svc(queued);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int j = 0; j < kPerProducer; ++j) {
          svc.post_task(0, closure(qs, qa, qshared, &order, p, j));
        }
      });
    }
    for (auto& th : producers) th.join();
    svc.flush_and_wait(0);
  }
  queued.synchronize_device();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kProducers * kPerProducer));

  GpuRuntime direct(DeviceSpec::test_device());
  std::vector<StreamId> ds;
  std::vector<ArrayId> da;
  ArrayId dshared = kInvalidArray;
  setup(direct, ds, da, dshared);
  direct.begin_submit();
  for (const int id : order) {
    closure(ds, da, dshared, nullptr, id / kPerProducer,
            id % kPerProducer)(direct);
  }
  direct.commit();
  direct.synchronize_device();

  test::expect_same_timeline(queued.timeline().entries(),
                             direct.timeline().entries());
  test::expect_time_near(queued.now(), direct.now(), "now");
}

// ---------------------------------------------------------------------
// Tokens, flush points, error recovery.
// ---------------------------------------------------------------------

TEST(IngestQueueTest, TokensResolveAfterCommit) {
  GpuRuntime rt(DeviceSpec::test_device());
  const StreamId s = rt.create_stream();
  IngestService svc(rt);
  std::vector<OpId> ids(8, kInvalidOp);
  std::vector<std::future<void>> tokens;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    tokens.push_back(svc.submit_task(
        0, launch_task(s, "k" + std::to_string(i), &ids[i])));
  }
  // A resolved token means the closure's work is committed engine state.
  for (auto& tok : tokens) tok.get();
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
  EXPECT_EQ(st.clamped, 0);
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
  OpId id = kInvalidOp;
  auto good = svc.submit_task(0, launch_task(s, "after-error", &id));
  svc.flush_and_wait(0);

  EXPECT_THROW(bad.get(), ApiError);
  good.get();  // the failed item did not poison the batch
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
    svc.post_task(0, launch_task(s, "k", &id));
    // No flush: the destructor drains, joins, and detaches.
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
      std::future<void> last;
      for (int j = 0; j < kPerProducer; ++j) {
        if (j % 8 == 7) {
          last = svc.submit_task(tenant, launch_task(s, "f" + std::to_string(j)));
        } else {
          svc.post_task(tenant, launch_task(s, "f" + std::to_string(j)));
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

// GpuRuntime transactional batch API: begin_submit/commit semantics,
// implicit flushes at host observation points, batched TaskGraph launches,
// recorded submissions and their replay, and per-device residency
// accounting surfaced by the runtime.
#include <gtest/gtest.h>

#include <vector>

#include "sim/graph.hpp"
#include "sim/machine.hpp"
#include "sim/runtime.hpp"
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

class BatchRuntimeTest : public ::testing::Test {
 protected:
  GpuRuntime rt_{DeviceSpec::test_device()};
};

TEST_F(BatchRuntimeTest, OpsFreezeUntilCommitThenRun) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.begin_submit();
  EXPECT_TRUE(rt_.submitting());
  const OpId k = rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  EXPECT_NE(k, kInvalidOp);  // ids exist immediately (eager ingest)
  EXPECT_FALSE(rt_.engine().op_done(k));
  EXPECT_EQ(rt_.engine().op(k).state, OpState::Queued);  // frozen
  const std::size_t n = rt_.commit();
  EXPECT_GE(n, 1u);
  EXPECT_FALSE(rt_.submitting());
  rt_.synchronize_device();
  EXPECT_TRUE(rt_.engine().op_done(k));
  EXPECT_EQ(rt_.batch_commits(), 1);
  EXPECT_GE(rt_.batched_ops(), 1);
}

TEST_F(BatchRuntimeTest, BatchedCallsAreCheaperOnTheHostClock) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.begin_submit();
  const TimeUs t0 = rt_.now();
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  EXPECT_DOUBLE_EQ(rt_.now() - t0, GpuRuntime::kBatchedCallCpuOverheadUs);
  rt_.commit();
  rt_.synchronize_device();
}

TEST_F(BatchRuntimeTest, BlockingCallsFlushTheOpenBatch) {
  const ArrayId a = rt_.alloc(1000, "a");
  bool ran = false;
  LaunchSpec s = simple_kernel("k", {{a, true}});
  s.functional = [&ran] { ran = true; };
  rt_.begin_submit();
  rt_.launch(kDefaultStream, s);
  // synchronize_device flushes the open transaction and drains it; the
  // explicit batch bracket stays open for subsequent calls.
  rt_.synchronize_device();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(rt_.submitting());
  const ArrayId b = rt_.alloc(1000, "b");
  rt_.launch(kDefaultStream, simple_kernel("k2", {{b, true}}));
  rt_.commit();
  rt_.synchronize_device();
  EXPECT_EQ(rt_.batch_commits(), 2);  // implicit flush + explicit commit
}

TEST_F(BatchRuntimeTest, BatchedRunMatchesPerCallStructureAndBytes) {
  // The same two-stream program driven per-call and batched: identical op
  // sequence (kinds, names, streams), identical byte counters; the batched
  // makespan is never worse (issue overhead compresses).
  auto drive = [](GpuRuntime& rt, bool batched) {
    const StreamId s1 = rt.create_stream();
    const StreamId s2 = rt.create_stream();
    const ArrayId a = rt.alloc(20000, "a");
    const ArrayId b = rt.alloc(30000, "b");
    rt.host_write(a);
    rt.host_write(b);
    const EventId ev = rt.create_event();
    if (batched) rt.begin_submit();
    rt.mem_prefetch_async(a, s1);
    rt.launch(s1, simple_kernel("k1", {{a, false}}));
    rt.record_event(ev, s1);
    rt.stream_wait_event(s2, ev);
    rt.launch(s2, simple_kernel("k2", {{a, false}, {b, true}}));
    if (batched) rt.commit();
    rt.synchronize_device();
  };
  GpuRuntime per_call(DeviceSpec::test_device());
  drive(per_call, false);
  GpuRuntime batched(DeviceSpec::test_device());
  drive(batched, true);

  EXPECT_DOUBLE_EQ(batched.bytes_h2d(), per_call.bytes_h2d());
  EXPECT_DOUBLE_EQ(batched.bytes_faulted(), per_call.bytes_faulted());
  EXPECT_DOUBLE_EQ(batched.bytes_d2h(), per_call.bytes_d2h());

  const auto& pc = per_call.timeline().entries();
  const auto& ba = batched.timeline().entries();
  ASSERT_EQ(pc.size(), ba.size());
  for (std::size_t i = 0; i < pc.size(); ++i) {
    EXPECT_EQ(ba[i].kind, pc[i].kind) << i;
    EXPECT_EQ(ba[i].name, pc[i].name) << i;
    EXPECT_EQ(ba[i].stream, pc[i].stream) << i;
  }
  EXPECT_LE(batched.timeline().makespan(),
            per_call.timeline().makespan() + 1e-9);
}

TEST_F(BatchRuntimeTest, CaptureAndBatchAreExclusive) {
  TaskGraph g;
  rt_.begin_submit();
  EXPECT_THROW(rt_.begin_capture(g), ApiError);
  rt_.commit();
  rt_.begin_capture(g);
  EXPECT_THROW(rt_.begin_submit(), ApiError);
  rt_.end_capture();
}

TEST_F(BatchRuntimeTest, BatchBracketMisuseThrows) {
  EXPECT_THROW((void)rt_.commit(), ApiError);
  rt_.begin_submit();
  EXPECT_THROW(rt_.begin_submit(), ApiError);
  rt_.commit();
}

// --- batched TaskGraph launch ---

TEST_F(BatchRuntimeTest, GraphLaunchKeepsDependencyOrder) {
  const ArrayId a = rt_.alloc(10000, "a");
  const ArrayId b = rt_.alloc(10000, "b");
  rt_.host_write(a);
  rt_.host_write(b);
  TaskGraph g;
  const auto root = g.add_kernel(simple_kernel("root", {{a, true}}));
  const auto left = g.add_kernel(simple_kernel("left", {{a, false}}));
  const auto right = g.add_kernel(simple_kernel("right", {{b, true}}));
  const auto join =
      g.add_kernel(simple_kernel("join", {{a, false}, {b, false}}));
  g.add_dependency(root, left);
  g.add_dependency(root, right);
  g.add_dependency(left, join);
  g.add_dependency(right, join);
  auto exec = g.instantiate(rt_);
  exec.launch(rt_);
  EXPECT_FALSE(rt_.submitting());  // the launch closed its own batch
  rt_.synchronize_device();
  // Dependencies still hold when the whole graph is one transaction.
  TimeUs root_end = 0, join_start = 0;
  for (const auto& e : rt_.timeline().entries()) {
    if (e.name == "root") root_end = e.end;
    if (e.name == "join") join_start = e.start;
  }
  EXPECT_GE(join_start, root_end);
  EXPECT_EQ(rt_.batch_commits(), 1);
}

// --- recorded submissions: begin_record / end_record / replay ---

int count_kind(GpuRuntime& rt, OpKind kind) {
  int n = 0;
  for (const auto& e : rt.timeline().entries()) n += e.kind == kind;
  return n;
}

TEST_F(BatchRuntimeTest, RecordingDoesNotPerturbTheBatch) {
  // The recording tees the batched issue path: the recorded run's timeline
  // is the plain batch's, time for time.
  auto run = [](bool record) {
    GpuRuntime rt{DeviceSpec::test_device()};
    const ArrayId a = rt.alloc(1000, "a");
    const ArrayId b = rt.alloc(1000, "b");
    rt.host_write(a);
    const StreamId s1 = rt.create_stream();
    const EventId ev = rt.create_event();
    Submission rec;
    if (record) {
      rt.begin_record(rec);
    } else {
      rt.begin_submit();
    }
    rt.launch(kDefaultStream, simple_kernel("root", {{a, false}, {b, true}}));
    rt.record_event(ev, kDefaultStream);
    rt.stream_wait_event(s1, ev);
    rt.launch(s1, simple_kernel("leaf", {{b, false}}));
    if (record) {
      rt.end_record();
    } else {
      rt.commit();
    }
    rt.synchronize_device();
    return rt.timeline().entries().to_vector();
  };
  test::expect_same_timeline(run(true), run(false));
}

TEST_F(BatchRuntimeTest, ReplayReissuesRecordedMigrationsStatically) {
  // CUDA Graphs' static replay: the migration recorded at first issue is
  // re-issued on every replay even though the data is still resident —
  // the recorded op list is frozen, not re-derived, and not consumed.
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.host_write(a);
  Submission rec;
  rt_.begin_record(rec);
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, false}}));
  EXPECT_GT(rt_.end_record(), 0u);
  rt_.synchronize_device();
  const std::size_t items = rec.size();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(rt_.replay(rec), rec.num_ops());
    rt_.synchronize_device();
    EXPECT_EQ(rec.size(), items);
  }
  EXPECT_EQ(count_kind(rt_, OpKind::Fault), 3);
  EXPECT_EQ(count_kind(rt_, OpKind::Kernel), 3);
}

TEST_F(BatchRuntimeTest, ReplayedWriteReinvalidatesTheHostCopy) {
  // The write transition lives in the recorded bind: a host read after
  // every replay migrates the fresh result back, like per-call issue.
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.host_write(a);
  Submission rec;
  rt_.begin_record(rec);
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  rt_.end_record();
  rt_.synchronize_device();
  rt_.host_read(a);
  const double d2h_after_first = rt_.bytes_d2h();
  EXPECT_GT(d2h_after_first, 0);

  // Every replay, not just the first, re-runs the recorded bind in full:
  // the write is tracked while in flight and invalidates the host copy.
  double d2h_before = d2h_after_first;
  for (int replay = 1; replay <= 3; ++replay) {
    SCOPED_TRACE("replay " + std::to_string(replay));
    rt_.replay(rec);  // re-writes `a`
    EXPECT_TRUE(rt_.memory().info(a).has_pending());
    rt_.synchronize_device();
    for (const PageExtent& e : rt_.memory().info(a).extents) {
      EXPECT_FALSE(e.host_fresh);  // the replayed write left the host stale
    }
    rt_.host_read(a);  // must migrate the replayed result back
    EXPECT_DOUBLE_EQ(rt_.bytes_d2h() - d2h_before, 10000.0);
    d2h_before = rt_.bytes_d2h();
  }
}

TEST_F(BatchRuntimeTest, EvictionServicingIsNotRecorded) {
  // A recorded launch that evicts a bystander must not record the
  // page-out or its gate: replays admit nothing, so re-executing the
  // write-back would inflate every replay with phantom D2H traffic.
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 8000;
  GpuRuntime rt{spec};
  const ArrayId bystander = rt.alloc(8000, "bystander");
  const ArrayId w = rt.alloc(8000, "w");
  rt.host_write(bystander);
  rt.host_write(w);
  rt.launch(kDefaultStream, simple_kernel("kb", {{bystander, true}}));
  rt.synchronize_device();  // bystander: only copy on device

  Submission rec;
  rt.begin_record(rec);
  rt.launch(kDefaultStream, simple_kernel("kw", {{w, true}}));  // evicts
  rt.end_record();
  rt.synchronize_device();
  EXPECT_EQ(rt.evict_ops(), 1);
  rt.replay(rec);
  rt.synchronize_device();
  EXPECT_EQ(count_kind(rt, OpKind::CopyD2H), 1);  // the replay added none
}

TEST_F(BatchRuntimeTest, ReplayJoinsAnOpenBatchWithoutFlushing) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.host_write(a);
  Submission rec;
  rt_.begin_record(rec);
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  rt_.end_record();
  rt_.synchronize_device();

  rt_.begin_submit();
  rt_.launch(kDefaultStream, simple_kernel("k0", {{a, true}}));
  const long commits_before = rt_.batch_commits();
  rt_.replay(rec);
  EXPECT_TRUE(rt_.submitting());
  EXPECT_EQ(rt_.batch_commits(), commits_before);  // no early flush
  rt_.commit();
  rt_.synchronize_device();
  EXPECT_EQ(count_kind(rt_, OpKind::Kernel), 3);  // k + k0 + the replay
}

TEST_F(BatchRuntimeTest, EndRecordRecoversAfterAThrowingLaunch) {
  // A launch that throws mid-recording (working set beyond the device):
  // end_record detaches, closes the batch begin_record opened, and the
  // runtime records and replays normally afterwards.
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 8000;
  GpuRuntime rt{spec};
  const ArrayId big = rt.alloc(16000, "big");
  const ArrayId small = rt.alloc(1000, "small");
  rt.host_write(big);
  rt.host_write(small);
  Submission rec;
  rt.begin_record(rec);
  EXPECT_THROW(rt.launch(kDefaultStream, simple_kernel("kb", {{big, true}})),
               OutOfMemoryError);
  rt.end_record();
  rec.clear();
  EXPECT_FALSE(rt.recording());
  EXPECT_FALSE(rt.submitting());
  rt.begin_submit();
  rt.commit();

  rt.begin_record(rec);
  rt.launch(kDefaultStream, simple_kernel("ks", {{small, true}}));
  rt.end_record();
  rt.replay(rec);
  rt.synchronize_device();
  EXPECT_EQ(count_kind(rt, OpKind::Kernel), 2);
}

// --- per-device residency accounting through the runtime ---

TEST_F(BatchRuntimeTest, SingleDeviceResidencyCounters) {
  const ArrayId a = rt_.alloc(12345, "a");
  rt_.host_write(a);
  EXPECT_EQ(rt_.device_bytes_used(0), 0u);
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, false}}));
  rt_.synchronize_device();
  EXPECT_EQ(rt_.device_bytes_used(0), 12345u);
  EXPECT_EQ(rt_.device_bytes_peak(0), 12345u);
  rt_.free_array(a);
  EXPECT_EQ(rt_.device_bytes_used(0), 0u);
  EXPECT_EQ(rt_.device_bytes_peak(0), 12345u);
}

TEST_F(BatchRuntimeTest, OverCapacityMigrationEvictsInsteadOfThrowing) {
  // Two 60k arrays against a 100k device: the second migration stalls on
  // the first launch's in-flight ops, pages `a` out, and completes —
  // oversubscription is a priced event, not an error.
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 100000;
  GpuRuntime rt{Machine::uniform(spec, 2)};
  const ArrayId a = rt.alloc(60000, "a");
  const ArrayId b = rt.alloc(60000, "b");
  rt.host_write(a);
  rt.host_write(b);
  rt.launch(kDefaultStream, simple_kernel("k1", {{a, false}}));
  EXPECT_NO_THROW(
      rt.launch(kDefaultStream, simple_kernel("k2", {{b, false}})));
  rt.synchronize_device();
  EXPECT_EQ(rt.device_bytes_evicted(0), 60000u);  // `a` paged out
  EXPECT_EQ(rt.device_bytes_used(0), 60000u);     // only `b` resident

  // OutOfMemoryError remains for a single op that can never fit.
  const ArrayId big = rt.alloc(120000, "big");
  rt.host_write(big);
  EXPECT_THROW(rt.launch(kDefaultStream, simple_kernel("k3", {{big, false}})),
               OutOfMemoryError);
}

TEST_F(BatchRuntimeTest, ReplayedEventEdgeBindsToItsOwnRound) {
  // The e2e tenant_mix batch round: a kernel on each of two streams, then
  // a join behind a cross-stream edge through one event that every replay
  // re-records. With two replays in flight, each round's join waits for
  // its own round's s0 kernel: a wait binds to the record issued before
  // it, as cudaStreamWaitEvent does, never to the next round's.
  const StreamId s0 = rt_.create_stream();
  const StreamId s1 = rt_.create_stream();
  const EventId ev = rt_.create_event();
  Submission round;
  rt_.begin_record(round);
  rt_.launch(s0, simple_kernel("a", {}, 1e8));
  rt_.launch(s1, simple_kernel("b", {}, 1e7));
  rt_.record_event(ev, s0);
  rt_.stream_wait_event(s1, ev);
  rt_.launch(s1, simple_kernel("join", {}, 1e7));
  rt_.end_record();
  rt_.synchronize_device();
  rt_.replay(round);
  rt_.replay(round);
  rt_.synchronize_device();

  std::vector<TimelineEntry> a;
  std::vector<TimelineEntry> join;
  for (const TimelineEntry& e : rt_.timeline().entries().to_vector()) {
    if (e.name == "a") a.push_back(e);
    if (e.name == "join") join.push_back(e);
  }
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(join.size(), 3u);
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("round " + std::to_string(k));
    EXPECT_DOUBLE_EQ(join[k].start, a[k].end);
  }
}

}  // namespace
}  // namespace psched::sim

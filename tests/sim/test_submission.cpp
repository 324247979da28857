// Transactional batched ingestion: Submission / begin_transaction /
// commit_transaction semantics, and the golden batch/per-call equivalence
// guarantee — committing a group of same-time calls reproduces the
// per-call schedule, on the pinned fixture scenarios, single- and
// multi-device.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/synthetic.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

using test::expect_same_timeline;
using test::raw_copy;
using test::raw_kernel;

/// Drive the contention DAG through a Submission ingested as one
/// transaction (all items at host time 0).
void build_contention_via_submission(Engine& eng, int n_ops, int n_streams) {
  Submission sub;
  emit_contention_dag(
      eng, n_ops, n_streams,
      [&](Op op) { sub.enqueue(std::move(op), 0); },
      [&](EventId ev, StreamId s) { sub.record_event(ev, s, 0); },
      [&](StreamId s, EventId ev) { sub.wait_event(s, ev, 0); });
  EXPECT_EQ(eng.ingest(sub), sub.num_ops());
  EXPECT_FALSE(eng.in_transaction());  // ingest bracketed itself
}

// --- golden equivalence: pinned fixture scenario, single-device ---

TEST(SubmissionEquivalence, ContentionDagMatchesPerCallBitExact) {
  Engine per_call(DeviceSpec::test_device());
  build_contention_dag(per_call, 1000, 16);  // the contention_1k fixture DAG
  per_call.run_all();

  Engine batched(DeviceSpec::test_device());
  build_contention_via_submission(batched, 1000, 16);
  batched.run_all();

  expect_same_timeline(batched.timeline().entries(),
                       per_call.timeline().entries());
  EXPECT_EQ(batched.solve_count(), per_call.solve_count());
  EXPECT_EQ(batched.solved_ops(), per_call.solved_ops());
  for (const OpKind kind :
       {OpKind::Kernel, OpKind::CopyH2D, OpKind::CopyD2H, OpKind::Fault}) {
    EXPECT_EQ(batched.class_solve_count(0, kind),
              per_call.class_solve_count(0, kind))
        << to_string(kind);
  }
}

// --- golden equivalence: multi-device, including peer-link classes ---

TEST(SubmissionEquivalence, MultiDeviceContentionMatchesPerCall) {
  const Machine machine =
      Machine::uniform(DeviceSpec::test_device(), 4, /*nvlink=*/true);

  Engine per_call{Machine(machine)};
  build_contention_dag(per_call, 600, 12);
  per_call.run_all();

  Engine batched{Machine(machine)};
  build_contention_via_submission(batched, 600, 12);
  batched.run_all();

  expect_same_timeline(batched.timeline().entries(),
                       per_call.timeline().entries());
  for (DeviceId d = 0; d < 4; ++d) {
    for (const OpKind kind :
         {OpKind::Kernel, OpKind::CopyH2D, OpKind::CopyD2H, OpKind::Fault}) {
      EXPECT_EQ(batched.class_solve_count(d, kind),
                per_call.class_solve_count(d, kind))
          << "device " << d << " " << to_string(kind);
    }
  }
  for (DeviceId s = 0; s < 4; ++s) {
    for (DeviceId d = 0; d < 4; ++d) {
      EXPECT_EQ(batched.link_solve_count(s, d),
                per_call.link_solve_count(s, d));
    }
  }
}

// --- transaction semantics ---

TEST(Transaction, IdsAssignedInOrderAndOpsFrozenUntilCommit) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s1 = eng.create_stream();
  eng.begin_transaction(0);
  EXPECT_TRUE(eng.in_transaction());
  const OpId a = eng.enqueue(raw_kernel(kDefaultStream, 10, 2, 1.0), 0);
  const OpId b = eng.enqueue(raw_kernel(s1, 10, 2, 1.0), 0);
  EXPECT_EQ(b, a + 1);
  // Frozen: ingested but nothing started.
  EXPECT_EQ(eng.op(a).state, OpState::Queued);
  // Time control is rejected while the transaction is open.
  EXPECT_THROW(eng.advance_to(1), ApiError);
  EXPECT_THROW((void)eng.run_all(), ApiError);
  EXPECT_THROW((void)eng.run_until_op_done(a), ApiError);
  EXPECT_THROW((void)eng.run_until_stream_idle(s1), ApiError);
  EXPECT_THROW(eng.begin_transaction(0), ApiError);  // no nesting
  EXPECT_EQ(eng.commit_transaction(), 2u);
  EXPECT_FALSE(eng.in_transaction());
  eng.run_all();
  EXPECT_TRUE(eng.op_done(a));
  EXPECT_TRUE(eng.op_done(b));
}

TEST(Transaction, CommitWithoutBeginThrows) {
  Engine eng(DeviceSpec::test_device());
  EXPECT_THROW((void)eng.commit_transaction(), ApiError);
}

TEST(Transaction, StaggeredHostTimesReplayPerCallIssueTiming) {
  // A transaction whose items carry increasing host times starts each op
  // at its issue time, exactly like per-call issue with interleaved
  // advances (the command-buffer-flush semantics).
  Engine per_call(DeviceSpec::test_device());
  const StreamId pc_s1 = per_call.create_stream();
  per_call.advance_to(5);
  per_call.enqueue(raw_kernel(kDefaultStream, 10, 4, 1.0), 5);
  per_call.advance_to(20);
  per_call.enqueue(raw_kernel(pc_s1, 10, 4, 1.0), 20);
  per_call.run_all();

  Engine batched(DeviceSpec::test_device());
  const StreamId ba_s1 = batched.create_stream();
  batched.begin_transaction(5);
  batched.enqueue(raw_kernel(kDefaultStream, 10, 4, 1.0), 5);
  batched.enqueue(raw_kernel(ba_s1, 10, 4, 1.0), 20);
  batched.commit_transaction();
  batched.run_all();

  expect_same_timeline(batched.timeline().entries(),
                       per_call.timeline().entries());
  EXPECT_EQ(batched.timeline().entries()[0].start, 5.0);
  EXPECT_EQ(batched.timeline().entries()[1].start, 20.0);
}

// --- Submission builder semantics ---

TEST(Submission, IngestAssignsIdsInSubmissionOrder) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s1 = eng.create_stream();
  const EventId ev = eng.create_event();
  std::vector<OpId> ids;
  const auto keep_id = [&ids](Engine&, OpId id) { ids.push_back(id); };
  Submission sub;
  sub.enqueue(raw_kernel(kDefaultStream, 5, 2, 1.0), 0, keep_id);
  sub.record_event(ev, kDefaultStream, 0);
  sub.wait_event(s1, ev, 0);  // lowered to a marker op: consumes an id
  sub.enqueue(raw_kernel(s1, 5, 2, 1.0), 0, keep_id);
  EXPECT_EQ(sub.size(), 4u);
  EXPECT_EQ(sub.num_ops(), 3u);
  EXPECT_EQ(eng.ingest(sub), 3u);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[1], ids[0] + 2);  // the wait marker took the id between
  eng.run_all();
  EXPECT_TRUE(eng.op_done(ids[1]));
}

TEST(Submission, BindRunsWithAssignedIdBeforeOpCanStart) {
  Engine eng(DeviceSpec::test_device());
  Submission sub;
  OpId seen = kInvalidOp;
  bool completed = false;
  // A zero-work marker completes inside the committing advance; the bind
  // hook must run first so set_on_complete attaches in time.
  Op marker;
  marker.kind = OpKind::Marker;
  marker.stream = kDefaultStream;
  marker.work = 0;
  sub.enqueue(std::move(marker), 0, [&](Engine& e, OpId id) {
    seen = id;
    EXPECT_FALSE(e.op_done(id));
    e.set_on_complete(id, [&completed] { completed = true; });
  });
  EXPECT_EQ(eng.ingest(sub), 1u);
  EXPECT_NE(seen, kInvalidOp);
  EXPECT_TRUE(completed);  // marker completed during the ingest
}

TEST(Submission, AtomicValidationRejectsWholeSubmission) {
  Engine eng(DeviceSpec::test_device());
  Submission sub;
  sub.enqueue(raw_kernel(kDefaultStream, 5, 2, 1.0), 0);
  sub.enqueue(raw_kernel(99, 5, 2, 1.0), 0);  // invalid stream
  EXPECT_THROW((void)eng.ingest(sub), ApiError);
  // Nothing was applied: the engine is untouched and idle.
  EXPECT_FALSE(eng.in_transaction());
  EXPECT_TRUE(eng.all_idle());
  EXPECT_EQ(eng.run_all(), 0.0);
}

TEST(Submission, NonMonotoneHostTimesRejected) {
  Engine eng(DeviceSpec::test_device());
  Submission sub;
  sub.enqueue(raw_kernel(kDefaultStream, 5, 2, 1.0), 10);
  sub.enqueue(raw_kernel(kDefaultStream, 5, 2, 1.0), 5);
  EXPECT_THROW((void)eng.ingest(sub), ApiError);
  EXPECT_TRUE(eng.all_idle());
}

TEST(Submission, P2PValidationAppliesAtIngest) {
  Engine eng(Machine::uniform(DeviceSpec::test_device(), 2, true));
  const StreamId s1 = eng.create_stream(1);
  Submission sub;
  Op bad = raw_copy(s1, OpKind::CopyP2P, 1e4, "p2p");
  bad.peer = 1;  // equals destination device
  sub.enqueue(std::move(bad), 0);
  EXPECT_THROW((void)eng.ingest(sub), ApiError);
  EXPECT_TRUE(eng.all_idle());
}

TEST(Submission, IngestJoinsAnOpenTransaction) {
  Engine eng(DeviceSpec::test_device());
  eng.begin_transaction(0);
  const OpId first = eng.enqueue(raw_kernel(kDefaultStream, 5, 2, 1.0), 0);
  OpId joined = kInvalidOp;
  Submission sub;
  sub.enqueue(raw_kernel(kDefaultStream, 5, 2, 1.0), 0,
              [&joined](Engine&, OpId id) { joined = id; });
  EXPECT_EQ(eng.ingest(sub), 1u);
  // Joined, not bracketed: still open, the item ingested after `first`
  // and frozen until the transaction commits.
  EXPECT_TRUE(eng.in_transaction());
  EXPECT_EQ(joined, first + 1);
  EXPECT_EQ(eng.op(joined).state, OpState::Queued);
  // A rejected list leaves the open transaction as it was.
  Submission bad;
  bad.enqueue(raw_kernel(99, 5, 2, 1.0), 0);
  EXPECT_THROW((void)eng.ingest(bad), ApiError);
  EXPECT_EQ(eng.commit_transaction(), 2u);
  eng.run_all();
  EXPECT_TRUE(eng.op_done(joined));
}

TEST(Submission, EmptyIngestIsNoop) {
  Engine eng(DeviceSpec::test_device());
  Submission sub;
  EXPECT_EQ(eng.ingest(sub), 0u);
  EXPECT_FALSE(eng.in_transaction());
  EXPECT_TRUE(eng.all_idle());
}

// --- recorded (replayable) submissions ---

TEST(RecordedSubmission, ReplayExecutesEveryTimeAndLeavesTheListIntact) {
  Engine eng(DeviceSpec::test_device());
  const StreamId s1 = eng.create_stream();
  const EventId ev = eng.create_event();
  Submission sub;
  sub.enqueue(raw_kernel(kDefaultStream, 5, 2, 1.0), 0);
  sub.record_event(ev, kDefaultStream, 0);
  sub.wait_event(s1, ev, 0);
  sub.enqueue(raw_kernel(s1, 5, 2, 1.0), 0);
  const std::size_t items = sub.size();

  // Items apply by copy: the recording survives every ingest unchanged.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(eng.ingest(sub), 3u);
    EXPECT_EQ(sub.size(), items);
    eng.run_all();
  }
  // Every replay really executed: four ingests x two kernels each.
  long kernels = 0;
  for (const auto& e : eng.timeline().entries()) {
    if (e.kind == OpKind::Kernel) ++kernels;
  }
  EXPECT_EQ(kernels, 8);
}

// --- batched solver-work amortization ---

TEST(Transaction, BatchDirtiesEachClassOncePerCommit) {
  // 32 same-time kernels through one transaction: the kernel class is
  // re-solved once for the whole batch at the first step, not once per
  // ingested op.
  Engine eng(DeviceSpec::test_device());
  for (int i = 1; i < 32; ++i) eng.create_stream();
  eng.begin_transaction(0);
  for (int i = 0; i < 32; ++i) {
    eng.enqueue(raw_kernel(static_cast<StreamId>(i), 100, 1, 0.5), 0);
  }
  eng.commit_transaction();
  eng.advance_to(1);  // everything started and priced
  EXPECT_EQ(eng.class_solve_count(0, OpKind::Kernel), 1);
}

}  // namespace
}  // namespace psched::sim

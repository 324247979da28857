#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

using test::raw_copy;
using test::raw_kernel;

class EngineTest : public ::testing::Test {
 protected:
  Engine eng_{DeviceSpec::test_device()};
};

TEST_F(EngineTest, StartsWithDefaultStream) {
  EXPECT_EQ(eng_.num_streams(), 1u);
  EXPECT_TRUE(eng_.stream_idle(kDefaultStream));
  EXPECT_TRUE(eng_.all_idle());
  EXPECT_DOUBLE_EQ(eng_.now(), 0);
}

TEST_F(EngineTest, CreateStreamsAndEvents) {
  EXPECT_EQ(eng_.create_stream(), 1);
  EXPECT_EQ(eng_.create_stream(), 2);
  EXPECT_EQ(eng_.create_event(), 0);
  EXPECT_EQ(eng_.create_event(), 1);
}

TEST_F(EngineTest, SingleKernelRunsToCompletion) {
  const OpId id = eng_.enqueue(raw_kernel(0, 100, 4, 1.0), 0);
  EXPECT_FALSE(eng_.op_done(id));
  const TimeUs t = eng_.run_until_op_done(id);
  EXPECT_DOUBLE_EQ(t, 100);
  EXPECT_TRUE(eng_.op_done(id));
  EXPECT_DOUBLE_EQ(eng_.op(id).start_time, 0);
  EXPECT_DOUBLE_EQ(eng_.op(id).end_time, 100);
}

TEST_F(EngineTest, StreamFifoOrder) {
  const OpId a = eng_.enqueue(raw_kernel(0, 50, 4, 1.0, 0, "a"), 0);
  const OpId b = eng_.enqueue(raw_kernel(0, 30, 4, 1.0, 0, "b"), 0);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(a).end_time, 50);
  EXPECT_DOUBLE_EQ(eng_.op(b).start_time, 50);
  EXPECT_DOUBLE_EQ(eng_.op(b).end_time, 80);
}

TEST_F(EngineTest, EnqueueTimeDelaysStart) {
  const OpId a = eng_.enqueue(raw_kernel(0, 10, 4, 1.0), /*host_time=*/25);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(a).start_time, 25);
  EXPECT_DOUBLE_EQ(eng_.op(a).end_time, 35);
}

TEST_F(EngineTest, IndependentStreamsOverlap) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  // Quarter-fill kernels: co-running is faster than serial execution.
  const OpId a = eng_.enqueue(raw_kernel(s1, 100, 1, 1.0), 0);
  const OpId b = eng_.enqueue(raw_kernel(s2, 100, 1, 1.0), 0);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(a).start_time, 0);
  EXPECT_DOUBLE_EQ(eng_.op(b).start_time, 0);
  EXPECT_LT(eng_.op(a).end_time, 200);  // better than serialized
  EXPECT_GT(eng_.op(a).end_time, 100);  // but not free
  EXPECT_DOUBLE_EQ(eng_.op(a).end_time, eng_.op(b).end_time);
}

TEST_F(EngineTest, FullDeviceKernelsShareLikeSerial) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const OpId a = eng_.enqueue(raw_kernel(s1, 100, 4, 1.0), 0);
  const OpId b = eng_.enqueue(raw_kernel(s2, 100, 4, 1.0), 0);
  eng_.run_all();
  EXPECT_NEAR(eng_.op(a).end_time, 200, 1e-6);
  EXPECT_NEAR(eng_.op(b).end_time, 200, 1e-6);
}

TEST_F(EngineTest, RatesRebalanceWhenOpCompletes) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  // a: 100us solo; b: 30us solo. Both full-fill -> share until b finishes.
  const OpId a = eng_.enqueue(raw_kernel(s1, 100, 4, 1.0), 0);
  const OpId b = eng_.enqueue(raw_kernel(s2, 30, 4, 1.0), 0);
  eng_.run_all();
  // b finishes at 60 (rate 1/2); a then speeds to rate 1 with 70 work left.
  EXPECT_NEAR(eng_.op(b).end_time, 60, 1e-6);
  EXPECT_NEAR(eng_.op(a).end_time, 130, 1e-6);
}

TEST_F(EngineTest, EventRecordAndWaitAcrossStreams) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const EventId ev = eng_.create_event();
  const OpId a = eng_.enqueue(raw_kernel(s1, 50, 4, 1.0), 0);
  eng_.record_event(ev, s1, 0);
  eng_.wait_event(s2, ev, 0);
  const OpId b = eng_.enqueue(raw_kernel(s2, 10, 4, 1.0), 0);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(b).start_time, 50);  // waited for a
  EXPECT_DOUBLE_EQ(eng_.op(a).end_time, 50);
  EXPECT_TRUE(eng_.event_done(ev));
  EXPECT_DOUBLE_EQ(eng_.event_done_time(ev), 50);
}

// `Op::after` gates an op on one issued op of another stream — not on
// that stream's tail — with no event in between.
TEST_F(EngineTest, AfterWaitsForOneOpNotItsStreamTail) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const OpId a = eng_.enqueue(raw_kernel(s1, 50, 4, 1.0, 0, "a"), 0);
  const OpId b = eng_.enqueue(raw_kernel(s1, 30, 4, 1.0, 0, "b"), 0);
  Op gated = raw_copy(s2, OpKind::CopyD2H, 1000, "gated");
  gated.after = {a};
  const OpId c = eng_.enqueue(std::move(gated), 0);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(c).start_time, 50);  // a's end, not b's (80)
  EXPECT_DOUBLE_EQ(eng_.op(b).end_time, 80);
  // Gated on an op that already completed: no delay.
  Op late = raw_copy(s2, OpKind::CopyD2H, 1000, "late");
  late.after = {b};
  const OpId d = eng_.enqueue(std::move(late), eng_.now());
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(d).start_time, 80);
  // Only issued ops can gate.
  Op bad = raw_copy(s2, OpKind::CopyD2H, 1000, "bad");
  bad.after = {d + 10};
  EXPECT_THROW(eng_.enqueue(std::move(bad), eng_.now()), ApiError);
}

TEST_F(EngineTest, EventOnEmptyStreamCompletesImmediately) {
  const EventId ev = eng_.create_event();
  eng_.record_event(ev, kDefaultStream, /*host_time=*/5);
  EXPECT_DOUBLE_EQ(eng_.event_done_time(ev), 5);
  eng_.advance_to(5);
  EXPECT_TRUE(eng_.event_done(ev));
}

TEST_F(EngineTest, WaitOnAlreadyCompleteEventDoesNotDelay) {
  const StreamId s1 = eng_.create_stream();
  const EventId ev = eng_.create_event();
  eng_.record_event(ev, kDefaultStream, 0);
  eng_.wait_event(s1, ev, 0);
  const OpId a = eng_.enqueue(raw_kernel(s1, 10, 4, 1.0), 0);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(a).start_time, 0);
}

TEST_F(EngineTest, EventReRecordResets) {
  const StreamId s1 = eng_.create_stream();
  const EventId ev = eng_.create_event();
  const OpId a = eng_.enqueue(raw_kernel(s1, 50, 4, 1.0), 0);
  eng_.record_event(ev, s1, 0);
  eng_.run_until_op_done(a);
  EXPECT_DOUBLE_EQ(eng_.event_done_time(ev), 50);
  // Re-record on an idle stream at a later host time.
  eng_.record_event(ev, s1, 80);
  EXPECT_DOUBLE_EQ(eng_.event_done_time(ev), 80);
}

// cudaStreamWaitEvent on an event never recorded returns at once and adds
// no dependency; a record issued after the wait does not reach back.
TEST_F(EngineTest, WaitOnUnrecordedEventIsANoOp) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const EventId ev = eng_.create_event();
  eng_.wait_event(s1, ev, 0);
  const OpId a = eng_.enqueue(raw_kernel(s1, 10, 1, 1.0), 0);
  const OpId b = eng_.enqueue(raw_kernel(s2, 100, 1, 1.0), 0);
  eng_.record_event(ev, s2, 0);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(a).start_time, 0);
  EXPECT_LT(eng_.op(a).end_time, eng_.op(b).end_time);
}

// The wait binds to the work the event covered at the wait call, as
// cudaStreamWaitEvent does: re-recording the event behind a longer op
// before the waiter's head is even examined does not move the edge.
TEST_F(EngineTest, WaitBindsToTheGateAtTheCall) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const StreamId s3 = eng_.create_stream();
  const EventId ev = eng_.create_event();
  const OpId first = eng_.enqueue(raw_kernel(s1, 50, 1, 1.0, 0, "first"), 0);
  eng_.record_event(ev, s1, 0);
  eng_.wait_event(s3, ev, 0);
  const OpId waiter = eng_.enqueue(raw_kernel(s3, 10, 1, 1.0, 0, "w"), 0);
  const OpId second =
      eng_.enqueue(raw_kernel(s2, 200, 1, 1.0, 0, "second"), 0);
  eng_.record_event(ev, s2, 0);  // busy stream: the event now gates on it
  eng_.audit();
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(waiter).start_time, eng_.op(first).end_time);
  EXPECT_LT(eng_.op(waiter).start_time, eng_.op(second).end_time);
  // The event itself follows its latest record.
  EXPECT_DOUBLE_EQ(eng_.event_done_time(ev), eng_.op(second).end_time);
  eng_.audit();
}

TEST_F(EngineTest, RunUntilEventOnUnrecordedThrows) {
  const EventId ev = eng_.create_event();
  EXPECT_THROW(eng_.run_until_event(ev), ApiError);
}

TEST_F(EngineTest, InvalidHandlesThrow) {
  EXPECT_THROW(eng_.enqueue(raw_kernel(7, 10, 4, 1.0), 0), ApiError);
  EXPECT_THROW(eng_.record_event(99, 0, 0), ApiError);
  EXPECT_THROW(eng_.record_event(-1, 0, 0), ApiError);
  EXPECT_THROW(eng_.wait_event(0, 42, 0), ApiError);
  EXPECT_THROW((void)eng_.stream_idle(9), ApiError);
  EXPECT_THROW((void)eng_.op(424242), ApiError);
}

TEST_F(EngineTest, AdvanceToMakesPartialProgress) {
  const OpId a = eng_.enqueue(raw_kernel(0, 100, 4, 1.0), 0);
  eng_.advance_to(40);
  EXPECT_FALSE(eng_.op_done(a));
  EXPECT_NEAR(eng_.op(a).done, 40, 1e-9);
  EXPECT_DOUBLE_EQ(eng_.now(), 40);
  eng_.advance_to(100);
  EXPECT_TRUE(eng_.op_done(a));
}

TEST_F(EngineTest, AdvanceToNeverGoesBackward) {
  eng_.advance_to(50);
  eng_.advance_to(10);
  EXPECT_DOUBLE_EQ(eng_.now(), 50);
}

TEST_F(EngineTest, RunUntilStreamIdle) {
  const StreamId s1 = eng_.create_stream();
  eng_.enqueue(raw_kernel(s1, 70, 4, 1.0), 0);
  const OpId other = eng_.enqueue(raw_kernel(0, 500, 1, 0.25), 0);
  const TimeUs t = eng_.run_until_stream_idle(s1);
  EXPECT_GE(t, 70);
  EXPECT_TRUE(eng_.stream_idle(s1));
  EXPECT_FALSE(eng_.op_done(other));
}

TEST_F(EngineTest, TransfersRecordBytesInTimeline) {
  eng_.enqueue(raw_copy(0, OpKind::CopyH2D, 2e4, "up"), 0);
  eng_.run_all();
  ASSERT_EQ(eng_.timeline().entries().size(), 1u);
  const auto& e = eng_.timeline().entries()[0];
  EXPECT_EQ(e.kind, OpKind::CopyH2D);
  EXPECT_DOUBLE_EQ(e.bytes, 2e4);
  EXPECT_DOUBLE_EQ(e.end - e.start, 2.0);  // 2e4 bytes at 1e4 B/us
}

TEST_F(EngineTest, MarkersDoNotAppearInTimeline) {
  const EventId ev = eng_.create_event();
  eng_.record_event(ev, 0, 0);
  eng_.wait_event(0, ev, 0);
  eng_.enqueue(raw_kernel(0, 10, 4, 1.0), 0);
  eng_.run_all();
  for (const auto& e : eng_.timeline().entries()) {
    EXPECT_NE(e.kind, OpKind::Marker);
  }
  EXPECT_EQ(eng_.timeline().entries().size(), 1u);
}

TEST_F(EngineTest, OnCompleteFiresInDependencyOrder) {
  std::vector<int> order;
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const EventId ev = eng_.create_event();

  Op a = raw_kernel(s1, 50, 4, 1.0, 0, "a");
  a.on_complete = [&order] { order.push_back(1); };
  eng_.enqueue(std::move(a), 0);
  eng_.record_event(ev, s1, 0);
  eng_.wait_event(s2, ev, 0);
  Op b = raw_kernel(s2, 10, 4, 1.0, 0, "b");
  b.on_complete = [&order] { order.push_back(2); };
  eng_.enqueue(std::move(b), 0);

  eng_.run_all();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST_F(EngineTest, SetOnCompleteValidation) {
  const OpId a = eng_.enqueue(raw_kernel(0, 10, 4, 1.0), 0);
  eng_.set_on_complete(a, [] {});
  eng_.run_all();
  EXPECT_THROW(eng_.set_on_complete(a, [] {}), ApiError);
  EXPECT_THROW(eng_.set_on_complete(999, [] {}), ApiError);
}

TEST_F(EngineTest, DeterministicReplay) {
  auto run_once = [] {
    Engine eng(DeviceSpec::test_device());
    const StreamId s1 = eng.create_stream();
    const StreamId s2 = eng.create_stream();
    std::vector<OpId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(eng.enqueue(
          raw_kernel(i % 2 == 0 ? s1 : s2, 10 + 3 * i, 1 + i % 4, 1.0), 0));
    }
    eng.run_all();
    std::vector<TimeUs> ends;
    for (OpId id : ids) ends.push_back(eng.op(id).end_time);
    return ends;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(EngineTest, ManyStreamsDrainCompletely) {
  std::vector<StreamId> streams;
  for (int i = 0; i < 10; ++i) streams.push_back(eng_.create_stream());
  for (int rep = 0; rep < 5; ++rep) {
    for (StreamId s : streams) {
      eng_.enqueue(raw_kernel(s, 5 + s, 1, 0.5), 0);
    }
  }
  eng_.run_all();
  EXPECT_TRUE(eng_.all_idle());
  EXPECT_EQ(eng_.timeline().entries().size(), 50u);
}

TEST_F(EngineTest, WorkConservation) {
  // Total solo work equals the integral of rates over time: with only
  // full-fill kernels the makespan must equal the sum of solo durations.
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const StreamId s3 = eng_.create_stream();
  eng_.enqueue(raw_kernel(s1, 40, 4, 1.0), 0);
  eng_.enqueue(raw_kernel(s2, 25, 4, 1.0), 0);
  eng_.enqueue(raw_kernel(s3, 35, 4, 1.0), 0);
  eng_.run_all();
  EXPECT_NEAR(eng_.timeline().makespan(), 100, 1e-6);
}


// ---------------------------------------------------------------------
// DMA copy-engine serialization (one explicit copy in flight per
// direction — the mechanism behind the paper's transfer pipelining).
// ---------------------------------------------------------------------

TEST_F(EngineTest, SameDirectionCopiesSerialize) {
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  // 1e4 B/us PCIe on the test device: each copy takes 10us alone.
  eng_.enqueue(raw_copy(s1, OpKind::CopyH2D, 1e5, "c1"), 0);
  eng_.enqueue(raw_copy(s2, OpKind::CopyH2D, 1e5, "c2"), 0);
  eng_.run_all();
  const auto& e = eng_.timeline().entries();
  ASSERT_EQ(e.size(), 2u);
  // Back to back at full bandwidth, not fluid-shared halves.
  EXPECT_NEAR(e[0].end - e[0].start, 10.0, 1e-9);
  EXPECT_NEAR(e[1].end - e[1].start, 10.0, 1e-9);
  EXPECT_GE(e[1].start, e[0].end);
  EXPECT_NEAR(eng_.timeline().makespan(), 20.0, 1e-9);
}

TEST_F(EngineTest, OppositeDirectionCopiesOverlap) {
  // PCIe is full duplex: H2D and D2H each own their engine.
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  eng_.enqueue(raw_copy(s1, OpKind::CopyH2D, 1e5, "up"), 0);
  eng_.enqueue(raw_copy(s2, OpKind::CopyD2H, 1e5, "down"), 0);
  eng_.run_all();
  EXPECT_NEAR(eng_.timeline().makespan(), 10.0, 1e-9);
}

TEST_F(EngineTest, CopyEngineGrabbedInCompletionOrder) {
  // Three queued copies on three streams: they drain one at a time and
  // the engine is handed over at each completion without idle gaps.
  std::vector<StreamId> streams;
  for (int i = 0; i < 3; ++i) streams.push_back(eng_.create_stream());
  for (StreamId s : streams) {
    eng_.enqueue(raw_copy(s, OpKind::CopyH2D, 5e4, "c"), 0);
  }
  eng_.run_all();
  const auto& e = eng_.timeline().entries();
  ASSERT_EQ(e.size(), 3u);
  for (std::size_t i = 1; i < e.size(); ++i) {
    EXPECT_NEAR(e[i].start, e[i - 1].end, 1e-9);
  }
  EXPECT_NEAR(eng_.timeline().makespan(), 15.0, 1e-9);
}

TEST_F(EngineTest, KernelOverlapsQueuedCopy) {
  // A kernel behind a copy on stream 1 does not block stream 2's copy
  // from queueing; the copies serialize but the kernel overlaps copy 2.
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  eng_.enqueue(raw_copy(s1, OpKind::CopyH2D, 1e5, "c1"), 0);
  eng_.enqueue(raw_kernel(s1, 10, 4, 1.0, 0, "k"), 0);
  eng_.enqueue(raw_copy(s2, OpKind::CopyH2D, 1e5, "c2"), 0);
  eng_.run_all();
  const auto& tl = eng_.timeline();
  const auto cover = tl.kernel_cover().intersect(tl.transfer_cover());
  EXPECT_NEAR(cover.measure(), 10.0, 1e-9);  // kernel fully under copy 2
  EXPECT_NEAR(tl.makespan(), 20.0, 1e-9);
}

TEST_F(EngineTest, FaultsDoNotOccupyTheCopyEngine) {
  // Fault-path migrations may proceed while an explicit copy is in
  // flight (they use the page-fault machinery, not the DMA engine).
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  eng_.enqueue(raw_copy(s1, OpKind::CopyH2D, 1e5, "copy"), 0);
  eng_.enqueue(raw_copy(s2, OpKind::Fault, 5e4, "fault"), 0);
  eng_.run_all();
  const auto& e = eng_.timeline().entries();
  ASSERT_EQ(e.size(), 2u);
  // Both start at t=0: no serialization between the two mechanisms.
  EXPECT_NEAR(e[0].start, 0.0, 1e-9);
  EXPECT_NEAR(e[1].start, 0.0, 1e-9);
}

// ---------------------------------------------------------------------
// Floating-point robustness: residual work that cannot advance the clock
// must complete instead of livelocking (regression for a real hang: a
// tiny transfer sharing bandwidth ended with ~1e-7 bytes left whose
// completion increment underflowed against now_).
// ---------------------------------------------------------------------

TEST_F(EngineTest, TinyResidualWorkCompletes) {
  // Advance the clock far, then run an op whose duration is below the
  // ulp of the clock value.
  const StreamId s1 = eng_.create_stream();
  eng_.enqueue(raw_kernel(s1, 1e9, 4, 1.0, 0, "long"), 0);
  eng_.run_all();
  eng_.enqueue(raw_copy(s1, OpKind::CopyD2H, 1e-4, "tiny"), eng_.now());
  EXPECT_NO_THROW(eng_.run_all());
  EXPECT_TRUE(eng_.all_idle());
}

// ---------------------------------------------------------------------
// Slab op storage: completed ops retire to compact records; live memory
// tracks concurrency, not history.
// ---------------------------------------------------------------------

TEST_F(EngineTest, RetiredOpsKeepCompletionRecord) {
  const OpId a = eng_.enqueue(raw_kernel(0, 10, 4, 1.0, 0, "a"), 0);
  const OpId b = eng_.enqueue(raw_kernel(0, 20, 4, 1.0, 0, "b"), 0);
  eng_.run_all();
  const Op oa = eng_.op(a);
  const Op ob = eng_.op(b);
  EXPECT_EQ(oa.state, OpState::Done);
  EXPECT_EQ(oa.kind, OpKind::Kernel);
  EXPECT_EQ(oa.stream, 0);
  EXPECT_DOUBLE_EQ(oa.start_time, 0);
  EXPECT_DOUBLE_EQ(oa.end_time, 10);
  EXPECT_DOUBLE_EQ(ob.start_time, 10);
  EXPECT_DOUBLE_EQ(ob.end_time, 30);
}

// The per-id history lives in fixed 4096-element chunks. Queries answer
// for ops and events in every chunk, and `after` edges on an op of the
// first chunk read its record whether the op is still live (the head
// parks on the op's waiter list) or retired.
TEST_F(EngineTest, HistoryAnswersAcrossChunks) {
  constexpr int kChunk = 4096;
  constexpr int kEdges = 3 * kChunk + 100;  // > 3 chunks of events
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  const StreamId s3 = eng_.create_stream();
  const StreamId s4 = eng_.create_stream();
  const OpId first =
      eng_.enqueue(raw_copy(s3, OpKind::CopyD2H, 5000, "first"), 0);
  std::vector<OpId> gates;
  std::vector<EventId> events;
  for (int i = 0; i < kEdges; ++i) {
    gates.push_back(
        eng_.enqueue(raw_kernel(s1, 1.0 + i % 3, 4, 1.0, 0, "gate"), 0));
    events.push_back(eng_.create_event());
    eng_.record_event(events.back(), s1, 0);
    eng_.wait_event(s2, events.back(), 0);
    eng_.enqueue(raw_copy(s2, OpKind::CopyH2D, 100, "follow"), 0);
  }
  // Issued in a late chunk, gated on the first op while it is live.
  Op parked = raw_kernel(s4, 1, 4, 1.0, 0, "parked");
  parked.after = {first};
  const OpId parked_id = eng_.enqueue(std::move(parked), 0);
  ASSERT_GT(parked_id, 9 * kChunk);

  const TimeUs first_end = eng_.run_until_op_done(first);
  ASSERT_FALSE(eng_.op_done(gates.back()));  // later chunks still running
  // Gated on the first op after it retired: starts at its recorded end.
  Op late = raw_copy(s3, OpKind::CopyD2H, 100, "late");
  late.after = {first};
  const OpId late_id = eng_.enqueue(std::move(late), 0);
  eng_.run_all();
  EXPECT_DOUBLE_EQ(eng_.op(first).end_time, first_end);
  EXPECT_DOUBLE_EQ(eng_.op(parked_id).start_time, first_end);
  EXPECT_DOUBLE_EQ(eng_.op(late_id).start_time, first_end);

  // Every retired op answers from its record as the timeline saw it;
  // wait markers (absent from the timeline) keep their kind and stream.
  std::vector<const TimelineEntry*> entry(
      static_cast<std::size_t>(late_id) + 1, nullptr);
  const std::vector<TimelineEntry> entries =
      eng_.timeline().entries().to_vector();
  for (const TimelineEntry& e : entries) {
    entry[static_cast<std::size_t>(e.op)] = &e;
  }
  for (OpId id = 1; id <= late_id; ++id) {
    const Op op = eng_.op(id);
    ASSERT_TRUE(eng_.op_done(id));
    EXPECT_EQ(op.state, OpState::Done);
    EXPECT_EQ(eng_.op_stream(id), op.stream);
    const TimelineEntry* e = entry[static_cast<std::size_t>(id)];
    if (e == nullptr) {
      EXPECT_EQ(op.kind, OpKind::Marker) << "op " << id;
      EXPECT_EQ(op.stream, s2) << "op " << id;
      continue;
    }
    EXPECT_EQ(op.kind, e->kind) << "op " << id;
    EXPECT_EQ(op.stream, e->stream) << "op " << id;
    EXPECT_DOUBLE_EQ(op.start_time, e->start) << "op " << id;
    EXPECT_DOUBLE_EQ(op.end_time, e->end) << "op " << id;
  }
  for (int i = 0; i < kEdges; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_TRUE(eng_.event_done(events[k]));
    EXPECT_DOUBLE_EQ(eng_.event_done_time(events[k]),
                     eng_.op(gates[k]).end_time);
  }
}

TEST_F(EngineTest, PeakResidentTracksConcurrencyNotHistory) {
  // 50 ops executed one at a time: the slab never holds more than one live
  // op (plus the occasional marker), however many have retired.
  for (int i = 0; i < 50; ++i) {
    const OpId id = eng_.enqueue(raw_kernel(0, 5, 4, 1.0), eng_.now());
    eng_.run_until_op_done(id);
  }
  EXPECT_LE(eng_.peak_resident_ops(), 2);
  // Enqueue 10 at once: peak tracks the burst.
  for (int i = 0; i < 10; ++i) {
    eng_.enqueue(raw_kernel(0, 1, 4, 1.0), eng_.now());
  }
  eng_.run_all();
  EXPECT_GE(eng_.peak_resident_ops(), 10);
}

TEST_F(EngineTest, StreamIdleObserversFireOnDrain) {
  std::vector<StreamId> drained;
  std::vector<StreamId> drained2;
  const int t1 = eng_.add_stream_idle_observer(
      [&drained](StreamId s) { drained.push_back(s); });
  const int t2 = eng_.add_stream_idle_observer(
      [&drained2](StreamId s) { drained2.push_back(s); });
  const StreamId s1 = eng_.create_stream();
  eng_.enqueue(raw_kernel(s1, 10, 4, 1.0), 0);
  eng_.enqueue(raw_kernel(s1, 10, 4, 1.0), 0);
  eng_.run_all();
  // Fires once, when the second op drains the stream — not per op; every
  // registered observer sees it.
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], s1);
  EXPECT_EQ(drained2, drained);
  // Removal is per-token: the survivor keeps observing.
  eng_.remove_stream_idle_observer(t1);
  eng_.enqueue(raw_kernel(s1, 10, 4, 1.0), eng_.now());
  eng_.run_all();
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained2.size(), 2u);
  eng_.remove_stream_idle_observer(t2);
}

TEST_F(EngineTest, StreamIdleObserversMayChangeMidDispatch) {
  // Mid-dispatch, observer A removes itself and the later observer B,
  // registers C, then reads its own captured state. B is skipped, D (after
  // B) still sees every drain, C first sees the next drain, and A's
  // closure stays alive while it runs (a use after free here trips the
  // sanitizer gate).
  std::vector<std::string> log;
  int ta = 0;
  int tb = 0;
  const std::string tag(64, 'a');  // a heap-allocated capture
  ta = eng_.add_stream_idle_observer([&, tag](StreamId) {
    eng_.remove_stream_idle_observer(ta);
    eng_.remove_stream_idle_observer(tb);
    eng_.add_stream_idle_observer([&](StreamId) { log.push_back("c"); });
    log.push_back(tag.substr(0, 1));
  });
  tb = eng_.add_stream_idle_observer([&](StreamId) { log.push_back("b"); });
  eng_.add_stream_idle_observer([&](StreamId) { log.push_back("d"); });
  eng_.enqueue(raw_kernel(0, 10, 4, 1.0), 0);
  eng_.run_all();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "d"}));
  eng_.enqueue(raw_kernel(0, 10, 4, 1.0), eng_.now());
  eng_.run_all();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "d", "d", "c"}));
}

TEST_F(EngineTest, SolverCountersAdvance) {
  const StreamId s1 = eng_.create_stream();
  eng_.enqueue(raw_kernel(0, 10, 4, 1.0), 0);
  eng_.enqueue(raw_kernel(s1, 10, 1, 0.5), 0);
  eng_.enqueue(raw_copy(s1, OpKind::CopyH2D, 1e4), 0);
  eng_.run_all();
  EXPECT_GT(eng_.solve_count(), 0);
  // Copy completions must not charge kernel-class work: total rate
  // assignments stay below (kernels + copies) x solve passes.
  EXPECT_GE(eng_.solved_ops(), eng_.solve_count());
  EXPECT_LT(eng_.solved_ops(), eng_.solve_count() * 3);
}

TEST_F(EngineTest, RerecordChurnDoesNotMoveABoundWait) {
  // A head waits on an event recorded on an idle stream, which is then
  // re-recorded 20000 times at ever later host times while the head sits
  // in the start heap. The wait bound to the first record: the head
  // keeps its one heap entry and releases at the first record time.
  const StreamId s = eng_.create_stream();
  const StreamId src = eng_.create_stream();
  const EventId ev = eng_.create_event();
  eng_.record_event(ev, src, 1e6);  // src idle: completes at record time
  eng_.wait_event(s, ev, 0);
  eng_.enqueue(raw_kernel(s, 10, 4, 1.0), 0);

  const int kRerecords = 20000;
  for (int i = 1; i <= kRerecords; ++i) {
    eng_.record_event(ev, src, 1e6 + i);
    eng_.advance_to(eng_.now());
    if (i % 1000 == 0) eng_.audit();
  }
  const TimeUs end = eng_.run_all();
  EXPECT_DOUBLE_EQ(end, 1e6 + 10);
  EXPECT_DOUBLE_EQ(eng_.event_done_time(ev), 1e6 + kRerecords);
  eng_.audit();
}

TEST_F(EngineTest, FutureStartsReleaseThroughTheStartHeap) {
  // Future enqueue times park heads in the start heap; every entry must
  // name a queued stream head at every step, and none is left once the
  // engine drains (the audit checks both).
  const StreamId s1 = eng_.create_stream();
  const StreamId s2 = eng_.create_stream();
  std::vector<OpId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(eng_.enqueue(raw_kernel(i % 2 ? s1 : s2, 2.0, 1, 0.5),
                               /*host_time=*/i * 3.0));
    eng_.advance_to(i * 1.5);
    eng_.audit();
  }
  eng_.run_all();
  eng_.audit();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GE(eng_.op(ids[i]).start_time, static_cast<double>(i) * 3.0);
  }
}

TEST_F(EngineTest, StallWatchdogReportsState) {
  // A zero-rate op that can never progress trips the stall watchdog with
  // a diagnostic instead of hanging forever. The resource model floors
  // kernel and transfer rates above zero, so the only way to manufacture
  // a stuck op is a malformed one the model does not rate at all — the
  // watchdog is the safety net for exactly such modelling bugs.
  const StreamId s1 = eng_.create_stream();
  Op op;
  op.kind = OpKind::Marker;
  op.stream = s1;
  op.name = "stuck";
  op.work = 100;  // a marker with work: no rate will ever be assigned
  const OpId stuck = eng_.enqueue(op, 0);
  // A head on another stream gated on the stuck op: the report names its
  // `after` gates.
  const StreamId s2 = eng_.create_stream();
  Op behind = raw_kernel(s2, 10, 1, 1.0, 0, "behind");
  behind.after = {stuck};
  eng_.enqueue(behind, 0);
  try {
    eng_.run_all();
    FAIL() << "expected stall or deadlock report";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck"), std::string::npos);
    EXPECT_NE(what.find("'behind' enqueue_t 0 after " + std::to_string(stuck)),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace psched::sim

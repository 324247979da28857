#include <gtest/gtest.h>

#include "rt_test_util.hpp"

namespace psched::rt {
namespace {

using test::Fixture;

// Arrays are sized so kernels (and their prefetches) are still in flight
// when the next computation is registered — otherwise FIFO reuse correctly
// recycles the idle stream and there is nothing to observe.
constexpr std::size_t kN = 1 << 16;

long launch_init(Context& ctx, DeviceArray& a, double v) {
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(a, static_cast<long>(a.size()), v);
  return ctx.stats().computations - 1;
}

TEST(StreamManager, FifoReuseCreatesOnlyWhenBusy) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto a = ctx.array<float>(kN, "a");
  auto b = ctx.array<float>(kN, "b");
  auto c = ctx.array<float>(kN, "c");
  launch_init(ctx, a, 1);
  launch_init(ctx, b, 2);
  launch_init(ctx, c, 3);
  // Three concurrently active independent kernels: three streams.
  EXPECT_EQ(ctx.stats().streams_created, 3);
  ctx.synchronize();
  // All idle now: the next computation reuses the first stream.
  launch_init(ctx, a, 4);
  EXPECT_EQ(ctx.stats().streams_created, 3);
  EXPECT_EQ(ctx.dag().vertices().back().stream,
            ctx.dag().vertices().front().stream);
  ctx.synchronize();
}

TEST(StreamManager, AlwaysNewPolicyCreatesPerComputation) {
  Options opts;
  opts.stream_policy = StreamPolicy::AlwaysNew;
  Fixture f(opts);
  auto& ctx = *f.ctx;
  auto a = ctx.array<float>(kN, "a");
  launch_init(ctx, a, 1);
  ctx.synchronize();
  launch_init(ctx, a, 2);
  ctx.synchronize();
  // Chain through `a`: the second launch is the first child of the first
  // and still inherits; but after a sync the parent is finished, so a new
  // stream is created. Independent work always gets a fresh stream.
  auto b = ctx.array<float>(kN, "b");
  launch_init(ctx, b, 3);
  EXPECT_GE(ctx.stats().streams_created, 2);
  ctx.synchronize();
}

TEST(StreamManager, SingleStreamPolicySerializesOnDevice) {
  Options opts;
  opts.stream_policy = StreamPolicy::SingleStream;
  Fixture f(opts);
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto a = ctx.array<float>(kN, "a");
  auto b = ctx.array<float>(kN, "b");
  launch_init(ctx, a, 1);
  launch_init(ctx, b, 2);
  EXPECT_EQ(ctx.stats().streams_created, 1);
  EXPECT_EQ(ctx.dag().vertices()[0].stream, ctx.dag().vertices()[1].stream);
  EXPECT_EQ(ctx.stats().event_waits, 0);  // same stream: no events needed
  ctx.synchronize();
}

TEST(StreamManager, FirstChildInheritsSecondChildMovesAway) {
  // One parent, two children reading its output.
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(kN, "x");
  auto r1 = ctx.array<float>(kN, "r1");
  auto r2 = ctx.array<float>(kN, "r2");
  launch_init(ctx, x, 1);
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  affine(4, 64)(x, r1, static_cast<long>(kN));
  affine(4, 64)(x, r2, static_cast<long>(kN));
  const auto& comps = ctx.dag().vertices();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[1].stream, comps[0].stream);  // first child inherits
  EXPECT_NE(comps[2].stream, comps[0].stream);  // second child moves away
  // Only the second child pays a synchronization event.
  EXPECT_EQ(ctx.stats().event_waits, 1);
  ctx.synchronize();
}

TEST(StreamManager, DiamondUsesTwoStreamsAndOneJoinWait) {
  // K0 -> (K1, K2) -> K3, all through data dependencies.
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(kN, "x");
  auto r1 = ctx.array<float>(kN, "r1");
  auto r2 = ctx.array<float>(kN, "r2");
  auto out = ctx.array<float>(kN, "out");
  launch_init(ctx, x, 1);
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  auto add2 =
      ctx.build_kernel("add2", "const pointer, const pointer, pointer, sint32");
  affine(4, 64)(x, r1, static_cast<long>(kN));
  affine(4, 64)(x, r2, static_cast<long>(kN));
  add2(4, 64)(r1, r2, out, static_cast<long>(kN));
  const auto& comps = ctx.dag().vertices();
  // Join inherits the first branch's stream (it is r1's first consumer and
  // the branch tail), and waits once for the other branch.
  EXPECT_EQ(comps[3].stream, comps[1].stream);
  EXPECT_EQ(ctx.stats().event_waits, 2);  // branch2 split + join wait
  EXPECT_EQ(ctx.stats().streams_created, 2);
  ctx.synchronize();
}

TEST(StreamManager, DestroyedManagerSurvivesLaterIdleCallbacks) {
  // Construct/destruct ordering against GpuRuntime: a manager registers a
  // stream-idle observer capturing `this`; destroying the manager while
  // the engine still has in-flight work whose completion will fire
  // stream-drain notifications must not touch freed state (the destructor
  // unregisters the observer).
  sim::GpuRuntime gpu(sim::DeviceSpec::test_device());
  auto manager = std::make_unique<StreamManager>(gpu, StreamPolicy::FifoReuse);
  const sim::StreamId s = gpu.create_stream();
  sim::Op op;
  op.kind = sim::OpKind::Kernel;
  op.stream = s;
  op.name = "inflight";
  op.work = 50;
  op.sm_demand = 4;
  op.occupancy = 1.0;
  gpu.engine().enqueue(std::move(op), 0);
  ASSERT_FALSE(gpu.engine().stream_idle(s));

  manager.reset();  // in-flight work outlives the manager
  gpu.synchronize_device();  // drain fires idle notifications: must be safe
  EXPECT_TRUE(gpu.engine().stream_idle(s));
}

TEST(StreamManager, SurvivingManagerStillSeesDrainsAfterPeerDestroyed) {
  // Two managers observe the same engine; destroying one must not detach
  // the other (tokens are per-observer, not global).
  Fixture f;
  auto& ctx = *f.ctx;
  auto doomed =
      std::make_unique<StreamManager>(*f.gpu, StreamPolicy::FifoReuse);
  doomed.reset();

  // The context's own manager keeps reusing idle streams as before.
  auto a = ctx.array<float>(kN, "a");
  launch_init(ctx, a, 1);
  ctx.synchronize();
  launch_init(ctx, a, 2);
  ctx.synchronize();
  EXPECT_EQ(ctx.stats().streams_created, 1);
}

TEST(StreamManager, ChainNeverPaysEvents) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(kN, "x");
  for (int i = 0; i < 6; ++i) launch_init(ctx, x, i);
  EXPECT_EQ(ctx.stats().event_waits, 0);
  EXPECT_EQ(ctx.stats().streams_created, 1);
  ctx.synchronize();
}

TEST(StreamManager, RecycledSlotDoesNotInheritPredecessorsParentStream) {
  // The first-child rule names the child by id: a later computation that
  // lands in the retired first child's slot is the parent's second child
  // and must not take the parent's stream.
  sim::GpuRuntime gpu(sim::DeviceSpec::test_device());
  StreamManager streams(gpu, StreamPolicy::AlwaysNew);
  ComputationPool pool;
  Computation& parent = pool.acquire();
  parent.state = Computation::State::Scheduled;
  parent.device = sim::kDefaultDevice;
  parent.stream = gpu.create_stream();
  auto link = [&](Computation& child) -> Computation& {
    if (parent.first_child < 0) parent.first_child = child.id;
    pool.retain(parent);
    child.parents.push_back(&parent);
    child.device = sim::kDefaultDevice;
    return child;
  };
  Computation& first = link(pool.acquire());
  EXPECT_EQ(streams.acquire(first), parent.stream);  // first child inherits
  pool.finish(first);  // unreferenced: its slot goes on the free list
  Computation& later = link(pool.acquire());
  ASSERT_EQ(&later, &first);
  EXPECT_NE(streams.acquire(later), parent.stream);
}

}  // namespace
}  // namespace psched::rt

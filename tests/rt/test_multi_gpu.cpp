// Multi-GPU runtime scheduling: device placement policies, per-device
// stream pools, residency tracking, and cross-device dependencies
// materializing as peer copies.
#include <gtest/gtest.h>

#include "rt_test_util.hpp"
#include "sim/machine.hpp"

namespace psched::rt {
namespace {

using test::Fixture;

constexpr std::size_t kN = 1 << 16;

sim::Machine two_gpus() {
  return sim::Machine::uniform(sim::DeviceSpec::test_device(), 2,
                               /*nvlink_all_pairs=*/true);
}

long launch_init(Context& ctx, DeviceArray& a, double v) {
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(a, static_cast<long>(a.size()), v);
  return ctx.stats().computations - 1;
}

TEST(MultiGpu, SingleDevicePolicyMatchesSingleGpuSchedule) {
  // Compatibility mode: the same program on a 2-GPU roster with the
  // SingleDevice policy produces the identical virtual schedule as on a
  // 1-GPU machine.
  auto run = [](sim::Machine machine) {
    Options opts;
    opts.device_policy = DevicePolicy::SingleDevice;
    Fixture f(opts, std::move(machine));
    auto& ctx = *f.ctx;
    auto a = ctx.array<float>(kN, "a");
    auto b = ctx.array<float>(kN, "b");
    launch_init(ctx, a, 1);
    launch_init(ctx, b, 2);
    auto add2 = ctx.build_kernel(
        "add2", "const pointer, const pointer, pointer, sint32");
    auto out = ctx.array<float>(kN, "out");
    add2(4, 64)(a, b, out, static_cast<long>(kN));
    ctx.synchronize();
    return f.gpu->timeline().makespan();
  };
  const double single = run(sim::Machine::single(sim::DeviceSpec::test_device()));
  const double dual = run(two_gpus());
  EXPECT_DOUBLE_EQ(single, dual);
}

TEST(MultiGpu, RoundRobinSpreadsIndependentRoots) {
  Options opts;
  opts.device_policy = DevicePolicy::RoundRobin;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto a = ctx.array<float>(kN, "a");
  auto b = ctx.array<float>(kN, "b");
  launch_init(ctx, a, 1);
  launch_init(ctx, b, 2);
  const auto& comps = ctx.dag().vertices();
  EXPECT_EQ(comps[0].device, 0);
  EXPECT_EQ(comps[1].device, 1);
  // Streams live on the devices their computations were placed on.
  EXPECT_EQ(f.gpu->stream_device(comps[0].stream), 0);
  EXPECT_EQ(f.gpu->stream_device(comps[1].stream), 1);
  ctx.synchronize();
  EXPECT_EQ(ctx.stats().devices_used, 2);
  // Residency tracks the writes: each array is fresh only where written.
  EXPECT_TRUE(a.resident_on(0));
  EXPECT_FALSE(a.resident_on(1));
  EXPECT_TRUE(b.resident_on(1));
  EXPECT_FALSE(b.resident_on(0));
}

TEST(MultiGpu, FirstChildInheritsParentsDevice) {
  Options opts;
  opts.device_policy = DevicePolicy::RoundRobin;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(kN, "x");
  launch_init(ctx, x, 1);
  // First consumer of x: inherits device AND stream (no event wait).
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  auto r1 = ctx.array<float>(kN, "r1");
  affine(4, 64)(x, r1, static_cast<long>(kN));
  const auto& comps = ctx.dag().vertices();
  EXPECT_EQ(comps[1].device, comps[0].device);
  EXPECT_EQ(comps[1].stream, comps[0].stream);
  EXPECT_EQ(ctx.stats().event_waits, 0);
  ctx.synchronize();
}

TEST(MultiGpu, CrossDeviceDependencyMaterializesAsP2P) {
  Options opts;
  opts.device_policy = DevicePolicy::RoundRobin;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(kN, "x");
  auto r1 = ctx.array<float>(kN, "r1");
  auto r2 = ctx.array<float>(kN, "r2");
  launch_init(ctx, x, 3);  // device 0 (root, rr cursor 0)
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  // Two consumers of x: the first inherits device 0; the second is a new
  // placement, lands on device 1, and must pull x over the peer link.
  affine(4, 64)(x, r1, static_cast<long>(kN));
  affine(4, 64)(x, r2, static_cast<long>(kN));
  ctx.synchronize();
  const auto& comps = ctx.dag().vertices();
  EXPECT_EQ(comps[1].device, 0);
  EXPECT_EQ(comps[2].device, 1);
  EXPECT_GT(f.gpu->bytes_p2p(), 0.0);
  // x is now fresh on both devices; the outputs only where they ran.
  EXPECT_TRUE(x.resident_on(0));
  EXPECT_TRUE(x.resident_on(1));
  EXPECT_TRUE(r2.resident_on(1));
  EXPECT_FALSE(r2.resident_on(0));
  // The peer copy reads the producer's output: it must not start before
  // the producing kernel (comps[0], on device 0) has finished.
  const sim::Op producer = f.gpu->engine().op(comps[0].op);
  long p2p_entries = 0;
  for (const auto& e : f.gpu->timeline().entries()) {
    if (e.kind == sim::OpKind::CopyP2P) {
      ++p2p_entries;
      EXPECT_EQ(e.device, 1);
      EXPECT_EQ(e.peer, 0);
      EXPECT_GE(e.start, producer.end_time);
    }
  }
  EXPECT_EQ(p2p_entries, 1);
  // Functional result is unaffected by the placement.
  EXPECT_FLOAT_EQ(static_cast<float>(r2.get(7)), 6.0f);
}

TEST(MultiGpu, MinTransferFollowsResidency) {
  Options opts;
  opts.device_policy = DevicePolicy::MinTransfer;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto a = ctx.array<float>(kN, "a");
  auto b = ctx.array<float>(kN, "b");
  launch_init(ctx, a, 1);  // all-equal costs: rr fallback -> device 0
  launch_init(ctx, b, 2);  // -> device 1
  ctx.synchronize();
  ASSERT_EQ(ctx.dag().vertices()[0].device, 0);
  ASSERT_EQ(ctx.dag().vertices()[1].device, 1);

  // A reducer over b alone: b resides on device 1, so min-transfer places
  // it there (zero bytes to move) even though round-robin would not.
  auto sum = ctx.build_kernel("sum", "const pointer, pointer, sint32");
  auto out = ctx.array<float>(16, "out");
  sum(1, 32)(b, out, static_cast<long>(kN));
  EXPECT_EQ(ctx.dag().vertices().back().device, 1);
  ctx.synchronize();
  EXPECT_DOUBLE_EQ(f.gpu->bytes_p2p(), 0.0);  // nothing crossed the links
}

TEST(MultiGpu, HostReadPullsFromOwningDevice) {
  Options opts;
  opts.device_policy = DevicePolicy::RoundRobin;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  auto a = ctx.array<float>(kN, "a");
  auto b = ctx.array<float>(kN, "b");
  launch_init(ctx, a, 4);  // device 0
  launch_init(ctx, b, 9);  // device 1
  // Reading both arrays drains the right devices and yields the values.
  EXPECT_FLOAT_EQ(static_cast<float>(a.get(0)), 4.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(b.get(0)), 9.0f);
  // The D2H for b ran on a device-1 stream.
  bool d2h_from_dev1 = false;
  for (const auto& e : f.gpu->timeline().entries()) {
    if (e.kind == sim::OpKind::CopyD2H && e.device == 1) d2h_from_dev1 = true;
  }
  EXPECT_TRUE(d2h_from_dev1);
}

TEST(MultiGpu, HostWriteInvalidatesAllDeviceCopies) {
  Options opts;
  opts.device_policy = DevicePolicy::RoundRobin;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(kN, "x");
  auto r1 = ctx.array<float>(kN, "r1");
  auto r2 = ctx.array<float>(kN, "r2");
  launch_init(ctx, x, 1);
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  affine(4, 64)(x, r1, static_cast<long>(kN));
  affine(4, 64)(x, r2, static_cast<long>(kN));  // x becomes fresh on both
  ctx.synchronize();
  ASSERT_EQ(x.residency_mask(), 0b11u);
  x.fill(5);  // host write: every device copy is stale now
  EXPECT_EQ(x.residency_mask(), 0u);
}

TEST(MultiGpu, PerDeviceMemoryCountersTrackResidency) {
  Options opts;
  opts.device_policy = DevicePolicy::RoundRobin;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(kN, "x");
  auto r1 = ctx.array<float>(kN, "r1");
  auto r2 = ctx.array<float>(kN, "r2");
  launch_init(ctx, x, 1);  // x materializes on device 0
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  affine(4, 64)(x, r1, static_cast<long>(kN));  // device 0
  affine(4, 64)(x, r2, static_cast<long>(kN));  // device 1: pulls x over P2P
  ctx.synchronize();
  const std::size_t bytes = kN * sizeof(float);
  // Device 0 holds x and r1; device 1 holds the peer copy of x and r2.
  EXPECT_EQ(f.gpu->device_bytes_used(0), 2 * bytes);
  EXPECT_EQ(f.gpu->device_bytes_used(1), 2 * bytes);
  EXPECT_EQ(f.gpu->device_bytes_peak(0), 2 * bytes);
  EXPECT_EQ(f.gpu->device_bytes_peak(1), 2 * bytes);
  // A host write invalidates freshness but the stale pages stay charged
  // until the arrays are freed (unified-memory semantics).
  x.fill(5);
  EXPECT_EQ(f.gpu->device_bytes_used(0), 2 * bytes);
  ctx.free(x);
  EXPECT_EQ(f.gpu->device_bytes_used(0), bytes);
  EXPECT_EQ(f.gpu->device_bytes_used(1), bytes);
}

TEST(MultiGpu, MinPressureSteersAwayFromThrashingDevice) {
  // Thrash tenant 0 on device 0 (working set 2x its capacity, raw
  // runtime launches), then place a fresh root computation under the
  // MinPressure policy: the tenant's own eviction pressure on device 0
  // must push it to device 1 even though round-robin/min-transfer ties
  // would have started at device 0.
  sim::DeviceSpec spec = sim::DeviceSpec::test_device();
  spec.memory_bytes = 1 << 20;  // 1 MiB per device
  sim::GpuRuntime gpu(sim::Machine::uniform(spec, 2, true),
                      /*page_bytes=*/64 << 10);
  const sim::StreamId s0 = gpu.create_stream(0);
  std::vector<sim::ArrayId> ws;
  for (int i = 0; i < 4; ++i) {
    ws.push_back(gpu.alloc(512 << 10, "w" + std::to_string(i)));
    gpu.host_write(ws.back());
  }
  sim::LaunchSpec k;
  k.name = "thrash";
  k.config = sim::LaunchConfig::linear(4, 64);
  k.profile.flops_sp = 1e5;
  for (int round = 0; round < 2; ++round) {
    for (const sim::ArrayId a : ws) {
      k.arrays = {{a, true}};
      gpu.launch(s0, k);
      gpu.synchronize_device();
    }
  }
  ASSERT_GT(gpu.tenant_bytes_evicted(0, 0), 0u);
  ASSERT_EQ(gpu.tenant_bytes_evicted(0, 1), 0u);

  Options opts;
  opts.device_policy = DevicePolicy::MinPressure;
  opts.registry = &test::test_registry();
  Context ctx(gpu, opts);
  ctx.record_dag();
  auto x = ctx.array<float>(1024, "x");
  launch_init(ctx, x, 1.0);
  ctx.synchronize();
  EXPECT_EQ(ctx.dag().vertices().front().device, 1);
}

TEST(MultiGpu, PerDeviceStreamPoolsReuseIndependently) {
  Options opts;
  opts.device_policy = DevicePolicy::RoundRobin;
  Fixture f(opts, two_gpus());
  auto& ctx = *f.ctx;
  auto a = ctx.array<float>(kN, "a");
  auto b = ctx.array<float>(kN, "b");
  launch_init(ctx, a, 1);
  launch_init(ctx, b, 2);
  ctx.synchronize();
  // Both pools drained; the next placements reuse each device's stream
  // instead of creating new ones.
  launch_init(ctx, a, 3);
  launch_init(ctx, b, 4);
  ctx.synchronize();
  EXPECT_EQ(ctx.stats().streams_created, 2);
  EXPECT_EQ(ctx.stream_manager().num_streams(0), 1u);
  EXPECT_EQ(ctx.stream_manager().num_streams(1), 1u);
}

TEST(MultiGpu, RecycledSlotDoesNotInheritPredecessorsParentDevice) {
  // Placement follows the first-child rule too: a computation reusing the
  // retired first child's slot is placed by the policy (round-robin:
  // device 0), not pinned to the parent's device 1.
  sim::GpuRuntime gpu(two_gpus());
  DevicePlacer placer(gpu, DevicePolicy::RoundRobin);
  ComputationPool pool;
  Computation& parent = pool.acquire();
  parent.state = Computation::State::Scheduled;
  parent.device = 1;
  parent.stream = gpu.create_stream(1);
  auto link = [&](Computation& child) -> Computation& {
    if (parent.first_child < 0) parent.first_child = child.id;
    pool.retain(parent);
    child.parents.push_back(&parent);
    return child;
  };
  Computation& first = link(pool.acquire());
  EXPECT_EQ(placer.place(first), 1);  // the first child follows its parent
  pool.finish(first);
  Computation& later = link(pool.acquire());
  ASSERT_EQ(&later, &first);
  EXPECT_EQ(placer.place(later), 0);
}

}  // namespace
}  // namespace psched::rt

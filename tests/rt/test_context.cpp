// Integration tests for the execution context: scheduling behaviour,
// stream assignment, CPU-access synchronization, prefetching, policies.
#include <gtest/gtest.h>

#include "critical_path_oracle.hpp"
#include "rt_test_util.hpp"

namespace psched::rt {
namespace {

using test::Fixture;

TEST(Context, VecPipelineComputesCorrectResult) {
  // The Fig. 4 program: two squares on independent data, then a reduction.
  Fixture f;
  auto& ctx = *f.ctx;
  const std::size_t n = 1000;
  auto x = ctx.array<float>(n, "X");
  auto y = ctx.array<float>(n, "Y");
  auto z = ctx.array<float>(1, "Z");
  x.fill(2.0);
  y.fill(3.0);

  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  auto add2 = ctx.build_kernel("add2", "const pointer, const pointer, pointer, sint32");
  auto sum = ctx.build_kernel("sum", "const pointer, pointer, sint32");

  scale(8, 128)(x, static_cast<long>(n), 2.0);  // x = 2*2+1 = 5
  scale(8, 128)(y, static_cast<long>(n), 3.0);  // y = 3*3+1 = 10
  auto tmp = ctx.array<float>(n, "tmp");
  add2(8, 128)(x, y, tmp, static_cast<long>(n));  // tmp = 15
  sum(8, 128)(tmp, z, static_cast<long>(n));
  EXPECT_DOUBLE_EQ(z.get(0), 15.0 * n);
  EXPECT_EQ(f.gpu->hazard_count(), 0);
}

TEST(Context, IndependentKernelsGetDistinctStreams) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  // Large enough that the first kernel is still busy at the second submit.
  auto x = ctx.array<float>(1 << 16, "X");
  auto y = ctx.array<float>(1 << 16, "Y");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(x, 1L << 16, 1.0);
  init(4, 64)(y, 1L << 16, 2.0);
  const auto& comps = ctx.dag().vertices();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_NE(comps[0].stream, comps[1].stream);
  ctx.synchronize();
}

TEST(Context, FirstChildInheritsParentStream) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  init(4, 64)(x, 256L, 1.0);
  scale(4, 64)(x, 256L, 2.0);  // depends on init -> same stream, no event wait
  const auto& comps = ctx.dag().vertices();
  EXPECT_EQ(comps[0].stream, comps[1].stream);
  EXPECT_EQ(ctx.stats().event_waits, 0);
  ctx.synchronize();
}

TEST(Context, JoinInheritsOneStreamAndWaitsForOther) {
  // VEC shape: K1 and K2 independent; K3 reads both results.
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(1 << 16, "X");
  auto y = ctx.array<float>(1 << 16, "Y");
  auto z = ctx.array<float>(1 << 16, "Z");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  auto add2 =
      ctx.build_kernel("add2", "const pointer, const pointer, pointer, sint32");
  init(4, 64)(x, 1L << 16, 1.0);
  init(4, 64)(y, 1L << 16, 2.0);
  add2(4, 64)(x, y, z, 1L << 16);
  const auto& comps = ctx.dag().vertices();
  ASSERT_EQ(comps.size(), 3u);
  // The join runs on the first parent's stream and waits on exactly one
  // cross-stream event.
  EXPECT_EQ(comps[2].stream, comps[0].stream);
  EXPECT_EQ(ctx.stats().event_waits, 1);
  ctx.synchronize();
}

TEST(Context, ReadOnlySharedInputAllowsConcurrency) {
  // ML-style: two classifiers read the same input matrix.
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(1 << 16, "X");
  auto r1 = ctx.array<float>(1 << 16, "R1");
  auto r2 = ctx.array<float>(1 << 16, "R2");
  x.fill(1.0);
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  affine(4, 64)(x, r1, 1L << 16);
  affine(4, 64)(x, r2, 1L << 16);
  const auto& comps = ctx.dag().vertices();
  EXPECT_NE(comps[0].stream, comps[1].stream);
  EXPECT_EQ(ctx.dag().num_edges(), 0u);  // no dependency through X
  ctx.synchronize();
}

TEST(Context, WithoutConstAnnotationReadersSerialize) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  auto r1 = ctx.array<float>(256, "R1");
  auto r2 = ctx.array<float>(256, "R2");
  // Same kernels, but the signature omits const on the input.
  auto affine = ctx.build_kernel("affine", "pointer, pointer, sint32");
  affine(4, 64)(x, r1, 256L);
  affine(4, 64)(x, r2, 256L);
  EXPECT_EQ(ctx.dag().num_edges(), 1u);  // forced serialization through X
  ctx.synchronize();
}

TEST(Context, HonorReadOnlyAblationFlag) {
  Options opts;
  opts.honor_read_only = false;
  Fixture f(opts);
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  auto r1 = ctx.array<float>(256, "R1");
  auto r2 = ctx.array<float>(256, "R2");
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  affine(4, 64)(x, r1, 256L);
  affine(4, 64)(x, r2, 256L);
  EXPECT_EQ(ctx.dag().num_edges(), 1u);  // const ignored by the ablation
  ctx.synchronize();
}

TEST(Context, CpuReadSyncsOnlyProducingStream) {
  // Section IV-B: "we synchronize only the streams that are currently
  // operating on this data".
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(1 << 16, "X");
  auto y = ctx.array<float>(256, "Y");
  auto slow = ctx.build_kernel("slow", "pointer, sint32");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  slow(16, 256)(x, 1L << 16);   // long-running on stream A
  init(4, 64)(y, 256L, 7.0);    // quick on stream B
  EXPECT_DOUBLE_EQ(y.get(0), 7.0);  // waits only for init
  const auto& comps = ctx.dag().vertices();
  EXPECT_FALSE(f.gpu->engine().op_done(comps[0].op));  // slow still running
  // init retired from the frontier; slow is still active.
  ASSERT_EQ(ctx.active().size(), 1u);
  EXPECT_EQ(ctx.active()[0]->id, comps[0].id);
  ctx.synchronize();
}

TEST(Context, CpuReadOfUntouchedArrayIsImmediate) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(256, "X");
  (void)x.get(0);
  EXPECT_EQ(ctx.stats().immediate_accesses, 1);
  EXPECT_EQ(ctx.stats().host_accesses, 0);
  EXPECT_EQ(ctx.stats().computations, 0);  // not modeled as a DAG element
}

TEST(Context, CpuWriteWaitsForActiveReaders) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(1 << 16, "X");
  x.fill(1.0);
  auto slow = ctx.build_kernel("slow", "const pointer, sint32");
  slow(16, 256)(x, 1L << 16);  // reads X for a long time
  x.fill(2.0);                 // WAR: must wait for the reader
  const auto& comps = ctx.dag().vertices();
  ASSERT_GE(comps.size(), 2u);  // kernel + host-write element
  EXPECT_EQ(comps[1].kind, Computation::Kind::HostWrite);
  EXPECT_TRUE(f.gpu->engine().op_done(comps[0].op));
  EXPECT_EQ(f.gpu->hazard_count(), 0);
  ctx.synchronize();
}

TEST(Context, StreamsReusedAfterSync) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(x, 256L, 1.0);
  ctx.synchronize();
  const auto s0 = ctx.dag().vertices()[0].stream;
  init(4, 64)(x, 256L, 2.0);
  EXPECT_EQ(ctx.dag().vertices()[1].stream, s0);  // FIFO reuse
  EXPECT_EQ(ctx.stats().streams_created, 1);
  ctx.synchronize();
}

TEST(Context, SerialPolicyBlocksAndUsesDefaultStream) {
  Options opts;
  opts.policy = SchedulePolicy::Serial;
  Fixture f(opts);
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  auto y = ctx.array<float>(256, "Y");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(x, 256L, 1.0);
  init(4, 64)(y, 256L, 2.0);
  const auto& comps = ctx.dag().vertices();
  EXPECT_EQ(comps[0].stream, sim::kDefaultStream);
  EXPECT_EQ(comps[1].stream, sim::kDefaultStream);
  // Blocking and untracked: each computation retires at once.
  EXPECT_TRUE(ctx.active().empty());
  EXPECT_EQ(ctx.stats().peak_live_computations, 1);
  EXPECT_EQ(ctx.stats().edges, 0);  // no dependency computation
  EXPECT_EQ(ctx.stats().blocking_syncs, 2);
  EXPECT_EQ(ctx.stats().streams_created, 0);
  // Results are still correct.
  EXPECT_DOUBLE_EQ(x.get(0), 1.0);
  EXPECT_DOUBLE_EQ(y.get(0), 2.0);
}

TEST(Context, SerialAndParallelProduceSameResults) {
  auto run = [](SchedulePolicy p) {
    Options opts;
    opts.policy = p;
    Fixture f(opts);
    auto& ctx = *f.ctx;
    const std::size_t n = 512;
    auto x = ctx.array<float>(n, "X");
    auto y = ctx.array<float>(n, "Y");
    auto z = ctx.array<float>(n, "Z");
    auto init = ctx.build_kernel("init", "pointer, sint32, float");
    auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
    auto add2 = ctx.build_kernel(
        "add2", "const pointer, const pointer, pointer, sint32");
    init(4, 64)(x, static_cast<long>(n), 3.0);
    init(4, 64)(y, static_cast<long>(n), 4.0);
    scale(4, 64)(x, static_cast<long>(n), 2.0);
    scale(4, 64)(y, static_cast<long>(n), 3.0);
    add2(4, 64)(x, y, z, static_cast<long>(n));
    scale(4, 64)(z, static_cast<long>(n), 1.5);
    return z.get(10);
  };
  EXPECT_DOUBLE_EQ(run(SchedulePolicy::Serial),
                   run(SchedulePolicy::Parallel));
}

TEST(Context, PrefetchProducesFullBandwidthCopies) {
  Fixture f;  // test device has page-fault UM; prefetch defaults on
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(1 << 16, "X");
  x.fill(1.0);
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  scale(16, 256)(x, 1L << 16, 2.0);
  ctx.synchronize();
  EXPECT_GT(f.gpu->bytes_h2d(), 0);
  EXPECT_DOUBLE_EQ(f.gpu->bytes_faulted(), 0);
  EXPECT_EQ(ctx.stats().prefetches, 1);
}

TEST(Context, NoPrefetchFallsBackToFaults) {
  Options opts;
  opts.prefetch = false;
  Fixture f(opts);
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(1 << 16, "X");
  x.fill(1.0);
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  scale(16, 256)(x, 1L << 16, 2.0);
  ctx.synchronize();
  EXPECT_DOUBLE_EQ(f.gpu->bytes_h2d(), 0);
  EXPECT_GT(f.gpu->bytes_faulted(), 0);
}

TEST(Context, FreshOutputArraysTransferNothing) {
  // First-touch semantics end-to-end: a pipeline whose intermediates are
  // only ever written by kernels moves exactly the host-initialized input
  // over PCIe — output and scratch buffers materialize on the device.
  Fixture f;
  auto& ctx = *f.ctx;
  constexpr long kN = 1 << 14;
  auto in = ctx.array<float>(static_cast<std::size_t>(kN), "in");
  auto mid = ctx.array<float>(static_cast<std::size_t>(kN), "mid");
  auto out = ctx.array<float>(static_cast<std::size_t>(kN), "out");
  in.fill(2.0);
  auto add2 =
      ctx.build_kernel("add2", "const pointer, const pointer, pointer, sint32");
  add2(16, 256)(in, in, mid, kN);   // mid: device-materialized scratch
  add2(16, 256)(mid, mid, out, kN); // out: device-materialized output
  ctx.synchronize();
  const double moved = f.gpu->bytes_h2d() + f.gpu->bytes_faulted();
  EXPECT_DOUBLE_EQ(moved, static_cast<double>(kN) * sizeof(float));
}

TEST(Context, HostRewriteRearmsMigration) {
  Fixture f;
  auto& ctx = *f.ctx;
  constexpr long kN = 1 << 12;
  auto x = ctx.array<float>(static_cast<std::size_t>(kN), "X");
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  x.fill(1.0);
  scale(16, 256)(x, kN, 2.0);
  ctx.synchronize();
  const double first = f.gpu->bytes_h2d() + f.gpu->bytes_faulted();
  x.fill(3.0);  // streaming pattern: new input data
  scale(16, 256)(x, kN, 2.0);
  ctx.synchronize();
  const double second = f.gpu->bytes_h2d() + f.gpu->bytes_faulted();
  EXPECT_DOUBLE_EQ(second, 2 * first);
}

TEST(Context, PrePascalTransfersAhead) {
  sim::DeviceSpec spec = sim::DeviceSpec::test_device();
  spec.page_fault_um = false;
  Fixture f(Options{}, spec);
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(1 << 16, "X");
  x.fill(1.0);
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  scale(16, 256)(x, 1L << 16, 2.0);
  // Reading the result must not trip the pre-Pascal hazard checks.
  EXPECT_DOUBLE_EQ(x.get(0), 3.0);
  EXPECT_EQ(f.gpu->hazard_count(), 0);
  EXPECT_DOUBLE_EQ(f.gpu->bytes_faulted(), 0);
  EXPECT_GT(f.gpu->bytes_h2d(), 0);
}

TEST(Context, ErrorWrongArgumentCount) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(16, "X");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  EXPECT_THROW(init(1, 32)(x, 16L), sim::ApiError);
  EXPECT_THROW(init(1, 32)(x, 16L, 1.0, 2.0), sim::ApiError);
}

TEST(Context, ErrorArgumentKindMismatch) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(16, "X");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  EXPECT_THROW(init(1, 32)(5L, 16L, 1.0), sim::ApiError);       // scalar->ptr
  EXPECT_THROW(init(1, 32)(x, x, 1.0), sim::ApiError);          // ptr->scalar
}

TEST(Context, ErrorUnknownKernel) {
  Fixture f;
  EXPECT_THROW((void)f.ctx->build_kernel("nope", "pointer"), sim::ApiError);
}

TEST(Context, ErrorNoRegistry) {
  sim::GpuRuntime gpu(sim::DeviceSpec::test_device());
  Context ctx(gpu, Options{});  // no registry configured
  EXPECT_THROW((void)ctx.build_kernel("init", "pointer"), sim::ApiError);
}

TEST(Context, ErrorOversizedBlock) {
  Fixture f;
  auto init = f.ctx->build_kernel("init", "pointer, sint32, float");
  EXPECT_THROW((void)init(1, 2048), sim::ApiError);
  EXPECT_THROW((void)init(0, 128), sim::ApiError);
}

TEST(Context, ErrorUseAfterFree) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(16, "X");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(1, 32)(x, 16L, 1.0);
  ctx.free(x);
  EXPECT_THROW(init(1, 32)(x, 16L, 1.0), sim::ApiError);
  EXPECT_THROW((void)x.get(0), sim::ApiError);
}

TEST(Context, RejectedLaunchRegistersNothing) {
  // A launch rejected for a freed argument is validated away before the
  // context registers anything: no orphan computation, DAG vertex or
  // counter bump survives the ApiError.
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  auto y = ctx.array<float>(256, "Y");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(x, 256L, 1.0);
  ctx.free(x);
  const ContextStats before = ctx.stats();
  const std::size_t vertices = ctx.dag().num_vertices();

  EXPECT_THROW(init(4, 64)(x, 256L, 2.0), sim::ApiError);
  const ContextStats after = ctx.stats();
  EXPECT_EQ(after.computations, before.computations);
  EXPECT_EQ(after.kernels, before.kernels);
  EXPECT_EQ(after.edges, before.edges);
  EXPECT_EQ(ctx.dag().num_vertices(), vertices);
  EXPECT_EQ(static_cast<std::size_t>(after.computations), vertices);
  ctx.audit();

  // The context carries on normally.
  init(4, 64)(y, 256L, 3.0);
  EXPECT_EQ(ctx.stats().kernels, before.kernels + 1);
  EXPECT_EQ(ctx.dag().num_vertices(), vertices + 1);
  ctx.synchronize();
  EXPECT_TRUE(ctx.active().empty());
  ctx.audit();
  EXPECT_DOUBLE_EQ(y.get(0), 3.0);
  EXPECT_EQ(f.gpu->hazard_count(), 0);
}

TEST(Context, LaunchTheRuntimeRejectsKeepsOrderingOnEarlierWork) {
  // W writes X; R writes X and reads an array too big for the device, so
  // the runtime rejects it after the context wired its dependencies; K
  // reads X. R displaced W as X's writer, so K must still be ordered after
  // W: R stays in the frontier on the stream it acquired and K inherits it.
  sim::DeviceSpec spec = sim::DeviceSpec::test_device();
  spec.memory_bytes = 1 << 20;
  Options opts;
  opts.functional = false;
  Fixture f(opts, spec);
  auto& ctx = *f.ctx;
  ctx.record_dag();
  const long n = 1 << 14;
  auto x = ctx.array<float>(n, "X");
  auto y = ctx.array<float>(n, "Y");
  auto big = ctx.array<float>((3 << 20) / 8, "big");  // 1.5 MiB
  auto slow = ctx.build_kernel("slow", "pointer, sint32");
  auto affine = ctx.build_kernel("affine", "const pointer, pointer, sint32");
  slow(4, 64)(x, n);                                                // W
  EXPECT_THROW(affine(4, 64)(big, x, n), sim::OutOfMemoryError);  // R
  ctx.audit();
  affine(4, 64)(x, y, n);                                           // K
  ctx.audit();
  ctx.synchronize();
  ctx.audit();
  EXPECT_EQ(f.gpu->hazard_count(), 0);
  // The rejected launch keeps its vertex: ids stay contiguous, and the
  // contention-free path runs W -> R -> K with R at zero cost.
  const DagRecorder& dag = ctx.dag();
  ASSERT_EQ(dag.num_vertices(), 3u);
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_TRUE(dag.has_edge(1, 2));
  EXPECT_EQ(dag.vertices()[1].solo_us, 0);
  EXPECT_EQ(dag.vertices()[2].stream, dag.vertices()[0].stream);
  const double pcie = f.gpu->spec().pcie_bytes_per_us();
  EXPECT_EQ(dag.critical_path_us(pcie),
            test::reference_critical_path_us(dag, pcie));
}

TEST(Context, FreeWaitsForInFlightWork) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(1 << 16, "X");
  auto slow = ctx.build_kernel("slow", "pointer, sint32");
  slow(16, 256)(x, 1L << 16);
  EXPECT_NO_THROW(ctx.free(x));  // waits, then frees
  EXPECT_EQ(f.gpu->hazard_count(), 0);
}

TEST(Context, BuildKernelWithSourceStringIsAccepted) {
  Fixture f;
  auto k = f.ctx->build_kernel("__global__ void init(...) {}", "init",
                               "pointer, sint32, float");
  EXPECT_EQ(k.name(), "init");
}

TEST(Context, ScalarsNeverCreateDependencies) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  auto y = ctx.array<float>(256, "Y");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(x, 256L, 1.0);
  init(4, 64)(y, 256L, 1.0);  // same scalar values: still independent
  EXPECT_EQ(ctx.dag().num_edges(), 0u);
  ctx.synchronize();
}

TEST(Context, StatsCountKernelsAndComputations) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(256, "X");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(x, 256L, 1.0);
  init(4, 64)(x, 256L, 2.0);
  (void)x.get(0);
  const auto s = ctx.stats();
  EXPECT_EQ(s.kernels, 2);
  EXPECT_EQ(s.host_accesses, 1);       // the read had a dependency
  EXPECT_EQ(s.computations, 3);        // 2 kernels + host read element
  EXPECT_EQ(s.edges, 2);               // WAW + read-after-write
}

TEST(Context, SynchronizeRetiresEverything) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(256, "X");
  auto y = ctx.array<float>(256, "Y");
  auto init = ctx.build_kernel("init", "pointer, sint32, float");
  init(4, 64)(x, 256L, 1.0);
  init(4, 64)(y, 256L, 1.0);
  init(4, 64)(x, 256L, 2.0);
  ASSERT_EQ(ctx.active().size(), 3u);
  ctx.synchronize();
  EXPECT_TRUE(ctx.active().empty());
  EXPECT_EQ(ctx.stats().peak_live_computations, 3);
  // The overwritten first launch is finished and no longer tracked: the
  // audit fails unless it retired.
  ctx.audit();
}

TEST(Context, LibraryFunctionStreamAwareIsScheduled) {
  Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
  auto x = ctx.array<float>(256, "X");
  LibraryFunctionDef def;
  def.name = "saxpy_lib";
  def.params = parse_nidl("pointer");
  def.stream_aware = true;
  def.cost_fn = [](const ArgsView& a) {
    return test::linear_cost(a.array_len(0), 2, 8);
  };
  def.host_fn = [](const ArgsView& a) {
    for (auto& v : a.span<float>(0)) v += 1.0f;
  };
  auto fn = ctx.bind_library(def);
  x.fill(1.0);
  fn(x);
  fn(x);
  EXPECT_EQ(ctx.stats().library_calls, 2);
  EXPECT_EQ(ctx.dag().num_edges(), 1u);  // WAW chain between the two calls
  EXPECT_DOUBLE_EQ(x.get(0), 3.0);
}

TEST(Context, LibraryFunctionWithoutStreamsIsSynchronous) {
  Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(256, "X");
  LibraryFunctionDef def;
  def.name = "host_lib";
  def.params = parse_nidl("pointer");
  def.stream_aware = false;
  def.host_duration_us = [](const ArgsView&) { return 50.0; };
  def.host_fn = [](const ArgsView& a) {
    for (auto& v : a.span<float>(0)) v = 9.0f;
  };
  auto fn = ctx.bind_library(def);
  const auto t0 = f.gpu->now();
  fn(x);
  EXPECT_GE(f.gpu->now() - t0, 50.0);  // host-side duration charged
  EXPECT_DOUBLE_EQ(x.get(0), 9.0);
  // Synchronous: not a DAG element with a stream.
  EXPECT_EQ(ctx.stats().edges, 0);
}

TEST(Context, TenantedContextsShareOneRuntimeWithAttribution) {
  // Two app contexts — distinct tenants — interleave on one GpuRuntime:
  // each context's streams and arrays carry its tenant, completed work
  // is attributed per tenant, and the functional results are unaffected
  // by the sharing.
  sim::GpuRuntime gpu(sim::DeviceSpec::test_device());
  Options opts_a;
  opts_a.registry = &test::test_registry();
  opts_a.tenant = 1;
  Options opts_b = opts_a;
  opts_b.tenant = 2;
  Context ctx_a(gpu, opts_a);
  Context ctx_b(gpu, opts_b);

  const std::size_t n = 1 << 12;
  auto xa = ctx_a.array<float>(n, "xa");
  auto xb = ctx_b.array<float>(n, "xb");
  EXPECT_EQ(gpu.memory().info(xa.state()->sim_id).owner, 1);
  EXPECT_EQ(gpu.memory().info(xb.state()->sim_id).owner, 2);

  auto init_a = ctx_a.build_kernel("init", "pointer, sint32, float");
  auto init_b = ctx_b.build_kernel("init", "pointer, sint32, float");
  init_a(4, 64)(xa, static_cast<long>(n), 2.0);
  init_b(4, 64)(xb, static_cast<long>(n), 3.0);
  init_a(4, 64)(xa, static_cast<long>(n), 5.0);
  ctx_a.synchronize();
  ctx_b.synchronize();

  EXPECT_DOUBLE_EQ(xa.get(0), 5.0);
  EXPECT_DOUBLE_EQ(xb.get(0), 3.0);
  // Streams created on each context's behalf carry its tenant.
  for (const sim::StreamId s : ctx_a.stream_manager().streams()) {
    EXPECT_EQ(gpu.engine().stream_tenant(s), 1);
  }
  for (const sim::StreamId s : ctx_b.stream_manager().streams()) {
    EXPECT_EQ(gpu.engine().stream_tenant(s), 2);
  }
  // Each tenant's kernels PLUS its own get(0) read-back (host-initiated
  // D2H rides the reading tenant's service stream, not a shared system
  // stream): 2 kernels + 1 read for tenant 1, 1 + 1 for tenant 2.
  EXPECT_EQ(gpu.engine().tenant_completed_ops(1), 3);
  EXPECT_EQ(gpu.engine().tenant_completed_ops(2), 2);
  // Nothing — neither ops nor kernel work — lands on the default tenant.
  EXPECT_EQ(gpu.engine().tenant_completed_ops(0), 0);
  EXPECT_DOUBLE_EQ(gpu.engine().tenant_completed_work(0), 0.0);
}

}  // namespace
}  // namespace psched::rt

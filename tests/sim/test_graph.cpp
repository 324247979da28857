#include <gtest/gtest.h>

#include <map>

#include "sim/graph.hpp"
#include "sim/runtime.hpp"

namespace psched::sim {
namespace {

LaunchSpec kernel_spec(const std::string& name, std::vector<ArrayUse> arrays,
                       double flops_sp = 1e6) {
  LaunchSpec s;
  s.name = name;
  s.config = LaunchConfig::linear(16, 256);
  s.profile.flops_sp = flops_sp;
  s.arrays = std::move(arrays);
  return s;
}

std::map<std::string, TimelineEntry> kernels_by_name(const Timeline& t) {
  std::map<std::string, TimelineEntry> m;
  for (const auto& e : t.entries()) {
    if (e.kind == OpKind::Kernel) m[e.name] = e;
  }
  return m;
}

class GraphTest : public ::testing::Test {
 protected:
  GpuRuntime rt_{DeviceSpec::test_device()};
};

TEST_F(GraphTest, ManualDiamondRespectsDependencies) {
  const ArrayId a = rt_.alloc(1000, "a");
  TaskGraph g;
  const auto root = g.add_kernel(kernel_spec("root", {{a, true}}));
  const auto left = g.add_kernel(kernel_spec("left", {{a, false}}));
  const auto right = g.add_kernel(kernel_spec("right", {{a, false}}));
  const auto join = g.add_kernel(kernel_spec("join", {{a, true}}));
  g.add_dependency(root, left);
  g.add_dependency(root, right);
  g.add_dependency(left, join);
  g.add_dependency(right, join);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);

  auto exec = g.instantiate(rt_);
  exec.launch(rt_);
  rt_.synchronize_device();

  const auto k = kernels_by_name(rt_.timeline());
  ASSERT_EQ(k.size(), 4u);
  EXPECT_GE(k.at("left").start, k.at("root").end);
  EXPECT_GE(k.at("right").start, k.at("root").end);
  EXPECT_GE(k.at("join").start, k.at("left").end);
  EXPECT_GE(k.at("join").start, k.at("right").end);
}

TEST_F(GraphTest, IndependentBranchesUseDistinctStreams) {
  const ArrayId a = rt_.alloc(1000, "a");
  const ArrayId b = rt_.alloc(1000, "b");
  TaskGraph g;
  const auto k1 = g.add_kernel(kernel_spec("k1", {{a, true}}));
  const auto k2 = g.add_kernel(kernel_spec("k2", {{b, true}}));
  auto exec = g.instantiate(rt_);
  EXPECT_NE(exec.stream_of(k1), exec.stream_of(k2));
  EXPECT_EQ(exec.num_streams_used(), 2u);
}

TEST_F(GraphTest, ChainStaysOnOneStream) {
  const ArrayId a = rt_.alloc(1000, "a");
  TaskGraph g;
  const auto k1 = g.add_kernel(kernel_spec("k1", {{a, true}}));
  const auto k2 = g.add_kernel(kernel_spec("k2", {{a, true}}));
  const auto k3 = g.add_kernel(kernel_spec("k3", {{a, true}}));
  g.add_dependency(k1, k2);
  g.add_dependency(k2, k3);
  auto exec = g.instantiate(rt_);
  EXPECT_EQ(exec.stream_of(k1), exec.stream_of(k2));
  EXPECT_EQ(exec.stream_of(k2), exec.stream_of(k3));
  EXPECT_EQ(exec.num_streams_used(), 1u);
}

TEST_F(GraphTest, CycleDetected) {
  const ArrayId a = rt_.alloc(1000, "a");
  TaskGraph g;
  const auto k1 = g.add_kernel(kernel_spec("k1", {{a, true}}));
  const auto k2 = g.add_kernel(kernel_spec("k2", {{a, true}}));
  g.add_dependency(k1, k2);
  g.add_dependency(k2, k1);
  EXPECT_THROW((void)g.instantiate(rt_), ApiError);
}

TEST_F(GraphTest, BadEdgeArgumentsThrow) {
  TaskGraph g;
  const auto k1 = g.add_empty("n");
  EXPECT_THROW(g.add_dependency(k1, k1), ApiError);
  EXPECT_THROW(g.add_dependency(k1, 99), ApiError);
  EXPECT_THROW(g.add_dependency(-1, k1), ApiError);
}

TEST_F(GraphTest, DuplicateEdgeIgnored) {
  TaskGraph g;
  const auto k1 = g.add_empty("a");
  const auto k2 = g.add_empty("b");
  g.add_dependency(k1, k2);
  g.add_dependency(k1, k2);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST_F(GraphTest, RepeatedLaunchReplaysKernels) {
  const ArrayId a = rt_.alloc(1000, "a");
  TaskGraph g;
  g.add_kernel(kernel_spec("k", {{a, true}}));
  auto exec = g.instantiate(rt_);
  exec.launch(rt_);
  rt_.synchronize_device();
  exec.launch(rt_);
  rt_.synchronize_device();
  int kernel_count = 0;
  for (const auto& e : rt_.timeline().entries()) {
    if (e.kind == OpKind::Kernel) ++kernel_count;
  }
  EXPECT_EQ(kernel_count, 2);
}

TEST_F(GraphTest, InstantiationChargesHostTime) {
  TaskGraph g;
  g.add_empty("n1");
  g.add_empty("n2");
  const TimeUs before = rt_.now();
  (void)g.instantiate(rt_);
  EXPECT_DOUBLE_EQ(rt_.now() - before,
                   TaskGraph::kInstantiateBaseUs +
                       2 * TaskGraph::kInstantiatePerNodeUs);
}

TEST_F(GraphTest, CaptureRecordsStreamOrder) {
  const ArrayId a = rt_.alloc(1000, "a");
  TaskGraph g;
  rt_.begin_capture(g);
  EXPECT_TRUE(rt_.capturing());
  rt_.launch(kDefaultStream, kernel_spec("k1", {{a, true}}));
  rt_.launch(kDefaultStream, kernel_spec("k2", {{a, true}}));
  rt_.end_capture();
  EXPECT_FALSE(rt_.capturing());
  // Nothing executed during capture.
  EXPECT_TRUE(rt_.timeline().empty());
  ASSERT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);  // same-stream issue order edge
}

TEST_F(GraphTest, CaptureRecordsCrossStreamEvents) {
  const StreamId s1 = rt_.create_stream();
  const StreamId s2 = rt_.create_stream();
  const EventId ev = rt_.create_event();
  const ArrayId a = rt_.alloc(1000, "a");
  const ArrayId b = rt_.alloc(1000, "b");

  TaskGraph g;
  rt_.begin_capture(g);
  rt_.launch(s1, kernel_spec("k1", {{a, true}}));
  rt_.record_event(ev, s1);
  rt_.stream_wait_event(s2, ev);
  rt_.launch(s2, kernel_spec("k2", {{b, true}}));
  rt_.end_capture();

  // Replaying must order k2 after k1.
  auto exec = g.instantiate(rt_);
  exec.launch(rt_);
  rt_.synchronize_device();
  const auto k = kernels_by_name(rt_.timeline());
  EXPECT_GE(k.at("k2").start, k.at("k1").end);
}

TEST_F(GraphTest, CaptureDropsPrefetch) {
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.host_write(a);
  TaskGraph g;
  rt_.begin_capture(g);
  rt_.mem_prefetch_async(a, kDefaultStream);
  rt_.launch(kDefaultStream, kernel_spec("k", {{a, false}}));
  rt_.end_capture();
  EXPECT_TRUE(g.prefetch_dropped());
  ASSERT_EQ(g.num_nodes(), 1u);  // only the kernel

  // Replay: data migrates over the fault path instead.
  auto exec = g.instantiate(rt_);
  exec.launch(rt_);
  rt_.synchronize_device();
  EXPECT_GT(rt_.bytes_faulted(), 0);
  EXPECT_DOUBLE_EQ(rt_.bytes_h2d(), 0);
}

TEST_F(GraphTest, CaptureKeepsExplicitCopies) {
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.host_write(a);
  TaskGraph g;
  rt_.begin_capture(g);
  rt_.memcpy_h2d_async(a, kDefaultStream);
  rt_.launch(kDefaultStream, kernel_spec("k", {{a, false}}));
  rt_.end_capture();
  ASSERT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);

  auto exec = g.instantiate(rt_);
  exec.launch(rt_);
  rt_.synchronize_device();
  EXPECT_DOUBLE_EQ(rt_.bytes_h2d(), 10000);
  EXPECT_DOUBLE_EQ(rt_.bytes_faulted(), 0);
}

TEST_F(GraphTest, WaitOnEventOutsideCaptureThrows) {
  TaskGraph g;
  const EventId ev = rt_.create_event();
  rt_.begin_capture(g);
  EXPECT_THROW(rt_.stream_wait_event(kDefaultStream, ev), ApiError);
  rt_.end_capture();
}

TEST_F(GraphTest, NestedCaptureThrows) {
  TaskGraph g1, g2;
  rt_.begin_capture(g1);
  EXPECT_THROW(rt_.begin_capture(g2), ApiError);
  rt_.end_capture();
  EXPECT_THROW(rt_.end_capture(), ApiError);
}

}  // namespace
}  // namespace psched::sim

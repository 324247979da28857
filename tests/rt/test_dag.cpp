#include <gtest/gtest.h>

#include "runtime/dag.hpp"
#include "rt_test_util.hpp"

namespace psched::rt {
namespace {

Computation make_comp(long id, const std::string& label, double solo_us = 10,
                      double bytes = 0) {
  Computation c;
  c.id = id;
  c.label = label;
  c.solo_us = solo_us;
  c.transfer_bytes = bytes;
  return c;
}

TEST(Dag, VerticesAndEdges) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a"));
  dag.add_vertex(make_comp(1, "b"));
  dag.add_edge(0, 1);
  EXPECT_EQ(dag.num_vertices(), 2u);
  EXPECT_EQ(dag.num_edges(), 1u);
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_FALSE(dag.has_edge(1, 0));
}

TEST(Dag, RejectsNonContiguousIds) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a"));
  EXPECT_THROW(dag.add_vertex(make_comp(5, "x")), sim::ApiError);
}

TEST(Dag, RejectsBadEdges) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a"));
  dag.add_vertex(make_comp(1, "b"));
  EXPECT_THROW(dag.add_edge(1, 0), sim::ApiError);  // order violation
  EXPECT_THROW(dag.add_edge(0, 7), sim::ApiError);
  EXPECT_THROW(dag.add_edge(-1, 1), sim::ApiError);
}

TEST(Dag, CriticalPathChain) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 10));
  dag.add_vertex(make_comp(1, "b", 20));
  dag.add_vertex(make_comp(2, "c", 5));
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 35);
}

TEST(Dag, CriticalPathDiamondTakesLongerBranch) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "root", 10));
  dag.add_vertex(make_comp(1, "fast", 5));
  dag.add_vertex(make_comp(2, "slow", 50));
  dag.add_vertex(make_comp(3, "join", 10));
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 70);  // 10 + 50 + 10
}

TEST(Dag, CriticalPathIndependentTakesMax) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 10));
  dag.add_vertex(make_comp(1, "b", 90));
  dag.add_vertex(make_comp(2, "c", 30));
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 90);
}

TEST(Dag, CriticalPathIncludesTransfers) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 10, /*bytes=*/1e4));
  // 1e4 bytes at 1e4 bytes/us adds 1us.
  EXPECT_DOUBLE_EQ(dag.critical_path_us(1e4), 11);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 10);  // transfers ignored
}

TEST(Dag, HostBarrierAccumulatesEpochs) {
  // Host-serialized iterations cannot overlap even on unlimited hardware:
  // the bound sums per-epoch critical paths.
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "it0", 10));
  dag.host_barrier();  // blocking read between iterations
  dag.add_vertex(make_comp(1, "it1", 10));
  dag.host_barrier();
  dag.add_vertex(make_comp(2, "it2", 10));
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 30);
}

TEST(Dag, BarrierFloorsOnlyLaterEpochs) {
  // Two parallel branches in epoch 0 (max 50), then a barrier, then a
  // 10us vertex: bound = 50 + 10, not 50 + 50.
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "a", 50));
  dag.add_vertex(make_comp(1, "b", 20));
  dag.host_barrier();
  dag.add_vertex(make_comp(2, "c", 10));
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 60);
}

TEST(Dag, EdgesAcrossEpochsStillRelax) {
  // A dependency edge spanning a barrier dominates when it is longer than
  // the barrier floor.
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "long", 100));
  dag.add_vertex(make_comp(1, "short", 1));
  dag.host_barrier();
  dag.add_vertex(make_comp(2, "child", 5));
  dag.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 105);
}

TEST(Dag, WideFanInAcrossEpochsIgnoresEdgeOrder) {
  // Epoch 0: one 20us head. Epoch 1: a 10us root fans out to 64 leaves
  // whose costs are a permutation of 1..64us, and all 64 fan back in to a
  // 7us sink, which also depends on the head. Edges are recorded sink
  // fan-in first (descending leaf ids), then the fan-out, then the
  // cross-epoch edge. By hand: root = 20 + 10 = 30, the 64us leaf
  // finishes at 94, sink = 94 + 7 = 101.
  constexpr long kLeaves = 64;
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "head", 20));
  dag.host_barrier();
  dag.add_vertex(make_comp(1, "root", 10));
  for (long i = 0; i < kLeaves; ++i) {
    const double cost = static_cast<double>((i * 37) % kLeaves + 1);
    dag.add_vertex(make_comp(2 + i, "leaf", cost));
  }
  const long sink = 2 + kLeaves;
  dag.add_vertex(make_comp(sink, "sink", 7));
  for (long i = kLeaves - 1; i >= 0; --i) dag.add_edge(2 + i, sink);
  for (long i = 0; i < kLeaves; ++i) dag.add_edge(1, 2 + i);
  dag.add_edge(0, sink);
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 101);
}

TEST(Dag, BarrierWithNoLaterWorkIsHarmless) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "only", 7));
  dag.host_barrier();
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 7);
}

TEST(Dag, DotExportContainsStructure) {
  DagRecorder dag;
  dag.add_vertex(make_comp(0, "square"));
  dag.add_vertex(make_comp(1, "reduce"));
  dag.add_edge(0, 1);
  const std::string dot = dag.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("square"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Dag, ContextProducesFig4Dag) {
  // End-to-end: the VEC program of Fig. 4 yields the expected DAG.
  test::Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(256, "X");
  auto y = ctx.array<float>(256, "Y");
  auto z = ctx.array<float>(1, "Z");
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  auto sum = ctx.build_kernel("sum", "const pointer, pointer, sint32");
  scale(4, 64)(x, 256L, 1.0);  // K1(X)
  scale(4, 64)(y, 256L, 1.0);  // K1(Y)
  // K2(X, Y, Z): model with two reads and one write via two kernels —
  // use add2-like dependency through both.
  auto add2 =
      ctx.build_kernel("add2", "const pointer, const pointer, pointer, sint32");
  auto t = ctx.array<float>(256, "T");
  add2(4, 64)(x, y, t, 256L);
  sum(4, 64)(t, z, 256L);
  (void)z.get(0);

  const auto& dag = ctx.dag();
  // Vertices: 4 kernels + 1 host read element.
  EXPECT_EQ(dag.num_vertices(), 5u);
  EXPECT_TRUE(dag.has_edge(0, 2));  // K1(X) -> K2
  EXPECT_TRUE(dag.has_edge(1, 2));  // K1(Y) -> K2
  EXPECT_TRUE(dag.has_edge(2, 3));  // K2 -> sum
  EXPECT_TRUE(dag.has_edge(3, 4));  // sum -> host read of Z
  EXPECT_FALSE(dag.has_edge(0, 1));
  EXPECT_EQ(dag.num_edges(), 4u);
}

}  // namespace
}  // namespace psched::rt

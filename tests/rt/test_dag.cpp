#include <gtest/gtest.h>

#include <deque>

#include "critical_path_oracle.hpp"
#include "runtime/dag.hpp"
#include "rt_test_util.hpp"

namespace psched::rt {
namespace {

/// Hand-built computations in registration order (ids 0, 1, ...). Each
/// is handed to the recorder with add() once its parents are wired.
class Graph {
 public:
  Computation& node(const char* name, double solo_us = 10,
                    double bytes = 0) {
    Computation& c = comps_.emplace_back();
    c.id = static_cast<long>(comps_.size()) - 1;
    c.name = name;
    c.solo_us = solo_us;
    c.transfer_bytes = bytes;
    return c;
  }
  static void edge(Computation& from, Computation& to) {
    to.parents.push_back(&from);
  }

 private:
  std::deque<Computation> comps_;
};

/// The online bound, checked against the offline reference pass over the
/// same recorder's history.
double checked_critical_path(const DagRecorder& dag) {
  const double online = dag.critical_path_us(dag.pcie_bytes_per_us());
  EXPECT_EQ(online,
            test::reference_critical_path_us(dag, dag.pcie_bytes_per_us()));
  return online;
}

TEST(Dag, VerticesAndEdges) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  Computation& a = g.node("a");
  Computation& b = g.node("b");
  Graph::edge(a, b);
  dag.add(a);
  dag.add(b);
  EXPECT_EQ(dag.num_vertices(), 2u);
  EXPECT_EQ(dag.num_edges(), 1u);
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_FALSE(dag.has_edge(1, 0));
}

TEST(Dag, RejectsNonContiguousIds) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  dag.add(g.node("a"));
  Computation x;
  x.id = 5;
  EXPECT_THROW(dag.add(x), sim::ApiError);
}

TEST(Dag, RejectsBadEdges) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  Computation& a = g.node("a");
  Computation& b = g.node("b");
  Graph::edge(b, a);
  EXPECT_THROW(dag.add(a), sim::ApiError);  // order violation
  a.parents.clear();
  dag.add(a);
  Computation unregistered;  // id -1: never registered (or retired)
  Graph::edge(unregistered, b);
  EXPECT_THROW(dag.add(b), sim::ApiError);
  EXPECT_EQ(dag.num_vertices(), 1u);
}

TEST(Dag, HistoryIsOptIn) {
  DagRecorder dag;
  Graph g;
  dag.add(g.node("a", 10));
  EXPECT_DOUBLE_EQ(dag.critical_path_us(0), 10);
  EXPECT_THROW((void)dag.num_vertices(), sim::ApiError);
  EXPECT_THROW((void)dag.to_dot(), sim::ApiError);
  EXPECT_THROW(dag.record_history(), sim::ApiError);  // too late
}

TEST(Dag, CriticalPathChain) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  Computation& a = g.node("a", 10);
  Computation& b = g.node("b", 20);
  Computation& c = g.node("c", 5);
  Graph::edge(a, b);
  Graph::edge(b, c);
  for (Computation* v : {&a, &b, &c}) dag.add(*v);
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 35);
  EXPECT_DOUBLE_EQ(c.path_finish_us, 35);
}

TEST(Dag, CriticalPathDiamondTakesLongerBranch) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  Computation& root = g.node("root", 10);
  Computation& fast = g.node("fast", 5);
  Computation& slow = g.node("slow", 50);
  Computation& join = g.node("join", 10);
  Graph::edge(root, fast);
  Graph::edge(root, slow);
  Graph::edge(fast, join);
  Graph::edge(slow, join);
  for (Computation* v : {&root, &fast, &slow, &join}) dag.add(*v);
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 70);  // 10 + 50 + 10
}

TEST(Dag, CriticalPathIndependentTakesMax) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  dag.add(g.node("a", 10));
  dag.add(g.node("b", 90));
  dag.add(g.node("c", 30));
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 90);
}

TEST(Dag, CriticalPathIncludesTransfers) {
  // One recorder per rate: the bound is kept at the rate bound at
  // construction, and a query at any other rate is an error.
  DagRecorder at_pcie(1e4);
  at_pcie.record_history();
  Graph g;
  at_pcie.add(g.node("a", 10, /*bytes=*/1e4));
  // 1e4 bytes at 1e4 bytes/us adds 1us.
  EXPECT_DOUBLE_EQ(checked_critical_path(at_pcie), 11);
  EXPECT_THROW((void)at_pcie.critical_path_us(0), sim::ApiError);

  DagRecorder no_transfers(0);
  no_transfers.record_history();
  Graph h;
  no_transfers.add(h.node("a", 10, /*bytes=*/1e4));
  EXPECT_DOUBLE_EQ(checked_critical_path(no_transfers), 10);
  EXPECT_THROW((void)no_transfers.critical_path_us(1e4), sim::ApiError);
}

TEST(Dag, HostBarrierAccumulatesEpochs) {
  // Host-serialized iterations cannot overlap even on unlimited hardware:
  // the bound sums per-epoch critical paths.
  DagRecorder dag;
  dag.record_history();
  Graph g;
  dag.add(g.node("it0", 10));
  dag.host_barrier();  // blocking read between iterations
  dag.add(g.node("it1", 10));
  dag.host_barrier();
  dag.add(g.node("it2", 10));
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 30);
}

TEST(Dag, BarrierFloorsOnlyLaterEpochs) {
  // Two parallel branches in epoch 0 (max 50), then a barrier, then a
  // 10us vertex: bound = 50 + 10, not 50 + 50.
  DagRecorder dag;
  dag.record_history();
  Graph g;
  dag.add(g.node("a", 50));
  dag.add(g.node("b", 20));
  dag.host_barrier();
  dag.add(g.node("c", 10));
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 60);
}

TEST(Dag, EdgesAcrossEpochsStillRelax) {
  // A dependency edge spanning a barrier dominates when it is longer than
  // the barrier floor.
  DagRecorder dag;
  dag.record_history();
  Graph g;
  Computation& lng = g.node("long", 100);
  dag.add(lng);
  dag.add(g.node("short", 1));
  dag.host_barrier();
  Computation& child = g.node("child", 5);
  Graph::edge(lng, child);
  dag.add(child);
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 105);
}

TEST(Dag, WideFanInAcrossEpochsIgnoresEdgeOrder) {
  // Epoch 0: one 20us head. Epoch 1: a 10us root fans out to 64 leaves
  // whose costs are a permutation of 1..64us, and all 64 fan back in to a
  // 7us sink, which also depends on the head. The sink's parents are
  // wired fan-in first (descending leaf ids), then the cross-epoch edge.
  // By hand: root = 20 + 10 = 30, the 64us leaf finishes at 94, sink =
  // 94 + 7 = 101.
  constexpr long kLeaves = 64;
  DagRecorder dag;
  dag.record_history();
  Graph g;
  Computation& head = g.node("head", 20);
  dag.add(head);
  dag.host_barrier();
  Computation& root = g.node("root", 10);
  dag.add(root);
  std::vector<Computation*> leaves;
  for (long i = 0; i < kLeaves; ++i) {
    const double cost = static_cast<double>((i * 37) % kLeaves + 1);
    leaves.push_back(&g.node("leaf", cost));
    Graph::edge(root, *leaves.back());
    dag.add(*leaves.back());
  }
  Computation& sink = g.node("sink", 7);
  for (long i = kLeaves - 1; i >= 0; --i) {
    Graph::edge(*leaves[static_cast<std::size_t>(i)], sink);
  }
  Graph::edge(head, sink);
  dag.add(sink);
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 101);
}

TEST(Dag, BarrierWithNoLaterWorkIsHarmless) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  dag.add(g.node("only", 7));
  dag.host_barrier();
  EXPECT_DOUBLE_EQ(checked_critical_path(dag), 7);
}

TEST(Dag, DotExportContainsStructure) {
  DagRecorder dag;
  dag.record_history();
  Graph g;
  Computation& square = g.node("square");
  Computation& reduce = g.node("reduce");
  Graph::edge(square, reduce);
  dag.add(square);
  dag.add(reduce);
  const std::string dot = dag.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("square"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Dag, ContextProducesFig4Dag) {
  // End-to-end: the VEC program of Fig. 4 yields the expected DAG.
  test::Fixture f;
  auto& ctx = *f.ctx;
  ctx.record_dag();
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
  EXPECT_EQ(dag.vertices()[2].label, "add2");
  EXPECT_EQ(dag.vertices()[4].label, "read:Z");
  // The host read of Z waited for the op that computed it.
  EXPECT_TRUE(f.gpu->engine().op_done(dag.vertices()[3].op));
  const double pcie = f.gpu->spec().pcie_bytes_per_us();
  EXPECT_EQ(dag.critical_path_us(pcie),
            test::reference_critical_path_us(dag, pcie));
}

TEST(Dag, PlainContextKeepsNoHistory) {
  test::Fixture f;
  auto& ctx = *f.ctx;
  auto x = ctx.array<float>(256, "X");
  auto scale = ctx.build_kernel("scale", "pointer, sint32, float");
  scale(4, 64)(x, 256L, 1.0);
  (void)x.get(0);
  EXPECT_THROW((void)ctx.dag().num_vertices(), sim::ApiError);
  EXPECT_THROW(ctx.record_dag(), sim::ApiError);  // after registration
  EXPECT_GT(ctx.dag().critical_path_us(f.gpu->spec().pcie_bytes_per_us()),
            0);
}

}  // namespace
}  // namespace psched::rt

// Physical soundness and byte efficiency of planner-driven paging.
//
// The residency planner decides at issue time; these tests check what the
// engine then ran. The physical-order checker (paging_checker.hpp) replays
// each scenario's residency decisions against its timeline: page-ins
// behind the page-outs that free their frames, page-outs behind the
// victim's last issued user, kernels behind their page-ins, and device
// residency within capacity at every instant. The Belady MIN oracle
// (belady_min.hpp) bounds the bytes a replayed graph pages in per round.
// Both run under the `memory` and `prefetch` ctest labels (and so in the
// sanitizer gates).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "belady_min.hpp"
#include "golden_scenarios.hpp"
#include "paging_checker.hpp"
#include "sim/graph.hpp"
#include "sim/runtime.hpp"

namespace psched::sim {
namespace {

using test::PagingRecorder;

// ---------------------------------------------------------------------
// The 16-array 1.5x chain: a replayed graph whose kernel i reads array
// perm[i] and writes perm[i+1] (cyclically), over arrays summing to 1.5x
// device memory. Sizes and order are the e2e `oversub` workload's seed-0
// inputs (bench/e2e/inputs.hpp), so this is that workload's trace.
// ---------------------------------------------------------------------

struct Chain {
  static constexpr int kArrays = 16;
  static constexpr std::size_t kCapacity = 256ull << 20;

  std::vector<std::size_t> sizes;
  std::vector<int> perm = {1, 4, 0, 5, 10, 2, 11, 8,
                           14, 9, 7, 6, 12, 15, 3, 13};

  Chain() {
    for (const std::size_t kib :
         {22357, 25251, 22245, 22242, 24332, 23869, 25871, 24053, 25677,
          25821, 25254, 22399, 26435, 26224, 25673, 25505}) {
      sizes.push_back(kib * 1024);
    }
  }

  [[nodiscard]] int src(int k) const { return perm[static_cast<std::size_t>(k)]; }
  [[nodiscard]] int dst(int k) const {
    return perm[static_cast<std::size_t>((k + 1) % kArrays)];
  }

  [[nodiscard]] static DeviceSpec device() {
    DeviceSpec spec = DeviceSpec::test_device();
    spec.memory_bytes = kCapacity;
    return spec;
  }

  [[nodiscard]] LaunchSpec kernel(const std::vector<ArrayId>& arrays,
                                  int k) const {
    LaunchSpec s;
    s.name = "chain";
    s.config = LaunchConfig::linear(64, 256);
    s.profile.flops_sp = 1e9;  // ~2 ms solo on the test device
    s.arrays = {{arrays[static_cast<std::size_t>(src(k))], false},
                {arrays[static_cast<std::size_t>(dst(k))], true}};
    return s;
  }

  /// One round's array-access trace (indices into `sizes`).
  [[nodiscard]] std::vector<std::vector<int>> trace() const {
    std::vector<std::vector<int>> t;
    for (int k = 0; k < kArrays; ++k) t.push_back({src(k), dst(k)});
    return t;
  }

  std::vector<ArrayId> alloc(GpuRuntime& rt) const {
    std::vector<ArrayId> arrays;
    for (int i = 0; i < kArrays; ++i) {
      std::string name = "a";
      name += std::to_string(i);
      arrays.push_back(rt.alloc(sizes[static_cast<std::size_t>(i)], name));
      rt.host_write(arrays.back());
    }
    return arrays;
  }
};

double bytes_in(const GpuRuntime& rt) {
  return rt.bytes_h2d() + rt.bytes_faulted() + rt.bytes_p2p();
}

/// Drive `rounds` replays of the chain graph, calling `probe` after every
/// launch. The lowering is TaskGraph::Exec::launch's for a one-lane
/// graph, spelled out so the probe sees each launch; the equivalence test
/// below pins it to the graph path.
void drive_chain_lowered(GpuRuntime& rt, const Chain& chain,
                         const std::vector<ArrayId>& arrays, int rounds,
                         const golden::CallProbe& probe = {}) {
  const StreamId lane = rt.create_stream();
  for (int r = 0; r < rounds; ++r) {
    rt.host_advance(TaskGraph::kLaunchUs);
    rt.begin_submit();
    std::vector<FrontierEntry> frontier;
    for (int k = 0; k < Chain::kArrays; ++k) {
      frontier.push_back({kDefaultDevice,
                          {arrays[static_cast<std::size_t>(chain.src(k))],
                           arrays[static_cast<std::size_t>(chain.dst(k))]}});
    }
    rt.announce_frontier(std::move(frontier));
    for (int k = 0; k < Chain::kArrays; ++k) {
      rt.launch(lane, chain.kernel(arrays, k));
      if (probe) probe(rt, arrays);
    }
    rt.clear_frontier();
    rt.commit();
    rt.synchronize_device();
    if (probe) probe(rt, arrays);
  }
}

TEST(PagingChain, LoweringMatchesTheGraphPath) {
  const Chain chain;
  GpuRuntime lowered(Chain::device());
  const std::vector<ArrayId> la = chain.alloc(lowered);
  drive_chain_lowered(lowered, chain, la, 4);

  GpuRuntime graphed(Chain::device());
  const std::vector<ArrayId> ga = chain.alloc(graphed);
  TaskGraph graph;
  TaskGraph::NodeId prev = TaskGraph::kNoNode;
  for (int k = 0; k < Chain::kArrays; ++k) {
    const TaskGraph::NodeId node = graph.add_kernel(chain.kernel(ga, k));
    if (prev != TaskGraph::kNoNode) graph.add_dependency(prev, node);
    prev = node;
  }
  TaskGraph::Exec exec = graph.instantiate(graphed);
  for (int r = 0; r < 4; ++r) {
    exec.launch(graphed, TaskGraph::Replay::Batched);
    graphed.synchronize_device();
  }
  // Instantiation charges host time the lowering does not: compare the
  // schedule shape and traffic, not absolute clocks.
  EXPECT_EQ(lowered.timeline().entries().size(),
            graphed.timeline().entries().size());
  EXPECT_DOUBLE_EQ(bytes_in(lowered), bytes_in(graphed));
  EXPECT_DOUBLE_EQ(lowered.bytes_d2h(), graphed.bytes_d2h());
  EXPECT_EQ(lowered.evict_ops(), graphed.evict_ops());
  EXPECT_EQ(lowered.prefetch_ops(), graphed.prefetch_ops());
}

// ---------------------------------------------------------------------
// Physical order.
// ---------------------------------------------------------------------

TEST(PagingOrder, OversubPlannerScenario) {
  PagingRecorder rec;
  const golden::GoldenRun run = golden::run_oversub_planner_scenario(
      [&rec](const GpuRuntime& rt, const std::vector<ArrayId>& arrays) {
        rec.after_call(rt, arrays);
      });
  EXPECT_FALSE(rec.deltas().empty());
  test::expect_physical_paging(rec, run.entries);
}

TEST(PagingOrder, MultiGpuStagingScenario) {
  PagingRecorder rec;
  const golden::GoldenRun run = golden::run_multi_gpu_staging_scenario(
      [&rec](const GpuRuntime& rt, const std::vector<ArrayId>& arrays) {
        rec.after_call(rt, arrays);
      });
  EXPECT_FALSE(rec.deltas().empty());
  test::expect_physical_paging(rec, run.entries);
}

TEST(PagingOrder, ChainScenario) {
  const Chain chain;
  GpuRuntime rt(Chain::device());
  const std::vector<ArrayId> arrays = chain.alloc(rt);
  PagingRecorder rec;
  rec.after_call(rt, arrays);
  drive_chain_lowered(
      rt, chain, arrays, 6,
      [&rec](const GpuRuntime& g, const std::vector<ArrayId>& a) {
        rec.after_call(g, a);
      });
  EXPECT_GT(rt.evict_ops(), 0);
  EXPECT_GT(rt.prefetch_ops(), 0);
  EXPECT_EQ(rt.hazard_count(), 0);
  test::expect_physical_paging(rec, rt.timeline().entries().to_vector());
}

// Outputs no host code ever wrote hold no data: the planner charges their
// frames without a fetch, and the kernel first writing one must still wait
// for the page-outs that free them. Two outputs of 3/4 device each, one
// kernel per output on one stream: y's serve pages x out behind x's
// writer, and y's writer must not start before that write-back lands.
TEST(PagingOrder, MaterializedOutputsWaitForTheirFrames) {
  constexpr std::size_t kMiB = 1u << 20;
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 16 * kMiB;
  GpuRuntime rt(spec);
  const std::vector<ArrayId> outs = {rt.alloc(12 * kMiB, "x"),
                                     rt.alloc(12 * kMiB, "y")};
  PagingRecorder rec;
  rec.after_call(rt, outs);
  for (int r = 0; r < 2; ++r) {
    rt.begin_submit();
    rt.announce_frontier({{kDefaultDevice, {outs[0]}},
                          {kDefaultDevice, {outs[1]}}});
    for (const ArrayId out : outs) {
      rt.launch(kDefaultStream, golden::golden_kernel("write", {{out, true}}));
      rec.after_call(rt, outs);
    }
    rt.clear_frontier();
    rt.commit();
    rt.synchronize_device();
    rec.after_call(rt, outs);
  }
  EXPECT_GT(rt.evict_ops(), 0);
  test::expect_physical_paging(rec, rt.timeline().entries().to_vector());
}

// Frames a serve freed behind in-flight users are accounted free before
// they physically are. An admission charging them on another stream
// (here an unannounced launch after the frontier ran out) must wait for
// the page-out too: x (13 MiB) is paged out behind its reader to admit y
// (11 MiB), leaving 5 MiB on the books for z while x still holds them.
TEST(PagingOrder, AdmissionWaitsForPlannerPageOuts) {
  constexpr std::size_t kMiB = 1u << 20;
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 16 * kMiB;
  GpuRuntime rt(spec);
  const ArrayId x = rt.alloc(13 * kMiB, "x");
  const ArrayId y = rt.alloc(11 * kMiB, "y");
  const ArrayId z = rt.alloc(5 * kMiB, "z");
  const std::vector<ArrayId> arrays = {x, y, z};
  for (const ArrayId a : arrays) rt.host_write(a);
  const StreamId other = rt.create_stream();
  PagingRecorder rec;
  rec.after_call(rt, arrays);
  rt.launch(kDefaultStream, golden::golden_kernel("kx", {{x, true}}));
  rec.after_call(rt, arrays);
  rt.synchronize_device();  // x: resident, only copy on the device
  rec.after_call(rt, arrays);
  rt.begin_submit();
  rt.announce_frontier({{kDefaultDevice, {x}}, {kDefaultDevice, {y}}});
  rt.launch(kDefaultStream, golden::golden_kernel("kx", {{x, false}}));
  rec.after_call(rt, arrays);
  rt.launch(kDefaultStream, golden::golden_kernel("ky", {{y, true}}));
  rec.after_call(rt, arrays);
  rt.launch(other, golden::golden_kernel("kz", {{z, false}}));
  rec.after_call(rt, arrays);
  rt.clear_frontier();
  rt.commit();
  rt.synchronize_device();
  rec.after_call(rt, arrays);
  EXPECT_EQ(rt.evict_ops(), 1);
  test::expect_physical_paging(rec, rt.timeline().entries().to_vector());
}

// An admission under an active frontier pages out whole runs, so it can
// free more than it needs (x: 13 MiB out to admit w: 11 MiB); a later
// admission on another stream charging that surplus (z: 4 MiB) must wait
// for the page-out as well. Neither launch matches the frontier head (v,
// resident), so their pages come through admission, not a serve.
TEST(PagingOrder, AdmissionPageOutsUnderAFrontierFreeFramesInOrder) {
  constexpr std::size_t kMiB = 1u << 20;
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 16 * kMiB;
  GpuRuntime rt(spec);
  const ArrayId v = rt.alloc(1 * kMiB, "v");
  const ArrayId x = rt.alloc(13 * kMiB, "x");
  const ArrayId w = rt.alloc(11 * kMiB, "w");
  const ArrayId z = rt.alloc(4 * kMiB, "z");
  const std::vector<ArrayId> arrays = {v, x, w, z};
  for (const ArrayId a : arrays) rt.host_write(a);
  const StreamId s1 = rt.create_stream();
  const StreamId s2 = rt.create_stream();
  PagingRecorder rec;
  rec.after_call(rt, arrays);
  rt.launch(kDefaultStream, golden::golden_kernel("kv", {{v, false}}));
  rec.after_call(rt, arrays);
  rt.launch(kDefaultStream, golden::golden_kernel("kx", {{x, true}}));
  rec.after_call(rt, arrays);
  rt.synchronize_device();  // v and x resident, x's only copy on the device
  rec.after_call(rt, arrays);
  rt.announce_frontier({{kDefaultDevice, {v}}});
  rt.launch(s1, golden::golden_kernel("kw", {{w, false}}));
  rec.after_call(rt, arrays);
  rt.launch(s2, golden::golden_kernel("kz", {{z, false}}));
  rec.after_call(rt, arrays);
  rt.clear_frontier();
  rt.synchronize_device();
  rec.after_call(rt, arrays);
  EXPECT_EQ(rt.evict_ops(), 1);
  test::expect_physical_paging(rec, rt.timeline().entries().to_vector());
}

// The checker itself: a schedule that lands a page before its frame is
// free must be reported.
TEST(PagingOrder, CheckerFlagsAnOvercommittedDevice) {
  PagingRecorder rec;
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = 1 << 20;
  GpuRuntime rt(spec);
  const ArrayId a = rt.alloc(1 << 20, "a");
  rt.host_write(a);
  rec.after_call(rt, {a});
  rt.launch(kDefaultStream, golden::golden_kernel("k", {{a, false}}));
  rec.after_call(rt, {a});
  rt.synchronize_device();
  rec.after_call(rt, {a});
  const std::vector<TimelineEntry>& entries = rt.timeline().entries().to_vector();
  EXPECT_TRUE(test::check_paging(rec, entries).empty());
  // Judged against a smaller device, the same fault overflows it.
  EXPECT_FALSE(test::check_paging(rec, entries, {1000}).empty());
}

// ---------------------------------------------------------------------
// Bytes against Belady's MIN.
// ---------------------------------------------------------------------

/// Planner bytes paged in per steady-state round over MIN's, measured as
/// it landed; the bound below keeps 10% slack on it.
constexpr double kLandedMinRatio = 1.31;
constexpr double kMaxMinRatio = 1.6;

TEST(PagingMin, ChainStaysNearBeladyMin) {
  constexpr int kRounds = 8;
  constexpr int kWarm = 4;  // rounds [kWarm, kRounds) are steady state
  const Chain chain;
  GpuRuntime rt(Chain::device());
  const std::vector<ArrayId> arrays = chain.alloc(rt);
  double planner = 0;
  double before = 0;
  drive_chain_lowered(
      rt, chain, arrays, kRounds,
      [&, launches = 0](const GpuRuntime& g,
                        const std::vector<ArrayId>&) mutable {
        // Called after every launch and after each round's sync.
        if (++launches % (Chain::kArrays + 1) != 0) return;
        const int round = launches / (Chain::kArrays + 1) - 1;
        if (round == kWarm - 1) before = bytes_in(g);
        if (round == kRounds - 1) planner = bytes_in(g) - before;
      });
  planner /= kRounds - kWarm;

  const test::MinResult min =
      test::belady_min(chain.trace(), chain.sizes, Chain::kCapacity, kRounds);
  double optimal = 0;
  for (int r = kWarm; r < kRounds; ++r) {
    optimal += static_cast<double>(
        min.bytes_in_per_round[static_cast<std::size_t>(r)]);
  }
  optimal /= kRounds - kWarm;
  ASSERT_GT(optimal, 0);
  const double ratio = planner / optimal;
  std::printf("planner %.0f B/round, MIN %.0f B/round, ratio %.3f\n",
              planner, optimal, ratio);
  EXPECT_LE(ratio, kMaxMinRatio);
  EXPECT_LE(ratio, kLandedMinRatio * 1.1);
}

}  // namespace
}  // namespace psched::sim

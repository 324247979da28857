// Schedule-time residency planning (ResidencyPlanner) guardrails.
//
// Golden guard: with every announced device under capacity, the planner
// must be a strict no-op — timelines identical (at the golden tolerance)
// to the admission-time eviction path the golden fixtures pin. Policy tests: Belady farthest-next-use victim
// order, the never-evict-nearer-frontier gate, wasted-prefetch
// accounting, and advisory-frontier mismatch robustness. Determinism: the
// prefetch schedule must be invariant across shuffled producer timings
// when driven through the concurrent ingest queue (`ctest -L prefetch`,
// also part of the sanitize and tsan gates).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sim/ingest_queue.hpp"
#include "sim/runtime.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

constexpr std::size_t kMiB = 1u << 20;

LaunchSpec touch_kernel(ArrayId a) {
  LaunchSpec k;
  k.name = "touch";
  k.config = LaunchConfig::linear(16, 128);
  k.profile.flops_sp = 1e6;
  k.arrays = {{a, true}};
  return k;
}

/// A runtime with `n` host-initialized arrays of `bytes` each on a device
/// capped at `cap` bytes.
struct Rig {
  GpuRuntime rt;
  std::vector<ArrayId> arrays;

  Rig(std::size_t cap, int n, std::size_t bytes)
      : rt(make_machine(cap)) {
    for (int i = 0; i < n; ++i) {
      arrays.push_back(
          rt.alloc(bytes, std::string(1, static_cast<char>('a' + i))));
      rt.host_write(arrays.back());
    }
  }

  static Machine make_machine(std::size_t cap) {
    DeviceSpec spec = DeviceSpec::test_device();
    spec.memory_bytes = cap;
    return Machine::single(spec);
  }

  /// Sync-each drive of `rounds` cyclic passes over the arrays.
  void drive(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const ArrayId a : arrays) {
        rt.launch(kDefaultStream, touch_kernel(a));
        rt.synchronize_device();
      }
    }
  }

  [[nodiscard]] std::vector<FrontierEntry> cyclic_frontier(int rounds) const {
    std::vector<FrontierEntry> f;
    for (int r = 0; r < rounds; ++r) {
      for (const ArrayId a : arrays) f.push_back({kDefaultDevice, {a}});
    }
    return f;
  }
};

/// Same ops in the same order at the same times (golden tolerance).
void expect_identical_timelines(GpuRuntime& got, GpuRuntime& want) {
  test::expect_same_timeline(got.timeline().entries().to_vector(),
                             want.timeline().entries().to_vector());
  test::expect_time_near(got.now(), want.now(), "now");
}

std::vector<std::string> evict_op_names(GpuRuntime& rt) {
  std::vector<std::string> names;
  for (const auto& e : rt.timeline().entries()) {
    if (e.name.rfind("evict:", 0) == 0) names.push_back(e.name);
  }
  return names;
}

// ---------------------------------------------------------------------
// Golden guards: planning must be a strict no-op where it promises to be.
// ---------------------------------------------------------------------

// Under capacity, every device stays quiet (its announced load fits the
// headroom it had at announce time, and it never evicts): the planner must
// not issue a single op or perturb a single timestamp.
TEST(PrefetchGoldenGuard, UnderCapacityFrontierBitIdentical) {
  const std::size_t cap = 16 * kMiB;
  Rig plain(cap, 4, 2 * kMiB);  // 8 MiB on a 16 MiB device: 0.5x
  plain.drive(2);

  Rig planned(cap, 4, 2 * kMiB);
  planned.rt.announce_frontier(planned.cyclic_frontier(2));
  planned.drive(2);
  planned.rt.clear_frontier();

  EXPECT_EQ(planned.rt.prefetch_ops(), 0);
  EXPECT_EQ(planned.rt.evict_ops(), 0);
  EXPECT_EQ(plain.rt.evict_ops(), 0);
  expect_identical_timelines(planned.rt, plain.rt);
}

// ---------------------------------------------------------------------
// Victim policy under an active frontier.
// ---------------------------------------------------------------------

// Cap fits two of three 2 MiB arrays. Frontier a, b, c, b: when c's serve
// needs a frame, the victim must be a (never used again), not b (next use
// right after c) — Belady farthest-next-use, with the gate forbidding b
// outright (its next use is inside the served range's horizon).
TEST(PrefetchPolicy, BeladyVictimIsFarthestNextUse) {
  Rig rig(4 * kMiB, 3, 2 * kMiB);
  const ArrayId a = rig.arrays[0];
  const ArrayId b = rig.arrays[1];
  const ArrayId c = rig.arrays[2];
  rig.rt.announce_frontier({{kDefaultDevice, {a}},
                            {kDefaultDevice, {b}},
                            {kDefaultDevice, {c}},
                            {kDefaultDevice, {b}}});
  for (const ArrayId id : {a, b, c, b}) {
    rig.rt.launch(kDefaultStream, touch_kernel(id));
    rig.rt.synchronize_device();
  }
  rig.rt.clear_frontier();

  EXPECT_EQ(rig.rt.fault_ops(), 0) << "every miss should be served early";
  const std::vector<std::string> evicts = evict_op_names(rig.rt);
  ASSERT_EQ(evicts.size(), 1u);
  EXPECT_EQ(evicts.front(), "evict:a");
}

// a and b are resident before the frontier [a, c] is announced. Serving c
// needs one frame; a's pages are needed by a *nearer* frontier entry than
// anything the serve covers, so the victim must be b even though a and b
// are otherwise equivalent candidates.
TEST(PrefetchPolicy, NeverEvictsPagesANearerEntryNeeds) {
  Rig rig(4 * kMiB, 3, 2 * kMiB);
  const ArrayId a = rig.arrays[0];
  const ArrayId b = rig.arrays[1];
  const ArrayId c = rig.arrays[2];
  // Make a and b resident through the plain admission path.
  for (const ArrayId id : {a, b}) {
    rig.rt.launch(kDefaultStream, touch_kernel(id));
    rig.rt.synchronize_device();
  }
  const long faults_before = rig.rt.fault_ops();

  rig.rt.announce_frontier({{kDefaultDevice, {a}}, {kDefaultDevice, {c}}});
  for (const ArrayId id : {a, c}) {
    rig.rt.launch(kDefaultStream, touch_kernel(id));
    rig.rt.synchronize_device();
  }
  rig.rt.clear_frontier();

  EXPECT_EQ(rig.rt.fault_ops(), faults_before)
      << "the planned phase must not fault";
  const std::vector<std::string> evicts = evict_op_names(rig.rt);
  ASSERT_EQ(evicts.size(), 1u);
  EXPECT_EQ(evicts.front(), "evict:b");
}

// Pages fetched ahead of need but paged out before their entry consumes
// them are wasted work: the page-out must charge them to the wasted-bytes
// counter (and consumed prefetches must not be charged).
TEST(PrefetchPolicy, WastedPrefetchBytesAccounted) {
  // Four 2 MiB arrays on a 6 MiB device: the runway budget (nine tenths
  // of the device) covers the first two entries.
  Rig rig(6 * kMiB, 4, 2 * kMiB);
  const ArrayId a = rig.arrays[0];
  // First pass serves a and b together; launching a consumes a's bytes,
  // b's stay prefetched-but-unconsumed.
  rig.rt.announce_frontier(rig.cyclic_frontier(1));
  rig.rt.launch(kDefaultStream, touch_kernel(a));
  rig.rt.synchronize_device();
  EXPECT_DOUBLE_EQ(rig.rt.prefetch_bytes(), 4.0 * kMiB);
  EXPECT_EQ(rig.rt.wasted_prefetch_bytes(), 0u);
  // Drop the frontier and admit the other two arrays: the LRU victim is
  // the untouched b, whose prefetched pages die unconsumed.
  rig.rt.clear_frontier();
  for (std::size_t i = 2; i < rig.arrays.size(); ++i) {
    rig.rt.launch(kDefaultStream, touch_kernel(rig.arrays[i]));
    rig.rt.synchronize_device();
  }
  EXPECT_EQ(rig.rt.wasted_prefetch_bytes(), 2 * kMiB);
}

// The frontier is advisory: a launch that diverges from the announced
// order must neither derail planning nor corrupt the position tracking —
// matching launches afterwards still advance the frontier.
TEST(PrefetchPolicy, AdvisoryMismatchKeepsPositionConsistent) {
  Rig rig(4 * kMiB, 3, 2 * kMiB);
  const ArrayId a = rig.arrays[0];
  const ArrayId b = rig.arrays[1];
  const ArrayId c = rig.arrays[2];
  rig.rt.announce_frontier({{kDefaultDevice, {a}},
                            {kDefaultDevice, {b}},
                            {kDefaultDevice, {c}}});
  // c first (not the announced head): no frontier advance.
  rig.rt.launch(kDefaultStream, touch_kernel(c));
  rig.rt.synchronize_device();
  EXPECT_EQ(rig.rt.memory().planner().frontier_remaining(), 3u);
  // a and b match the announced order from the head and advance past it.
  for (const ArrayId id : {a, b}) {
    rig.rt.launch(kDefaultStream, touch_kernel(id));
    rig.rt.synchronize_device();
  }
  EXPECT_EQ(rig.rt.memory().planner().frontier_remaining(), 1u);
  rig.rt.clear_frontier();
  EXPECT_EQ(rig.rt.memory().planner().frontier_remaining(), 0u);
}

// The prefetch-overlap fraction reads the timeline's interned names: it
// must equal the same fraction computed over the rebuilt entries.
TEST(PrefetchPolicy, OverlapFractionMatchesTheEntryScan) {
  Rig rig(6 * kMiB, 4, 2 * kMiB);
  rig.rt.announce_frontier(rig.cyclic_frontier(2));
  for (int r = 0; r < 2; ++r) {
    for (const ArrayId a : rig.arrays) {
      rig.rt.launch(kDefaultStream, touch_kernel(a));
    }
  }
  rig.rt.synchronize_device();
  rig.rt.clear_frontier();

  const Timeline& tl = rig.rt.timeline();
  const IntervalSet kernels = tl.kernel_cover();
  TimeUs total = 0;
  TimeUs overlapped = 0;
  int prefetches = 0;
  for (const TimelineEntry& e : tl.entries()) {
    if (e.name.rfind("prefetch:", 0) != 0) continue;
    ++prefetches;
    total += e.duration();
    overlapped += kernels.intersection_measure(e.interval());
  }
  ASSERT_GT(prefetches, 0);
  ASSERT_GT(total, 0);
  EXPECT_GT(overlapped, 0);
  EXPECT_DOUBLE_EQ(rig.rt.prefetch_overlap_fraction(), overlapped / total);
}

// ---------------------------------------------------------------------
// Determinism through the concurrent ingestion front-end.
// ---------------------------------------------------------------------

// The same oversubscribed, frontier-announced drive submitted through the
// ingest queue must produce one schedule — bit-identical timelines and
// identical prefetch/evict counts — no matter how the producer's timing
// interleaves with the drain thread (shuffled sleeps, three seeds).
TEST(PrefetchIngestDeterminism, ScheduleInvariantAcrossProducerTimings) {
  struct Run {
    std::unique_ptr<Rig> rig;
    long prefetch_ops;
    long evict_ops;
  };
  std::vector<Run> runs;
  for (const unsigned seed : {1u, 2u, 3u}) {
    auto rig = std::make_unique<Rig>(8 * kMiB, 4, 4 * kMiB);  // 2.0x
    rig->rt.announce_frontier(rig->cyclic_frontier(2));
    {
      IngestService svc(rig->rt);
      std::mt19937 gen(seed);
      std::uniform_int_distribution<int> jitter_us(0, 300);
      for (int r = 0; r < 2; ++r) {
        for (const ArrayId id : rig->arrays) {
          svc.post_task(0, [id](GpuRuntime& g) {
            g.launch(kDefaultStream, touch_kernel(id));
            g.synchronize_device();
          });
          std::this_thread::sleep_for(
              std::chrono::microseconds(jitter_us(gen)));
        }
      }
      svc.flush_and_wait(0);
    }
    rig->rt.synchronize_device();
    rig->rt.clear_frontier();
    const long pf = rig->rt.prefetch_ops();
    const long ev = rig->rt.evict_ops();
    runs.push_back({std::move(rig), pf, ev});
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].prefetch_ops, runs[0].prefetch_ops);
    EXPECT_EQ(runs[i].evict_ops, runs[0].evict_ops);
    expect_identical_timelines(runs[i].rig->rt, runs[0].rig->rt);
  }
  EXPECT_GT(runs[0].prefetch_ops, 0);
}

}  // namespace
}  // namespace psched::sim

// Memory ratchet for the timeline's history (one row per completed op).
// Global operator new is replaced by a version that counts allocations
// and tracks the bytes held, so the test sees exactly what the timeline
// keeps on the heap.
//
// With every entry a 128-byte TimelineEntry in a doubling std::vector,
// 100k entries held 128 B each plus up to 2x capacity slack, and the last
// doubling held the old buffer and its copy at once. Rows are now 56
// bytes in fixed 1024-row chunks, with names and kernel profiles interned
// per timeline: the bound is 64 B held per entry, no allocation larger
// than a chunk, and no buffer freed while the history grows.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "sim/timeline.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long> g_allocs{0};
std::atomic<long> g_largest{0};  ///< largest single allocation while counting
std::atomic<long> g_freed{0};    ///< bytes freed while counting
std::atomic<long> g_held{0};     ///< bytes currently allocated through new
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    const auto size = static_cast<long>(malloc_usable_size(p));
    if (g_counting.load(std::memory_order_relaxed)) {
      g_allocs.fetch_add(1, std::memory_order_relaxed);
      if (size > g_largest.load(std::memory_order_relaxed)) {
        g_largest.store(size, std::memory_order_relaxed);
      }
    }
    g_held.fetch_add(size, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  const auto size = static_cast<long>(malloc_usable_size(p));
  if (g_counting.load(std::memory_order_relaxed)) {
    g_freed.fetch_add(size, std::memory_order_relaxed);
  }
  g_held.fetch_sub(size, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace psched::sim {
namespace {

constexpr double kHeldBytesPerEntryBound = 64.0;

void start_counting() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_largest.store(0, std::memory_order_relaxed);
  g_freed.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
}

void stop_counting() { g_counting.store(false, std::memory_order_relaxed); }

/// Entry `i` of a run-shaped mix: kernels with one of `variety` names and
/// profiles, and host and peer copies. Names stay within the
/// small-string buffer, so building an entry allocates nothing itself.
TimelineEntry make_entry(long i, int variety, int tag = 0) {
  TimelineEntry e;
  e.op = i + 1;
  e.stream = static_cast<StreamId>(i % 13);
  e.device = static_cast<DeviceId>(i % 4);
  e.start = 0.5 * static_cast<double>(i);
  e.end = e.start + 1.0 + static_cast<double>(i % 7);
  const int v = static_cast<int>(i % variety);
  switch (i % 4) {
    case 0:
    case 1:
      e.kind = OpKind::Kernel;
      e.name = "k" + std::to_string(tag) + "_" + std::to_string(v);
      e.prof.flops_sp = 1e6 * (v + 1) + tag;
      e.prof.dram_bytes = 4e3 * (v + 1);
      e.prof.l2_bytes = 8e3 * (v + 1);
      e.prof.instructions = 2e5 * (v + 1);
      e.prof.duty = 1.0 / (1 + v % 3);
      break;
    case 2:
      e.kind = OpKind::CopyH2D;
      e.name = "h2d:a" + std::to_string(v);
      e.bytes = 1e4 * (v + 1);
      break;
    default:
      e.kind = OpKind::CopyP2P;
      e.peer = static_cast<DeviceId>((i + 1) % 4);
      e.name = "p2p";
      e.bytes = 2e4;
      break;
  }
  return e;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Field-by-field, bit-exact equality of two entries.
void expect_identical(const TimelineEntry& got, const TimelineEntry& want,
                      std::size_t i) {
  SCOPED_TRACE("entry " + std::to_string(i));
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.stream, want.stream);
  EXPECT_EQ(got.device, want.device);
  EXPECT_EQ(got.peer, want.peer);
  EXPECT_EQ(got.name, want.name);
  EXPECT_TRUE(same_bits(got.start, want.start));
  EXPECT_TRUE(same_bits(got.end, want.end));
  EXPECT_TRUE(same_bits(got.bytes, want.bytes));
  EXPECT_TRUE(same_bits(got.prof.flops_sp, want.prof.flops_sp));
  EXPECT_TRUE(same_bits(got.prof.flops_dp, want.prof.flops_dp));
  EXPECT_TRUE(same_bits(got.prof.dram_bytes, want.prof.dram_bytes));
  EXPECT_TRUE(same_bits(got.prof.l2_bytes, want.prof.l2_bytes));
  EXPECT_TRUE(same_bits(got.prof.instructions, want.prof.instructions));
  EXPECT_TRUE(same_bits(got.prof.duty, want.prof.duty));
}

void expect_round_trip(const Timeline& tl,
                       const std::vector<TimelineEntry>& recorded) {
  ASSERT_EQ(tl.entries().size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    expect_identical(tl.entries()[i], recorded[i], i);
  }
  std::size_t i = 0;
  for (const TimelineEntry& e : tl.entries()) {
    ASSERT_LT(i, recorded.size());
    expect_identical(e, recorded[i], i);
    ++i;
  }
  EXPECT_EQ(i, recorded.size());
  const std::vector<TimelineEntry> copy = tl.entries().to_vector();
  ASSERT_EQ(copy.size(), recorded.size());
  for (std::size_t j = 0; j < copy.size(); ++j) {
    expect_identical(copy[j], recorded[j], j);
  }
}

TEST(TimelineMemory, HeapPerEntryStaysUnderBoundWithNoGrowthCopies) {
  constexpr long kEntries = 100'000;
  const long held_before = g_held.load(std::memory_order_relaxed);
  {
    Timeline tl;
    start_counting();
    for (long i = 0; i < kEntries; ++i) tl.record(make_entry(i, 40));
    stop_counting();
    const double held_per_entry =
        static_cast<double>(g_held.load(std::memory_order_relaxed) -
                            held_before) /
        static_cast<double>(kEntries);
    const long largest = g_largest.load(std::memory_order_relaxed);
    const long freed = g_freed.load(std::memory_order_relaxed);
    std::printf("%ld entries: %.1f heap bytes held per entry, %ld "
                "allocations, largest %ld B, %ld B freed while growing\n",
                kEntries, held_per_entry,
                g_allocs.load(std::memory_order_relaxed), largest, freed);
    EXPECT_LE(held_per_entry, kHeldBytesPerEntryBound);
    // Growth copies nothing: no buffer as large as the history, and what
    // was freed while growing (the chunk index and the intern tables) is
    // a sliver of what is held.
    const auto chunk_bytes = static_cast<long>(Timeline::kRowsPerChunk *
                                               sizeof(Timeline::Row));
    EXPECT_LE(largest, chunk_bytes + 64);
    EXPECT_LT(freed, chunk_bytes);
    EXPECT_EQ(tl.entries().size(), static_cast<std::size_t>(kEntries));
  }
  // Everything the timeline held is returned with it.
  EXPECT_EQ(g_held.load(std::memory_order_relaxed), held_before);
}

TEST(TimelineMemory, RecordClearCyclesStayFlat) {
  constexpr int kCycles = 1000;
  constexpr int kWarmCycles = 3;
  constexpr long kPerCycle = 2500;  // spans three chunks
  Timeline tl;
  const auto cycle = [&](int c) {
    // Every cycle interns its own names and profiles.
    for (long i = 0; i < kPerCycle; ++i) tl.record(make_entry(i, 50, c));
    ASSERT_EQ(tl.entries().size(), static_cast<std::size_t>(kPerCycle));
    tl.clear();
    ASSERT_TRUE(tl.empty());
  };
  for (int c = 0; c < kWarmCycles; ++c) cycle(c);
  const long held_warm = g_held.load(std::memory_order_relaxed);
  start_counting();
  for (int c = kWarmCycles; c < kCycles; ++c) cycle(c);
  stop_counting();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(g_held.load(std::memory_order_relaxed), held_warm);
}

TEST(TimelineMemory, RoundTripIsExactAcrossChunksAndAfterClear) {
  Timeline tl;
  std::vector<TimelineEntry> recorded;
  const long n = 3 * static_cast<long>(Timeline::kRowsPerChunk) + 17;
  for (long i = 0; i < n; ++i) recorded.push_back(make_entry(i, 300));
  // Values a lossy store would fold: signed zero, NaN, an empty name, a
  // kernel with the default profile, and counters on a non-kernel op.
  recorded[5].prof.flops_dp = -0.0;
  recorded[6].prof.l2_bytes = std::numeric_limits<double>::quiet_NaN();
  recorded[7].name.clear();
  recorded[8] = make_entry(8, 1);
  recorded[8].prof = KernelProfile{};
  recorded[1023].prof.flops_dp = 3.5;
  recorded[1024].start = -0.0;
  recorded[1026].prof.instructions = 9.0;  // a CopyH2D with counters
  for (const TimelineEntry& e : recorded) tl.record(e);
  expect_round_trip(tl, recorded);

  // Re-recorded from the view, a second timeline has the same aggregates.
  Timeline again;
  for (std::size_t i = 0; i < tl.entries().size(); ++i) {
    again.record(tl.entries()[i]);
  }
  EXPECT_EQ(again.makespan(), tl.makespan());
  EXPECT_EQ(again.total_kernel_time(), tl.total_kernel_time());
  EXPECT_EQ(again.total_transfer_time(), tl.total_transfer_time());
  const KernelProfile& a = again.total_kernel_profile();
  const KernelProfile& b = tl.total_kernel_profile();
  EXPECT_EQ(a.flops_sp, b.flops_sp);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.instructions, b.instructions);
  const OverlapMetrics ma = again.overlap_metrics();
  const OverlapMetrics mb = tl.overlap_metrics();
  EXPECT_EQ(ma.ct, mb.ct);
  EXPECT_EQ(ma.tc, mb.tc);
  EXPECT_EQ(ma.cc, mb.cc);
  EXPECT_EQ(ma.tot, mb.tot);

  // After clear(), nothing of the old history shows through: new names
  // and profiles take the freed ids.
  tl.clear();
  EXPECT_TRUE(tl.entries().empty());
  EXPECT_EQ(tl.makespan(), 0);
  recorded.clear();
  for (long i = 0; i < 1500; ++i) recorded.push_back(make_entry(i, 9, 7));
  for (const TimelineEntry& e : recorded) tl.record(e);
  expect_round_trip(tl, recorded);
}

}  // namespace
}  // namespace psched::sim

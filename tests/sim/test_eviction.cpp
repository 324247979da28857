// Oversubscription through the runtime: LRU page-out on the fault path.
//
// The device can hold less than the program's working set; admissions page
// out least-recently-used victim extents instead of throwing, write-backs
// are priced as real D2H ops on the DMA classes, and under-capacity
// workloads remain bit-identical to the pre-paging engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hpp"
#include "sim/runtime.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

LaunchSpec kernel_spec(const std::string& name, std::vector<ArrayUse> arrays,
                       double flops_sp = 1e5) {
  LaunchSpec s;
  s.name = name;
  s.config = LaunchConfig::linear(4, 64);
  s.profile.flops_sp = flops_sp;
  s.arrays = std::move(arrays);
  return s;
}

/// A test device whose memory holds `cap` bytes.
DeviceSpec small_device(std::size_t cap) {
  DeviceSpec spec = DeviceSpec::test_device();
  spec.memory_bytes = cap;
  return spec;
}

// --- the acceptance scenario: 2x-capacity working set completes ---------

TEST(Eviction, OversubscribedWorkingSetCompletesWithNonzeroEvictions) {
  // Four 4000-byte arrays against an 8000-byte device: a 2x working set.
  GpuRuntime rt(small_device(8000));
  std::vector<ArrayId> arrays;
  for (int i = 0; i < 4; ++i) {
    arrays.push_back(rt.alloc(4000, "a" + std::to_string(i)));
    rt.host_write(arrays.back());
  }
  for (int round = 0; round < 3; ++round) {
    for (const ArrayId a : arrays) {
      rt.launch(kDefaultStream, kernel_spec("k", {{a, true}}));
      rt.synchronize_device();
    }
  }
  EXPECT_GT(rt.bytes_evicted(), 0u);
  EXPECT_GT(rt.evict_ops(), 0);  // kernel-written victims need write-backs
  EXPECT_LE(rt.device_bytes_used(0), 8000u);
  EXPECT_EQ(rt.device_bytes_peak(0), 8000u);
  // Every round after the first re-faults what the previous round evicted.
  EXPECT_GT(rt.fault_ops(), 4);
}

// --- LRU victim ordering under a 3-array thrash pattern -----------------

TEST(Eviction, LruPicksTheLeastRecentlyTouchedVictim) {
  // Device fits two of the three arrays; every launch of the third evicts
  // exactly the least-recently-used one.
  GpuRuntime rt(small_device(8000));
  const ArrayId a = rt.alloc(4000, "a");
  const ArrayId b = rt.alloc(4000, "b");
  const ArrayId c = rt.alloc(4000, "c");
  auto resident = [&](ArrayId id) {
    return rt.memory().info(id).resident_bytes_on(0) > 0;
  };
  auto use = [&](ArrayId id) {
    rt.launch(kDefaultStream, kernel_spec("k", {{id, false}}));
    rt.synchronize_device();
  };
  for (const ArrayId id : {a, b, c}) rt.host_write(id);

  use(a);
  use(b);          // resident: {a, b}, LRU = a
  use(c);          // evicts a
  EXPECT_FALSE(resident(a));
  EXPECT_TRUE(resident(b) && resident(c));
  use(a);          // LRU is now b
  EXPECT_FALSE(resident(b));
  EXPECT_TRUE(resident(a) && resident(c));
  use(b);          // LRU is now c
  EXPECT_FALSE(resident(c));
  EXPECT_TRUE(resident(a) && resident(b));
  // Re-touching an already-resident array refreshes its recency.
  use(a);          // order now (b, a); next eviction takes b, not a
  use(c);
  EXPECT_FALSE(resident(b));
  EXPECT_TRUE(resident(a) && resident(c));
}

// --- pinned-page exemption ----------------------------------------------

TEST(Eviction, PinnedArraysAreNeverVictims) {
  GpuRuntime rt(small_device(8000));
  const ArrayId pinned = rt.alloc(4000, "pinned");
  const ArrayId x = rt.alloc(4000, "x");
  const ArrayId y = rt.alloc(4000, "y");
  for (const ArrayId id : {pinned, x, y}) rt.host_write(id);
  auto use = [&](ArrayId id) {
    rt.launch(kDefaultStream, kernel_spec("k", {{id, false}}));
    rt.synchronize_device();
  };
  use(pinned);
  rt.advise_pin(pinned, 0);
  // x and y thrash the remaining half; pinned stays put although it is
  // always the least recently used.
  use(x);
  use(y);
  use(x);
  use(y);
  EXPECT_EQ(rt.memory().info(pinned).resident_bytes_on(0), 4000u);
  // Unpinning re-exposes it to the LRU scan.
  rt.advise_unpin(pinned, 0);
  use(x);
  EXPECT_EQ(rt.memory().info(pinned).resident_bytes_on(0), 0u);
}

// --- stale copies are evicted before fresh ones -------------------------

TEST(Eviction, StaleCopiesGoBeforeFreshOnesAndDropForFree) {
  GpuRuntime rt(small_device(8000));
  const ArrayId stale = rt.alloc(4000, "stale");
  const ArrayId fresh = rt.alloc(4000, "fresh");
  const ArrayId incoming = rt.alloc(4000, "incoming");
  for (const ArrayId id : {stale, fresh, incoming}) rt.host_write(id);
  auto use = [&](ArrayId id, bool write) {
    rt.launch(kDefaultStream, kernel_spec("k", {{id, write}}));
    rt.synchronize_device();
  };
  // `stale` lands on device, then the host invalidates its device copy
  // (pages stay charged — unified-memory semantics).
  use(stale, false);
  rt.host_write(stale);
  // `fresh` is kernel-written: the device holds its only current copy and
  // it is the more recently used of the two.
  use(fresh, true);
  ASSERT_EQ(rt.device_bytes_used(0), 8000u);

  const double d2h_before = rt.bytes_d2h();
  use(incoming, false);
  // The stale copy was dropped (free, no D2H) even though `fresh` — whose
  // eviction would cost a write-back — was not more recently used... and
  // the fresh copy survived.
  EXPECT_EQ(rt.memory().info(stale).resident_bytes_on(0), 0u);
  EXPECT_EQ(rt.memory().info(fresh).resident_bytes_on(0), 4000u);
  EXPECT_EQ(rt.bytes_d2h(), d2h_before);
  EXPECT_EQ(rt.evict_ops(), 0);
}

// --- eviction traffic is priced on the DMA classes ----------------------

TEST(Eviction, WritebacksRideTheD2hDmaClassAndGateTheFaultingOp) {
  GpuRuntime rt(small_device(8000));
  const ArrayId victim = rt.alloc(8000, "victim");
  const ArrayId incoming = rt.alloc(4000, "incoming");
  rt.host_write(victim);
  rt.host_write(incoming);
  // The victim is kernel-written: the device owns its only current copy.
  rt.launch(kDefaultStream, kernel_spec("k1", {{victim, true}}));
  rt.synchronize_device();
  const long d2h_solves_before =
      rt.engine().class_solve_count(0, OpKind::CopyD2H);

  rt.launch(kDefaultStream, kernel_spec("k2", {{incoming, false}}));
  rt.synchronize_device();

  // The page-out is a real D2H op: it ran on the (device 0, CopyD2H)
  // class, it shows in the timeline, and the faulting kernel's migration
  // started only after the write-back drained.
  EXPECT_GT(rt.engine().class_solve_count(0, OpKind::CopyD2H),
            d2h_solves_before);
  EXPECT_EQ(rt.evict_ops(), 1);
  // The victim spans a single page (default 2 MiB granule), so the whole
  // 8000-byte run pages out even though the shortfall was 4000.
  EXPECT_EQ(rt.device_bytes_evicted(0), 8000u);
  const TimelineEntry* evict = nullptr;
  const TimelineEntry* fault = nullptr;
  const std::vector<TimelineEntry> entries = rt.timeline().entries().to_vector();
  for (const TimelineEntry& e : entries) {
    if (e.kind == OpKind::CopyD2H && e.name == "evict:victim") evict = &e;
    if (e.kind == OpKind::Fault && e.name == "fault:incoming") fault = &e;
  }
  ASSERT_NE(evict, nullptr);
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(evict->bytes, 8000.0);
  EXPECT_GE(fault->start, evict->end);
  // The evicted half is fetchable again: nothing was lost.
  rt.host_read(victim);
}

// --- async bursts stall like a page fault instead of throwing -----------

TEST(Eviction, AsyncLaunchBurstStallsInsteadOfThrowing) {
  // Two back-to-back async launches whose combined working sets exceed the
  // device: the second admission finds the first launch's array pinned by
  // its in-flight ops. A real UM fault stalls until frames free — the
  // runtime models the stall (drain + retry) rather than raising
  // OutOfMemoryError, which is reserved for a single op that can never fit.
  GpuRuntime rt(small_device(8000));
  const ArrayId x = rt.alloc(8000, "x");
  const ArrayId y = rt.alloc(8000, "y");
  rt.host_write(x);
  rt.host_write(y);
  const StreamId s1 = rt.create_stream();
  const StreamId s2 = rt.create_stream();
  rt.launch(kDefaultStream, kernel_spec("kx", {{x, true}}));
  rt.synchronize_device();
  rt.launch(s1, kernel_spec("ky", {{y, false}}));  // evicts x (write-back)
  // No synchronize: y is pinned by ky's in-flight ops when x re-faults.
  EXPECT_NO_THROW(rt.launch(s2, kernel_spec("kx2", {{x, false}})));
  rt.synchronize_device();
  EXPECT_GE(rt.bytes_evicted(), 16000u);  // x out, then y out
  rt.host_read(x);  // nothing was lost
}

// --- re-faults order behind in-flight write-backs -----------------------

TEST(Eviction, RefaultWaitsForTheInFlightWriteback) {
  // `a` is paged out with a write-back and immediately re-faulted from
  // another stream while the D2H is still in flight: the host copy only
  // materializes when the write-back lands, so the fault must start after
  // it — not race it.
  GpuRuntime rt(small_device(8000));
  const ArrayId a = rt.alloc(4000, "a");
  const ArrayId b = rt.alloc(4000, "b");
  const ArrayId c = rt.alloc(4000, "c");
  for (const ArrayId id : {a, b, c}) rt.host_write(id);
  const StreamId s1 = rt.create_stream();
  const StreamId s2 = rt.create_stream();
  rt.launch(kDefaultStream, kernel_spec("ka", {{a, true}}));  // only copy
  rt.synchronize_device();
  rt.launch(kDefaultStream, kernel_spec("kb", {{b, false}}));
  rt.synchronize_device();  // LRU order: a, then b
  // Evicts `a` (LRU write-back); the D2H is still running when the next
  // launch re-faults `a`, dropping `b` for free to make room.
  rt.launch(s1, kernel_spec("kc", {{c, false}}));
  rt.launch(s2, kernel_spec("ka2", {{a, false}}));
  rt.synchronize_device();
  const TimelineEntry* evict = nullptr;
  const TimelineEntry* fault = nullptr;
  const std::vector<TimelineEntry> entries = rt.timeline().entries().to_vector();
  for (const TimelineEntry& e : entries) {
    if (e.kind == OpKind::CopyD2H && e.name == "evict:a") evict = &e;
    if (e.kind == OpKind::Fault && e.name == "fault:a") fault = &e;
  }
  ASSERT_NE(evict, nullptr);
  ASSERT_NE(fault, nullptr);
  EXPECT_GE(fault->start, evict->end);
}

// --- partial-fresh arrays fetch only their stale runs -------------------

TEST(Eviction, PartialEvictionRefetchesOnlyTheEvictedRuns) {
  // 1000-byte pages: the 4000-byte array spans four. Admitting a one-page
  // array evicts exactly one page; relaunching on the victim faults back
  // only that page.
  GpuRuntime rt(Machine::single(small_device(4000)), /*page_bytes=*/1000);
  const ArrayId big = rt.alloc(4000, "big");
  const ArrayId one = rt.alloc(1000, "one");
  rt.host_write(big);
  rt.host_write(one);
  rt.launch(kDefaultStream, kernel_spec("k1", {{big, false}}));
  rt.synchronize_device();
  rt.launch(kDefaultStream, kernel_spec("k2", {{one, false}}));
  rt.synchronize_device();
  EXPECT_EQ(rt.memory().info(big).resident_bytes_on(0), 3000u);

  const double faulted_before = rt.bytes_faulted();
  rt.launch(kDefaultStream, kernel_spec("k3", {{big, false}}));
  rt.synchronize_device();
  // Only the evicted 1000-byte run moved, not the whole array.
  EXPECT_EQ(rt.bytes_faulted() - faulted_before, 1000.0);
  EXPECT_EQ(rt.memory().info(big).resident_bytes_on(0), 4000u);
}

// --- advise hooks --------------------------------------------------------

TEST(Eviction, AdviseEvictReleasesPagesAndPricesWritebacks) {
  GpuRuntime rt(small_device(8000));
  const ArrayId a = rt.alloc(4000, "a");
  rt.host_write(a);
  rt.launch(kDefaultStream, kernel_spec("k", {{a, true}}));
  rt.synchronize_device();
  ASSERT_EQ(rt.device_bytes_used(0), 4000u);
  const std::size_t freed = rt.advise_evict(a, 0);
  EXPECT_EQ(freed, 4000u);
  EXPECT_EQ(rt.device_bytes_used(0), 0u);
  EXPECT_EQ(rt.evict_ops(), 1);  // kernel-written: needs a write-back
  rt.synchronize_device();
  rt.host_read(a);  // data survived on the host
  // Evicting an already-evicted array is a no-op.
  EXPECT_EQ(rt.advise_evict(a, 0), 0u);
}

TEST(Eviction, FreeDuringInFlightWritebackDrainsThePageOut) {
  // The write-back is runtime-initiated traffic the caller never issued:
  // freeing its array stalls until the page-out lands instead of raising
  // the missing-synchronization error reserved for user ops.
  GpuRuntime rt(small_device(8000));
  const ArrayId a = rt.alloc(4000, "a");
  rt.host_write(a);
  rt.launch(kDefaultStream, kernel_spec("k", {{a, true}}));
  rt.synchronize_device();
  ASSERT_EQ(rt.advise_evict(a, 0), 4000u);  // write-back now in flight
  EXPECT_NO_THROW(rt.free_array(a));
  EXPECT_EQ(rt.memory().num_live_arrays(), 0u);
  rt.synchronize_device();  // nothing left dangling
}

// --- golden-equivalence guard -------------------------------------------

TEST(Eviction, UnderCapacityWorkloadsAreBitIdenticalToUnpagedRuns) {
  // The same program against an exactly-fitting device and against one
  // with effectively unlimited memory: identical timelines, zero
  // evictions. (The pre-paging engine is additionally pinned by the
  // golden fixture suite, which runs the full runtime stack.)
  auto run = [](std::size_t cap) {
    GpuRuntime rt(small_device(cap));
    const ArrayId x = rt.alloc(4000, "x");
    const ArrayId y = rt.alloc(4000, "y");
    rt.host_write(x);
    const StreamId s1 = rt.create_stream();
    rt.launch(kDefaultStream, kernel_spec("kx", {{x, false}, {y, true}}));
    rt.launch(s1, kernel_spec("ky", {{y, false}}));
    rt.mem_prefetch_async(x, s1);
    rt.launch(s1, kernel_spec("kz", {{x, true}}));
    rt.synchronize_device();
    rt.host_read(y);
    struct Result {
      std::vector<TimelineEntry> entries;
      std::size_t evicted;
      TimeUs now;
    };
    return Result{rt.timeline().entries().to_vector(), rt.bytes_evicted(), rt.now()};
  };
  const auto exact = run(8000);
  const auto huge = run(1u << 30);
  EXPECT_EQ(exact.evicted, 0u);
  EXPECT_EQ(huge.evicted, 0u);
  test::expect_time_near(exact.now, huge.now, "now");
  test::expect_same_timeline(exact.entries, huge.entries);
}

}  // namespace
}  // namespace psched::sim

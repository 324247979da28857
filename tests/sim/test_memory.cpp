#include <gtest/gtest.h>

#include "sim/device_spec.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"

namespace psched::sim {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  DeviceSpec spec_ = DeviceSpec::test_device();  // 1 GiB
  MemoryManager mem_{spec_};
};

TEST_F(MemoryTest, AllocTracksUsage) {
  const ArrayId a = mem_.alloc(1000, "a");
  const ArrayId b = mem_.alloc(2000, "b");
  EXPECT_NE(a, b);
  EXPECT_EQ(mem_.used_bytes(), 3000u);
  EXPECT_EQ(mem_.num_live_arrays(), 2u);
}

TEST_F(MemoryTest, FreshArrayIsUntouched) {
  // First-touch semantics: a fresh allocation has no host data yet, so it
  // needs no migration until the host actually writes it.
  const ArrayId a = mem_.alloc(1000, "a");
  const ArrayInfo& info = mem_.info(a);
  EXPECT_EQ(info.resident_mask, 0u);
  EXPECT_FALSE(info.host_touched);
  EXPECT_FALSE(info.needs_h2d());
}

TEST_F(MemoryTest, FreeReleasesBytes) {
  const ArrayId a = mem_.alloc(1000, "a");
  mem_.free_array(a);
  EXPECT_EQ(mem_.used_bytes(), 0u);
  EXPECT_EQ(mem_.num_live_arrays(), 0u);
}

TEST_F(MemoryTest, AllocOversubscribesDeviceMemoryUpToTheHostHeap) {
  // Device memory is oversubscribable: alloc is bounded by the managed
  // (host) heap, not by device capacity — admission pages data in later.
  EXPECT_EQ(mem_.host_capacity(),
            MemoryManager::kHostHeapMultiple * spec_.memory_bytes);
  EXPECT_NO_THROW(mem_.alloc(2 * spec_.memory_bytes, "oversubscribed"));
  EXPECT_THROW(mem_.alloc(mem_.host_capacity(), "overflow"),
               OutOfMemoryError);
}

TEST_F(MemoryTest, HostHeapOutOfMemoryCarriesTheAccounting) {
  mem_.alloc(100, "a");
  try {
    mem_.alloc(mem_.host_capacity(), "overflow");
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    EXPECT_EQ(e.device, kInvalidDevice);  // host-side managed heap
    EXPECT_EQ(e.requested, mem_.host_capacity());
    EXPECT_EQ(e.in_use, 100u);
    EXPECT_EQ(e.capacity, mem_.host_capacity());
    EXPECT_EQ(e.evictable, 0u);
  }
}

TEST_F(MemoryTest, FreeingMakesRoom) {
  const ArrayId a = mem_.alloc(mem_.host_capacity(), "all");
  EXPECT_THROW(mem_.alloc(1, "no"), OutOfMemoryError);
  mem_.free_array(a);
  EXPECT_NO_THROW(mem_.alloc(mem_.host_capacity(), "again"));
}

TEST_F(MemoryTest, ZeroByteAllocThrows) {
  EXPECT_THROW(mem_.alloc(0, "zero"), ApiError);
}

TEST_F(MemoryTest, DoubleFreeThrows) {
  const ArrayId a = mem_.alloc(100, "a");
  mem_.free_array(a);
  EXPECT_THROW(mem_.free_array(a), ApiError);
}

TEST_F(MemoryTest, UseAfterFreeThrows) {
  const ArrayId a = mem_.alloc(100, "a");
  mem_.free_array(a);
  EXPECT_THROW((void)mem_.info(a), ApiError);
  EXPECT_FALSE(mem_.valid(a));
}

TEST_F(MemoryTest, UnknownArrayThrows) {
  EXPECT_THROW((void)mem_.info(424242), ApiError);
  EXPECT_FALSE(mem_.valid(424242));
}

TEST_F(MemoryTest, FreeWithPendingOpsThrows) {
  const ArrayId a = mem_.alloc(100, "a");
  mem_.info(a).pending_reads.insert(7);
  EXPECT_THROW(mem_.free_array(a), ApiError);
  mem_.info(a).erase_pending(7);
  mem_.info(a).pending_writes.insert(9);
  EXPECT_THROW(mem_.free_array(a), ApiError);
  mem_.info(a).erase_pending(9);
  EXPECT_NO_THROW(mem_.free_array(a));
}

// --- per-device capacity accounting ---

TEST_F(MemoryTest, OutOfMemoryIsAnApiError) {
  // The ROADMAP contract: exhausting the managed heap raises an ApiError
  // (OutOfMemoryError specializes it).
  mem_.alloc(mem_.host_capacity(), "all");
  EXPECT_THROW(mem_.alloc(1, "over"), ApiError);
}

class PerDeviceMemoryTest : public ::testing::Test {
 protected:
  static Machine small_machine() {
    DeviceSpec a = DeviceSpec::test_device();
    a.memory_bytes = 10000;
    DeviceSpec b = DeviceSpec::test_device();
    b.memory_bytes = 4000;
    Machine m;
    m.add_device(a);
    m.add_device(b);
    return m;
  }
  MemoryManager mem_{small_machine()};
};

TEST_F(PerDeviceMemoryTest, CapacitiesComeFromTheRoster) {
  EXPECT_EQ(mem_.num_devices(), 2);
  EXPECT_EQ(mem_.device_capacity(0), 10000u);
  EXPECT_EQ(mem_.device_capacity(1), 4000u);
  EXPECT_EQ(mem_.capacity(), 14000u);  // alloc bound: combined roster
  EXPECT_THROW((void)mem_.device_capacity(2), ApiError);
}

TEST_F(PerDeviceMemoryTest, ChargeIsIdempotentAndTracksPeak) {
  const ArrayId a = mem_.alloc(3000, "a");
  ArrayInfo& info = mem_.info(a);
  mem_.charge_residency(info, 0);
  mem_.charge_residency(info, 0);  // idempotent
  EXPECT_EQ(mem_.device_used_bytes(0), 3000u);
  EXPECT_EQ(mem_.device_used_bytes(1), 0u);
  mem_.charge_residency(info, 1);
  EXPECT_EQ(mem_.device_used_bytes(1), 3000u);
  EXPECT_EQ(info.resident_mask, 0b11u);

  mem_.free_array(a);
  EXPECT_EQ(mem_.device_used_bytes(0), 0u);
  EXPECT_EQ(mem_.device_used_bytes(1), 0u);
  // Peaks survive the free.
  EXPECT_EQ(mem_.device_peak_bytes(0), 3000u);
  EXPECT_EQ(mem_.device_peak_bytes(1), 3000u);
}

TEST_F(PerDeviceMemoryTest, OverCapacityAdmissionEvictsTheLruVictim) {
  const ArrayId a = mem_.alloc(3000, "a");
  const ArrayId b = mem_.alloc(3000, "b");
  ArrayInfo& ia = mem_.info(a);
  ArrayInfo& ib = mem_.info(b);
  EXPECT_TRUE(mem_.charge_residency(ia, 1).empty());  // 3000 of 4000
  // Admitting b (3000 more) overflows device 1: a's pages are paged out.
  const EvictionPlan plan = mem_.charge_residency(ib, 1);
  ASSERT_EQ(plan.page_outs.size(), 1u);
  EXPECT_EQ(plan.page_outs.front().array, a);
  EXPECT_EQ(plan.bytes_freed, 3000u);
  EXPECT_FALSE(plan.page_outs.front().writeback);  // a was never written
  EXPECT_EQ(ia.resident_mask, 0u);
  EXPECT_EQ(ib.resident_mask, 0b10u);
  EXPECT_EQ(mem_.device_used_bytes(1), 3000u);
  EXPECT_EQ(mem_.device_evicted_bytes(1), 3000u);
}

TEST_F(PerDeviceMemoryTest, SingleWorkingSetBeyondCapacityStillThrows) {
  // OutOfMemoryError remains only when one operation's working set cannot
  // fit the device even after paging everything else out.
  const ArrayId filler = mem_.alloc(3000, "filler");
  mem_.charge_residency(mem_.info(filler), 1);
  const ArrayId big = mem_.alloc(5000, "big");
  try {
    mem_.charge_residency(mem_.info(big), 1);  // 5000 > 4000 capacity
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    EXPECT_EQ(e.device, 1);
    EXPECT_EQ(e.requested, 5000u);
    EXPECT_EQ(e.in_use, 3000u);
    EXPECT_EQ(e.capacity, 4000u);
    EXPECT_EQ(e.evictable, 3000u);
  }
  // Rejected before any state change: the filler stayed resident.
  EXPECT_EQ(mem_.device_used_bytes(1), 3000u);
  EXPECT_EQ(mem_.info(filler).resident_mask, 0b10u);
  // The same array fits on the larger device.
  EXPECT_NO_THROW(mem_.charge_residency(mem_.info(big), 0));
}

TEST_F(PerDeviceMemoryTest, PendingAndPinnedPagesAreNotEvictable) {
  const ArrayId a = mem_.alloc(2000, "a");
  const ArrayId b = mem_.alloc(2000, "b");
  const ArrayId c = mem_.alloc(2000, "c");
  mem_.charge_residency(mem_.info(a), 1);
  mem_.charge_residency(mem_.info(b), 1);  // device 1 full (4000)
  mem_.info(a).pending_reads.insert(7);    // a: in-flight device op
  mem_.set_pinned(mem_.info(b), 1, true);  // b: pinned
  try {
    mem_.charge_residency(mem_.info(c), 1);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    EXPECT_EQ(e.evictable, 0u);  // neither a nor b may be paged out
  }
  mem_.info(a).erase_pending(7);
  mem_.set_pinned(mem_.info(b), 1, false);
  EXPECT_EQ(mem_.evictable_bytes(1), 4000u);
  EXPECT_NO_THROW(mem_.charge_residency(mem_.info(c), 1));
}

TEST_F(PerDeviceMemoryTest, PartialEvictionSplitsExtents) {
  // Small pages so one array spans many: the plan takes only the pages it
  // needs from the LRU victim, leaving a partial-resident array behind.
  MemoryManager mem(small_machine(), /*page_bytes=*/1000);
  const ArrayId a = mem.alloc(4000, "a");  // 4 pages, fills device 1
  const ArrayId b = mem.alloc(1000, "b");  // needs 1 page
  mem.charge_residency(mem.info(a), 1);
  const EvictionPlan plan = mem.charge_residency(mem.info(b), 1);
  ASSERT_EQ(plan.page_outs.size(), 1u);
  EXPECT_EQ(plan.page_outs.front().array, a);
  EXPECT_EQ(plan.page_outs.front().count, 1u);  // one page, not all four
  EXPECT_EQ(plan.bytes_freed, 1000u);
  EXPECT_EQ(mem.info(a).resident_bytes_on(1), 3000u);
  EXPECT_EQ(mem.info(a).extents.size(), 2u);  // split: evicted + resident
  EXPECT_EQ(mem.device_used_bytes(1), 4000u);  // 3000 of a + 1000 of b
}

TEST_F(PerDeviceMemoryTest, WritebackHandsTheOnlyCopyToTheHost) {
  const ArrayId a = mem_.alloc(3000, "a");
  const ArrayId b = mem_.alloc(3000, "b");
  ArrayInfo& ia = mem_.info(a);
  mem_.charge_residency(ia, 1);
  ia.note_kernel_write(1);  // device 1 holds the only current copy
  ASSERT_EQ(ia.extents.size(), 1u);
  EXPECT_FALSE(ia.extents.front().host_fresh);
  EXPECT_EQ(ia.extents.front().fresh_mask, 0b10u);
  const EvictionPlan plan = mem_.charge_residency(mem_.info(b), 1);
  ASSERT_EQ(plan.page_outs.size(), 1u);
  EXPECT_TRUE(plan.page_outs.front().writeback);
  EXPECT_EQ(plan.writeback_bytes, 3000u);
  EXPECT_EQ(mem_.device_writeback_bytes(1), 3000u);
  // The host now owns the newest version; nothing was lost.
  for (const PageExtent& e : ia.extents) EXPECT_TRUE(e.host_fresh);
  EXPECT_TRUE(ia.host_touched);
  EXPECT_TRUE(ia.needs_transfer_to(1));  // and it can be fetched back
}

TEST_F(MemoryTest, ResidencyFlagsRoundTrip) {
  const ArrayId a = mem_.alloc(100, "a");
  ArrayInfo& info = mem_.info(a);
  info.note_host_write();  // host data, no device copy
  EXPECT_TRUE(info.needs_h2d());
  EXPECT_TRUE(info.host_sourced());
  mem_.charge_residency(info, 0);
  info.note_migrated(0);  // charged and current on device 0
  EXPECT_FALSE(info.needs_h2d());
  EXPECT_FALSE(info.host_sourced());
  info.note_host_write();  // host wrote: device copy stale again
  EXPECT_EQ(info.resident_mask, 1u);
  EXPECT_EQ(info.extents.front().fresh_mask, 0u);
  EXPECT_TRUE(info.needs_h2d());
  EXPECT_TRUE(info.host_sourced());
}

}  // namespace
}  // namespace psched::sim

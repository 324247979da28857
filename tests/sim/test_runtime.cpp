#include <gtest/gtest.h>

#include <vector>

#include "sim/runtime.hpp"

namespace psched::sim {
namespace {

LaunchSpec simple_kernel(const std::string& name, std::vector<ArrayUse> arrays,
                         double flops_sp = 1e6) {
  LaunchSpec s;
  s.name = name;
  s.config = LaunchConfig::linear(16, 256);  // fills the 4-SM test device
  s.profile.flops_sp = flops_sp;
  s.arrays = std::move(arrays);
  return s;
}

class RuntimeTest : public ::testing::Test {
 protected:
  GpuRuntime rt_{DeviceSpec::test_device()};
};

TEST_F(RuntimeTest, HostClockAdvances) {
  EXPECT_DOUBLE_EQ(rt_.now(), 0);
  rt_.host_advance(10);
  EXPECT_DOUBLE_EQ(rt_.now(), 10);
  EXPECT_THROW(rt_.host_advance(-1), ApiError);
}

TEST_F(RuntimeTest, LaunchCostsHostOverhead) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  EXPECT_DOUBLE_EQ(rt_.now(), GpuRuntime::kLaunchCpuOverheadUs);
}

TEST_F(RuntimeTest, StaleArrayFaultsOnPascalPlus) {
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.host_write(a);  // host initializes the input
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  rt_.synchronize_device();
  const auto& entries = rt_.timeline().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, OpKind::Fault);
  EXPECT_DOUBLE_EQ(entries[0].bytes, 10000);
  EXPECT_EQ(entries[1].kind, OpKind::Kernel);
  // The kernel starts only after its data has migrated.
  EXPECT_GE(entries[1].start, entries[0].end);
  EXPECT_DOUBLE_EQ(rt_.bytes_faulted(), 10000);
  EXPECT_DOUBLE_EQ(rt_.bytes_h2d(), 0);
}

TEST_F(RuntimeTest, PrePascalCopiesAheadAtFullBandwidth) {
  DeviceSpec spec = DeviceSpec::test_device();
  spec.page_fault_um = false;
  GpuRuntime rt(spec);
  const ArrayId a = rt.alloc(10000, "a");
  rt.host_write(a);
  rt.launch(kDefaultStream, simple_kernel("k", {{a, false}}));
  rt.synchronize_device();
  const auto& entries = rt.timeline().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, OpKind::CopyH2D);
  // Full PCIe bandwidth: 1e4 bytes at 1e4 B/us = 1us.
  EXPECT_NEAR(entries[0].end - entries[0].start, 1.0, 1e-9);
}

TEST_F(RuntimeTest, PrefetchAvoidsFault) {
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.host_write(a);
  rt_.mem_prefetch_async(a, kDefaultStream);
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, false}}));
  rt_.synchronize_device();
  const auto& entries = rt_.timeline().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, OpKind::CopyH2D);  // full-bandwidth prefetch
  EXPECT_EQ(entries[1].kind, OpKind::Kernel);
  EXPECT_DOUBLE_EQ(rt_.bytes_faulted(), 0);
  EXPECT_DOUBLE_EQ(rt_.bytes_h2d(), 10000);
}

TEST_F(RuntimeTest, PrefetchOfUpToDateArrayIsNoop) {
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.host_write(a);
  rt_.mem_prefetch_async(a, kDefaultStream);
  rt_.mem_prefetch_async(a, kDefaultStream);  // second one: nothing to move
  rt_.synchronize_device();
  EXPECT_DOUBLE_EQ(rt_.bytes_h2d(), 10000);
}

TEST_F(RuntimeTest, UntouchedArrayNeverMigrates) {
  // First-touch semantics: an allocation the host never wrote has no data
  // to move — neither an explicit prefetch nor a kernel launch transfers
  // anything (kernel output buffers materialize directly on the device).
  const ArrayId a = rt_.alloc(10000, "a");
  rt_.mem_prefetch_async(a, kDefaultStream);
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  rt_.synchronize_device();
  EXPECT_DOUBLE_EQ(rt_.bytes_h2d(), 0);
  EXPECT_DOUBLE_EQ(rt_.bytes_faulted(), 0);
  // Once written on device, a host write invalidates and re-arms migration.
  rt_.set_strict_hazards(false);
  rt_.host_write(a);
  rt_.launch(kDefaultStream, simple_kernel("k2", {{a, false}}));
  rt_.synchronize_device();
  EXPECT_DOUBLE_EQ(rt_.bytes_faulted(), 10000);
}

TEST_F(RuntimeTest, CrossStreamMigrationOrdersSecondKernel) {
  const StreamId s1 = rt_.create_stream();
  const StreamId s2 = rt_.create_stream();
  const ArrayId a = rt_.alloc(50000, "a");
  rt_.host_write(a);
  // Both kernels read the same stale array from different streams: only one
  // migration happens, and the second kernel must wait for it.
  rt_.launch(s1, simple_kernel("k1", {{a, false}}));
  rt_.launch(s2, simple_kernel("k2", {{a, false}}));
  rt_.synchronize_device();
  const auto& entries = rt_.timeline().entries();
  int migrations = 0;
  TimeUs mig_end = 0;
  TimeUs k2_start = 0;
  for (const auto& e : entries) {
    if (is_transfer(e.kind)) {
      ++migrations;
      mig_end = e.end;
    }
    if (e.name == "k2") k2_start = e.start;
  }
  EXPECT_EQ(migrations, 1);
  EXPECT_GE(k2_start, mig_end);
}

TEST_F(RuntimeTest, HostReadWithoutSyncIsHazard) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  EXPECT_THROW(rt_.host_read(a), ApiError);
  EXPECT_EQ(rt_.hazard_count(), 1);
}

TEST_F(RuntimeTest, NonStrictHazardBlocksInstead) {
  rt_.set_strict_hazards(false);
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  rt_.host_read(a);  // blocks until the kernel drains, then migrates back
  EXPECT_EQ(rt_.hazard_count(), 1);
  EXPECT_GT(rt_.bytes_d2h(), 0);
}

TEST_F(RuntimeTest, SyncThenReadMigratesBack) {
  const ArrayId a = rt_.alloc(4000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  rt_.synchronize_stream(kDefaultStream);
  rt_.host_read(a);
  EXPECT_EQ(rt_.hazard_count(), 0);
  EXPECT_DOUBLE_EQ(rt_.bytes_d2h(), 4000);
  // Second read: nothing more to migrate.
  rt_.host_read(a);
  EXPECT_DOUBLE_EQ(rt_.bytes_d2h(), 4000);
}

TEST_F(RuntimeTest, ReadOnlyKernelLeavesDeviceClean) {
  const ArrayId a = rt_.alloc(4000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, false}}));
  rt_.synchronize_device();
  rt_.host_read(a);
  EXPECT_DOUBLE_EQ(rt_.bytes_d2h(), 0);  // device copy never became dirty
}

TEST_F(RuntimeTest, HostReadConcurrentWithDeviceReadIsAllowed) {
  // Pascal+ unified memory: the CPU may read an array that kernels are
  // only *reading* — no hazard.
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k0", {{a, true}}));
  rt_.synchronize_device();
  rt_.host_read(a);  // pull data back so it is clean on both sides
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, false}}, 1e8));
  EXPECT_NO_THROW(rt_.host_read(a));
  EXPECT_EQ(rt_.hazard_count(), 0);
  // But a host write during a device read is a conflict.
  EXPECT_THROW(rt_.host_write(a), ApiError);
  EXPECT_EQ(rt_.hazard_count(), 1);
  rt_.synchronize_device();
}

TEST_F(RuntimeTest, PrePascalForbidsConcurrentHostRead) {
  DeviceSpec spec = DeviceSpec::test_device();
  spec.page_fault_um = false;
  GpuRuntime rt(spec);
  const ArrayId a = rt.alloc(1000, "a");
  rt.launch(kDefaultStream, simple_kernel("k", {{a, false}}, 1e8));
  EXPECT_THROW(rt.host_read(a), ApiError);
  EXPECT_EQ(rt.hazard_count(), 1);
  rt.synchronize_device();
  EXPECT_NO_THROW(rt.host_read(a));
}

TEST_F(RuntimeTest, HostWriteInvalidatesDeviceCopy) {
  const ArrayId a = rt_.alloc(6000, "a");
  rt_.host_write(a);
  rt_.launch(kDefaultStream, simple_kernel("k1", {{a, false}}));
  rt_.synchronize_device();
  rt_.host_write(a);  // new input data (streaming pattern)
  rt_.launch(kDefaultStream, simple_kernel("k2", {{a, false}}));
  rt_.synchronize_device();
  // Two separate migrations of 6000 bytes each.
  EXPECT_DOUBLE_EQ(rt_.bytes_faulted(), 12000);
}

TEST_F(RuntimeTest, FunctionalExecutionRunsAtCompletion) {
  const ArrayId a = rt_.alloc(1000, "a");
  bool ran = false;
  LaunchSpec s = simple_kernel("k", {{a, true}});
  s.functional = [&ran] { ran = true; };
  rt_.launch(kDefaultStream, s);
  EXPECT_FALSE(ran);  // asynchronous: not yet complete
  rt_.synchronize_device();
  EXPECT_TRUE(ran);
}

TEST_F(RuntimeTest, FunctionalExecutionOrderFollowsDependencies) {
  const StreamId s1 = rt_.create_stream();
  const StreamId s2 = rt_.create_stream();
  const EventId ev = rt_.create_event();
  const ArrayId a = rt_.alloc(1000, "a");
  const ArrayId b = rt_.alloc(1000, "b");
  std::vector<int> order;
  LaunchSpec k1 = simple_kernel("k1", {{a, true}}, 5e6);
  k1.functional = [&order] { order.push_back(1); };
  LaunchSpec k2 = simple_kernel("k2", {{b, true}}, 1e5);
  k2.functional = [&order] { order.push_back(2); };
  rt_.launch(s1, k1);
  rt_.record_event(ev, s1);
  rt_.stream_wait_event(s2, ev);
  rt_.launch(s2, k2);  // k2 must observe k1's completion first
  rt_.synchronize_device();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST_F(RuntimeTest, SynchronizeEventAdvancesHost) {
  const EventId ev = rt_.create_event();
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  rt_.record_event(ev, kDefaultStream);
  rt_.synchronize_event(ev);
  EXPECT_TRUE(rt_.event_done(ev));
  EXPECT_GT(rt_.now(), GpuRuntime::kLaunchCpuOverheadUs);
}

TEST_F(RuntimeTest, StreamIdleQuery) {
  const StreamId s1 = rt_.create_stream();
  EXPECT_TRUE(rt_.stream_idle(s1));
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.launch(s1, simple_kernel("k", {{a, true}}));
  EXPECT_FALSE(rt_.stream_idle(s1));
  rt_.synchronize_stream(s1);
  EXPECT_TRUE(rt_.stream_idle(s1));
}

TEST_F(RuntimeTest, FreeInUseArrayThrows) {
  const ArrayId a = rt_.alloc(1000, "a");
  rt_.launch(kDefaultStream, simple_kernel("k", {{a, true}}));
  EXPECT_THROW(rt_.free_array(a), ApiError);
  rt_.synchronize_device();
  EXPECT_NO_THROW(rt_.free_array(a));
}

TEST_F(RuntimeTest, TransferComputeOverlapBeatsSerial) {
  // Two streams: stream A runs a long kernel on resident data while stream
  // B prefetches other data — the prefetch must overlap the kernel.
  const StreamId s1 = rt_.create_stream();
  const StreamId s2 = rt_.create_stream();
  const ArrayId a = rt_.alloc(1000, "a");
  const ArrayId b = rt_.alloc(5e6, "b");
  rt_.host_write(a);
  rt_.host_write(b);
  rt_.launch(s1, simple_kernel("warm", {{a, true}}));  // migrates a (small)
  rt_.synchronize_device();

  rt_.launch(s1, simple_kernel("k1", {{a, false}}, /*flops=*/3e8));
  rt_.mem_prefetch_async(b, s2);
  rt_.synchronize_device();

  const auto metrics = rt_.timeline().overlap_metrics();
  EXPECT_GT(metrics.tc, 0.5);  // most of the transfer hides under compute
}

}  // namespace
}  // namespace psched::sim

// Multi-GPU engine scenarios: per-device solver domains, peer-link
// CopyP2P classes, and solver-work isolation across the roster.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/synthetic.hpp"
#include "sim_test_util.hpp"

namespace psched::sim {
namespace {

using test::raw_copy;
using test::raw_kernel;

Machine two_gpus(bool nvlink = true) {
  return Machine::uniform(DeviceSpec::test_device(), 2, nvlink);
}

// --- Machine roster ---

TEST(Machine, SingleRosterAndDeviceAccess) {
  const Machine m = Machine::single(DeviceSpec::test_device());
  EXPECT_EQ(m.num_devices(), 1);
  EXPECT_EQ(m.device(0).name, "TestGPU");
  EXPECT_THROW((void)m.device(1), ApiError);
}

TEST(Machine, PeerLinkDirectAndStaged) {
  Machine m = Machine::uniform(DeviceSpec::test_device(), 3);
  // No direct links: peer bandwidth stages through the host at the PCIe
  // bottleneck (test device: 10 GB/s).
  EXPECT_FALSE(m.has_peer_link(0, 1));
  EXPECT_DOUBLE_EQ(m.p2p_bw_gbps(0, 1), 10.0);
  m.set_peer_link(0, 1, 20.0);
  EXPECT_TRUE(m.has_peer_link(0, 1));
  EXPECT_TRUE(m.has_peer_link(1, 0));
  EXPECT_DOUBLE_EQ(m.p2p_bw_gbps(1, 0), 20.0);
  EXPECT_DOUBLE_EQ(m.p2p_bw_gbps(1, 2), 10.0);  // still staged
  EXPECT_THROW(m.set_peer_link(0, 0, 20.0), ApiError);
}

TEST(Machine, UniformNvlinkAllPairs) {
  const Machine m = two_gpus();
  EXPECT_TRUE(m.has_peer_link(0, 1));
  // test_device nvlink: 20 GB/s == 2e4 bytes/us per direction.
  EXPECT_DOUBLE_EQ(m.p2p_bytes_per_us(0, 1), 2e4);
}

// --- engine topology ---

TEST(MultiDeviceEngine, StreamsCarryTheirDevice) {
  Engine eng(two_gpus());
  EXPECT_EQ(eng.num_devices(), 2);
  EXPECT_EQ(eng.stream_device(kDefaultStream), 0);
  const StreamId s1 = eng.create_stream(1);
  EXPECT_EQ(eng.stream_device(s1), 1);
  EXPECT_THROW((void)eng.create_stream(2), ApiError);
  EXPECT_THROW((void)eng.stream_device(99), ApiError);
}

TEST(MultiDeviceEngine, P2PNeedsValidPeer) {
  Engine eng(two_gpus());
  const StreamId s1 = eng.create_stream(1);
  Op op = raw_copy(s1, OpKind::CopyP2P, 1e4, "p2p");
  EXPECT_THROW((void)eng.enqueue(op, 0), ApiError);  // no peer set
  op.peer = 1;  // == destination device
  EXPECT_THROW((void)eng.enqueue(op, 0), ApiError);
  op.peer = 0;
  EXPECT_NO_THROW((void)eng.enqueue(std::move(op), 0));
  eng.run_all();
}

// --- acceptance scenario (a): independent branches on different devices
// overlap in the virtual timeline ---

TEST(MultiDeviceEngine, FullDeviceKernelsOverlapAcrossDevices) {
  Engine eng(two_gpus());
  const StreamId s1 = eng.create_stream(1);
  // Two full-device kernels. On ONE device they would space-share to
  // ~200us each; on separate devices both finish at 100us.
  const OpId a = eng.enqueue(raw_kernel(kDefaultStream, 100, 4, 1.0), 0);
  const OpId b = eng.enqueue(raw_kernel(s1, 100, 4, 1.0), 0);
  eng.run_all();
  EXPECT_DOUBLE_EQ(eng.op(a).end_time, 100);
  EXPECT_DOUBLE_EQ(eng.op(b).end_time, 100);
  // The timeline records the device and the intervals overlap.
  const auto& entries = eng.timeline().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].device + entries[1].device, 1);  // one on each
  EXPECT_LT(std::max(entries[0].start, entries[1].start),
            std::min(entries[0].end, entries[1].end));
}

// --- acceptance scenario (b): a cross-device dependency serviced by a
// CopyP2P op on the correct link class ---

TEST(MultiDeviceEngine, CrossDeviceDependencyViaP2PLink) {
  Engine eng(two_gpus());
  const StreamId s1 = eng.create_stream(1);
  // Producer kernel on device 0, then a peer copy pulling its output to
  // device 1, then a consumer kernel on device 1.
  const OpId prod = eng.enqueue(raw_kernel(kDefaultStream, 50, 4, 1.0), 0);
  const EventId ev = eng.create_event();
  eng.record_event(ev, kDefaultStream, 0);
  eng.wait_event(s1, ev, 0);
  Op copy = raw_copy(s1, OpKind::CopyP2P, 4e4, "p2p:x");
  copy.peer = 0;
  const OpId xfer = eng.enqueue(std::move(copy), 0);
  const OpId cons = eng.enqueue(raw_kernel(s1, 10, 4, 1.0), 0);
  eng.run_all();

  // The copy starts when the producer finishes and moves 4e4 bytes over
  // the 2e4 bytes/us NVLink: 2us on the (0 -> 1) link class.
  EXPECT_DOUBLE_EQ(eng.op(prod).end_time, 50);
  EXPECT_DOUBLE_EQ(eng.op(xfer).start_time, 50);
  EXPECT_DOUBLE_EQ(eng.op(xfer).end_time, 52);
  EXPECT_DOUBLE_EQ(eng.op(cons).start_time, 52);

  const auto& entries = eng.timeline().entries();
  const auto it = std::find_if(
      entries.begin(), entries.end(),
      [](const TimelineEntry& e) { return e.kind == OpKind::CopyP2P; });
  ASSERT_NE(it, entries.end());
  EXPECT_EQ(it->device, 1);  // destination (the stream's device)
  EXPECT_EQ(it->peer, 0);    // source
  // Exactly the (0 -> 1) link class was solved; the reverse link never.
  EXPECT_EQ(eng.link_solve_count(0, 1), 1);
  EXPECT_EQ(eng.link_solve_count(1, 0), 0);
}

TEST(MultiDeviceEngine, StagedP2PUsesPcieBottleneck) {
  Engine eng(two_gpus(/*nvlink=*/false));
  const StreamId s1 = eng.create_stream(1);
  Op copy = raw_copy(s1, OpKind::CopyP2P, 4e4, "p2p:x");
  copy.peer = 0;
  const OpId xfer = eng.enqueue(std::move(copy), 0);
  eng.run_all();
  // Staged through host at min(PCIe, PCIe) = 1e4 bytes/us: 4us.
  EXPECT_DOUBLE_EQ(eng.op(xfer).end_time, 4);
}

TEST(MultiDeviceEngine, P2PCopiesSerializePerLinkAndShareBandwidth) {
  Engine eng(Machine::uniform(DeviceSpec::test_device(), 3, true));
  const StreamId a = eng.create_stream(1);
  const StreamId b = eng.create_stream(1);
  const StreamId c = eng.create_stream(2);
  // Two copies on the SAME directed link (0 -> 1) from different streams:
  // the link's DMA engine serializes them.
  Op c1 = raw_copy(a, OpKind::CopyP2P, 2e4, "l01a");
  c1.peer = 0;
  Op c2 = raw_copy(b, OpKind::CopyP2P, 2e4, "l01b");
  c2.peer = 0;
  // One copy on a DIFFERENT link (0 -> 2): fully concurrent.
  Op c3 = raw_copy(c, OpKind::CopyP2P, 2e4, "l02");
  c3.peer = 0;
  const OpId i1 = eng.enqueue(std::move(c1), 0);
  const OpId i2 = eng.enqueue(std::move(c2), 0);
  const OpId i3 = eng.enqueue(std::move(c3), 0);
  eng.run_all();
  EXPECT_DOUBLE_EQ(eng.op(i1).end_time, 1);
  EXPECT_DOUBLE_EQ(eng.op(i2).start_time, 1);  // serialized on the link
  EXPECT_DOUBLE_EQ(eng.op(i2).end_time, 2);
  EXPECT_DOUBLE_EQ(eng.op(i3).end_time, 1);    // other link: concurrent
}

// --- acceptance scenario (c): solver-work isolation — churn on device 0
// causes zero re-solves of device 1's kernel class ---

TEST(MultiDeviceEngine, SolverWorkIsolatedPerDevice) {
  Engine eng(two_gpus());
  const StreamId s1 = eng.create_stream(1);
  // A long kernel occupies device 1 for the whole horizon.
  const OpId longk = eng.enqueue(raw_kernel(s1, 5000, 2, 1.0), 0);
  eng.advance_to(1);  // it is running: its class was solved exactly once
  ASSERT_FALSE(eng.op_done(longk));
  const long dev1_solves_before = eng.class_solve_count(1, OpKind::Kernel);
  EXPECT_EQ(dev1_solves_before, 1);

  // Heavy membership churn on device 0: kernels, both copy directions and
  // faults arriving and completing while device 1's kernel just runs.
  for (int s = 0; s < 4; ++s) eng.create_stream(0);
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<StreamId>(2 + i % 4);
    if (i % 3 == 0) {
      eng.enqueue(raw_copy(s, i % 2 ? OpKind::CopyH2D : OpKind::CopyD2H,
                           5e3, "cp"),
                  eng.now());
    } else {
      eng.enqueue(raw_kernel(s, 3.0 + i % 5, 1 + i % 3, 0.75), eng.now());
    }
  }
  // Drain the churn but stop before the long kernel finishes.
  eng.advance_to(4000);
  ASSERT_FALSE(eng.op_done(longk));

  // Device 0 churned hard; device 1's kernel class was never re-solved.
  EXPECT_GT(eng.class_solve_count(0, OpKind::Kernel), 50);
  EXPECT_GT(eng.class_solve_count(0, OpKind::CopyH2D), 10);
  EXPECT_EQ(eng.class_solve_count(1, OpKind::Kernel), dev1_solves_before);
  EXPECT_EQ(eng.class_solve_count(1, OpKind::CopyH2D), 0);
  eng.run_all();
}

// --- the multi-device synthetic DAG drains on any roster ---

TEST(MultiDeviceEngine, MultiDeviceContentionDagDrains) {
  for (const int ndev : {1, 2, 4}) {
    Engine eng(Machine::uniform(DeviceSpec::test_device(), ndev, ndev > 1));
    build_contention_dag(eng, 600, 12);
    const TimeUs end = eng.run_all();
    EXPECT_GT(end, 0);
    EXPECT_TRUE(eng.all_idle());
    if (ndev > 1) {
      // The generator exercises the peer links.
      long p2p = 0;
      for (const auto& e : eng.timeline().entries()) {
        p2p += e.kind == OpKind::CopyP2P;
      }
      EXPECT_GT(p2p, 0);
    }
  }
}

}  // namespace
}  // namespace psched::sim

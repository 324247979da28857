// Device operation descriptors used by the engine and recorded in timelines.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace psched::sim {

/// Aggregate hardware counters for one kernel launch. These drive both the
/// timing model (FLOPs + DRAM traffic) and the Fig. 12 profiler metrics
/// (L2 traffic, instruction count).
struct KernelProfile {
  double flops_sp = 0;      ///< single-precision floating point operations
  double flops_dp = 0;      ///< double-precision floating point operations
  double dram_bytes = 0;    ///< bytes moved to/from device memory
  double l2_bytes = 0;      ///< bytes moved through the L2 cache
  double instructions = 0;  ///< total executed instructions (IPC metric)

  /// Issue-slot duty cycle in (0, 1]: the fraction of its resident warp
  /// slots the kernel can actually keep busy. 1.0 is a well-pipelined
  /// streaming kernel; low values model latency-bound kernels (strided
  /// access, long dependency chains) that leave the device under-utilized
  /// when run alone — exactly the kernels that profit from space-sharing
  /// (the paper's ML "tall matrix" kernel with IPC 0.04, section V-F).
  double duty = 1.0;

  [[nodiscard]] double flops_total() const { return flops_sp + flops_dp; }

  /// Aggregation for whole-run profiling (Fig. 12); duty is a per-launch
  /// shape parameter, not a counter, and is deliberately not summed.
  KernelProfile& operator+=(const KernelProfile& o) {
    flops_sp += o.flops_sp;
    flops_dp += o.flops_dp;
    dram_bytes += o.dram_bytes;
    l2_bytes += o.l2_bytes;
    instructions += o.instructions;
    return *this;
  }
};

/// Execution state of an op inside the engine.
enum class OpState { Queued, Running, Done };

/// One device operation: a node in a stream FIFO.
///
/// `work` is the total abstract work: for kernels it is the solo execution
/// time in microseconds (execution at rate 1.0 with an uncontended device);
/// for transfers it is the byte count (rate is then bytes/us). The fluid
/// resource model assigns each running op an instantaneous rate.
struct Op {
  OpId id = kInvalidOp;
  OpKind kind = OpKind::Marker;
  StreamId stream = kInvalidStream;
  /// Device the op executes on — derived from the stream at enqueue.
  DeviceId device = kDefaultDevice;
  /// CopyP2P only: the *source* device (the destination is `device`, the
  /// stream's device). Selects the directed link class (peer -> device).
  DeviceId peer = kInvalidDevice;
  /// Owning application — inherited from the stream at enqueue (like
  /// `device`), so recorded replays and transactions re-derive it
  /// consistently. Drives per-tenant weighted fair sharing and the
  /// per-tenant completion counters.
  TenantId tenant = kDefaultTenant;
  std::string name;

  TimeUs enqueue_time = 0;  ///< host time of the API call; earliest start

  // --- kernel demands (valid when kind == Kernel) ---
  double sm_demand = 0;   ///< SMs needed to run at full rate
  double occupancy = 0;   ///< per-SM thread occupancy in [0,1]
  double bw_need = 0;     ///< DRAM bytes/us consumed when running at rate 1
  KernelProfile prof;

  // --- transfer demands (valid for CopyH2D/CopyD2H/Fault) ---
  double bytes = 0;

  // --- progress ---
  double work = 0;
  double done = 0;
  TimeUs start_time = -1;
  TimeUs end_time = -1;
  OpState state = OpState::Queued;

  // --- engine scheduling state (managed by Engine; opaque to callers) ---
  /// Position inside the engine's per-resource-class member list (swap-and-
  /// pop removal); -1 while not running or for rate-less kinds.
  std::int32_t class_pos = -1;
  /// Slab slot of the next op on this op's stream (-1: the stream's
  /// tail). Each stream's FIFO is linked through the slab, so issuing
  /// and retiring ops allocates nothing.
  std::int32_t next_slot = -1;
  /// Pooled list of the streams whose head waits on this op through an
  /// `after` edge (-1: none); woken and returned when the op completes.
  std::int32_t after_waiters = -1;
  /// Instantaneous fluid-model rate, filled in by Engine::op() snapshots
  /// (0 unless running in a resource class).
  double rate = 0;

  /// Issued ops that must complete before this op may start: the engine's
  /// one dependency edge. The first edge rides inline in `gate` (a wait
  /// marker's event gate, so an event edge allocates nothing; see
  /// Engine::wait_on_event), any further ones in `after`. An edge waits
  /// for that op alone, not for the ops issued after it on its stream.
  OpId gate = kInvalidOp;
  std::vector<OpId> after;

  /// Invoked exactly once when the op completes (functional execution of
  /// kernels, residency bookkeeping, test hooks).
  std::function<void()> on_complete;

  [[nodiscard]] double remaining() const { return work - done; }
};

}  // namespace psched::sim

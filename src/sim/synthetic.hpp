// Synthetic DAG generators for engine-level benchmarks and tests.
//
// These build deterministic multi-stream workloads straight at the engine
// API (no runtime stack): the scheduler-overhead microbenchmark times them,
// and the golden-equivalence suite pins their virtual timelines against
// fixtures recorded from the seed engine.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/engine.hpp"

namespace psched::sim {

/// The contention DAG's kernel mix: op `i`'s kernel on stream `s`
/// (varying SM demand, occupancy and DRAM appetite).
inline Op contention_kernel(int i, StreamId s) {
  Op op;
  op.kind = OpKind::Kernel;
  op.stream = s;
  op.name = "k";
  op.work = 5.0 + (i % 11);
  op.sm_demand = 1 + (i % 4);
  op.occupancy = 0.5 + 0.5 * ((i % 3) / 2.0);
  op.bw_need = (i % 5 == 0) ? 50.0 : 0.0;
  return op;
}

/// Fig. 9-style contention DAG, generic emitter: `n_ops` ops round-robined
/// over `n_streams` streams — a mix of kernels (contention_kernel),
/// explicit copies in both directions (serializing on the DMA engines),
/// page-fault migrations, and cross-stream event edges every 8th op.
/// Streams are spread round-robin over the engine's device roster (stream
/// j lives on device j % num_devices), so with several GPUs the event
/// edges cross devices and a slice of the copies become CopyP2P pulls
/// from the previous device. Streams and events are created on the
/// engine; the op/record/wait calls themselves flow through the three
/// sinks in issue order, so the same DAG can be driven per-call, through
/// a Submission, or through any host-clock replay. Deterministic: the
/// same (n_ops, n_streams, machine) always produces the same sequence.
template <typename EnqueueFn, typename RecordFn, typename WaitFn>
inline void emit_contention_dag(Engine& eng, int n_ops, int n_streams,
                                EnqueueFn&& enqueue, RecordFn&& record,
                                WaitFn&& wait) {
  const int n_devices = eng.num_devices();
  for (int i = 1; i < n_streams; ++i) {
    eng.create_stream(static_cast<DeviceId>(i % n_devices));
  }
  for (int i = 0; i < n_ops; ++i) {
    const auto s = static_cast<StreamId>(i % n_streams);
    Op op;
    if (i % 3 == 1) {
      if (n_devices > 1 && i % 12 == 7) {
        const DeviceId dev = eng.stream_device(s);
        op.kind = OpKind::CopyP2P;
        op.peer = static_cast<DeviceId>((dev + n_devices - 1) % n_devices);
      } else {
        op.kind = (i % 6 == 1) ? OpKind::CopyH2D : OpKind::CopyD2H;
      }
      op.bytes = 1e4 + (i % 7) * 1e3;
      op.work = op.bytes;
      op.name = "cp";
    } else if (i % 16 == 9) {
      op.kind = OpKind::Fault;
      op.bytes = 5e3 + (i % 5) * 1e3;
      op.work = op.bytes;
      op.name = "fault";
    } else {
      op = contention_kernel(i, s);
    }
    op.stream = s;
    if (i % 8 == 7 && i > 32) {
      const EventId ev = eng.create_event();
      record(ev, static_cast<StreamId>((i - 1) % n_streams));
      wait(s, ev);
    }
    enqueue(std::move(op));
  }
}

/// The bulk builder: emit straight into the engine at host time 0.
inline void build_contention_dag(Engine& eng, int n_ops, int n_streams) {
  emit_contention_dag(
      eng, n_ops, n_streams,
      [&eng](Op op) { eng.enqueue(std::move(op), 0); },
      [&eng](EventId ev, StreamId s) { eng.record_event(ev, s, 0); },
      [&eng](StreamId s, EventId ev) { eng.wait_event(s, ev, 0); });
}

/// DAG shapes for the scheduler-overhead shape axis. All three use the
/// contention DAG's kernel mix; they differ only in dependency structure.
enum class DagShape {
  Wide,     ///< fully independent ops: maximal parallel frontier
  Deep,     ///< one serialized chain across streams (event-edge diagonal)
  Diamond,  ///< repeated fan-out / fan-in blocks (root -> k children -> join)
};

[[nodiscard]] inline const char* to_string(DagShape s) {
  switch (s) {
    case DagShape::Wide: return "wide";
    case DagShape::Deep: return "deep";
    case DagShape::Diamond: return "diamond";
  }
  return "?";
}

/// Shaped synthetic DAG: `n_ops` kernels over `n_streams` streams wired as
/// `shape`. Deterministic; all enqueues at host time 0. The kernels are
/// contention_kernel's mix, so throughput numbers compare across shapes
/// rather than across cost models.
inline void build_shaped_dag(Engine& eng, DagShape shape, int n_ops,
                             int n_streams) {
  for (int i = 1; i < n_streams; ++i) eng.create_stream();
  switch (shape) {
    case DagShape::Wide:
      for (int i = 0; i < n_ops; ++i) {
        eng.enqueue(contention_kernel(i, static_cast<StreamId>(i % n_streams)), 0);
      }
      break;
    case DagShape::Deep:
      // One chain threaded across the streams: op i waits on op i-1 via a
      // cross-stream event, so the frontier is a single op however many
      // streams exist.
      for (int i = 0; i < n_ops; ++i) {
        const auto s = static_cast<StreamId>(i % n_streams);
        if (i > 0) {
          const EventId ev = eng.create_event();
          eng.record_event(ev, static_cast<StreamId>((i - 1) % n_streams), 0);
          eng.wait_event(s, ev, 0);
        }
        eng.enqueue(contention_kernel(i, s), 0);
      }
      break;
    case DagShape::Diamond: {
      // Blocks of (1 root -> fan children -> 1 join); the join of one block
      // gates the next block's root through the stream-0 FIFO. With a
      // single stream the children simply share stream 0 (the shape
      // degenerates to a chain, but stays well-defined).
      const int fan = std::max(2, n_streams - 2);
      const int child_lanes = std::max(1, n_streams - 1);
      int i = 0;
      while (i < n_ops) {
        eng.enqueue(contention_kernel(i++, 0), 0);  // root (stream 0)
        const EventId root_ev = eng.create_event();
        eng.record_event(root_ev, 0, 0);
        std::vector<EventId> child_evs;
        for (int c = 0; c < fan && i < n_ops; ++c) {
          const auto s = static_cast<StreamId>(
              n_streams > 1 ? 1 + c % child_lanes : 0);
          eng.wait_event(s, root_ev, 0);
          eng.enqueue(contention_kernel(i++, s), 0);
          const EventId ev = eng.create_event();
          eng.record_event(ev, s, 0);
          child_evs.push_back(ev);
        }
        if (i < n_ops) {
          for (const EventId ev : child_evs) eng.wait_event(0, ev, 0);
          eng.enqueue(contention_kernel(i++, 0), 0);  // join (gates the next root)
        }
      }
      break;
    }
  }
}

/// Transfer-churn DAG (the paper's B&S story: independent chains fighting
/// over PCIe while long kernels occupy the device). `n_kernels` long
/// kernels run on their own streams for most of the horizon while
/// `n_copies` short transfers (both directions, plus a fault sprinkle)
/// churn through `n_copy_streams` streams. The kernel membership barely
/// changes, so an incremental per-class solver re-prices kernels a handful
/// of times; a full re-solve per running-set change re-prices them on every
/// copy completion.
inline void build_transfer_churn_dag(Engine& eng, int n_kernels, int n_copies,
                                     int n_copy_streams) {
  for (int i = 1; i < n_kernels + n_copy_streams; ++i) eng.create_stream();
  for (int i = 0; i < n_kernels; ++i) {
    Op op;
    op.kind = OpKind::Kernel;
    op.stream = static_cast<StreamId>(i);
    op.name = "longk";
    op.work = 400.0 + 10 * i;
    op.sm_demand = 1 + (i % 3);
    op.occupancy = 0.75;
    op.bw_need = (i % 2 == 0) ? 30.0 : 0.0;
    eng.enqueue(std::move(op), 0);
  }
  for (int i = 0; i < n_copies; ++i) {
    Op op;
    if (i % 8 == 3) {
      op.kind = OpKind::Fault;
      op.name = "fault";
    } else {
      op.kind = (i % 2 == 0) ? OpKind::CopyH2D : OpKind::CopyD2H;
      op.name = "cp";
    }
    op.stream = static_cast<StreamId>(n_kernels + i % n_copy_streams);
    op.bytes = 2e3 + (i % 9) * 5e2;
    op.work = op.bytes;
    eng.enqueue(std::move(op), 0);
  }
}

}  // namespace psched::sim

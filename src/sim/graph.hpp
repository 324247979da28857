// CUDA-Graphs-like explicit task graph API (the Fig. 8 baseline).
//
// A TaskGraph is a pre-declared DAG of kernel / copy / empty nodes with
// manually specified dependencies — the programming model the paper compares
// against. Graphs are built either directly (add_* + add_dependency, the
// "manual dependencies" variant) or by stream capture (the "+events"
// variant: hand-written multi-stream code recorded through GpuRuntime).
//
// Instantiation validates acyclicity and computes a static stream
// assignment; launching replays the nodes onto internal streams with event
// synchronization for cross-stream edges. Instantiation cost is paid once
// and amortized over repeated launches, mirroring the real API.
//
// Faithful to the paper's observation, a captured cudaMemPrefetchAsync is
// *dropped* (the CUDA Graphs of the paper could not prefetch); replayed
// kernels therefore migrate data over the page-fault path on Pascal+.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/runtime.hpp"
#include "sim/types.hpp"

namespace psched::sim {

class TaskGraph {
 public:
  using NodeId = int;
  static constexpr NodeId kNoNode = -1;

  enum class NodeKind { Kernel, CopyH2D, Empty };

  struct Node {
    NodeId id = kNoNode;
    NodeKind kind = NodeKind::Empty;
    std::string name;
    LaunchSpec spec;              // Kernel nodes
    ArrayId array = kInvalidArray;  // CopyH2D nodes
    std::vector<NodeId> deps;     // nodes that must complete before this one
  };

  // --- manual construction ---
  NodeId add_kernel(LaunchSpec spec);
  NodeId add_h2d(ArrayId array, std::string name = "h2d");
  NodeId add_empty(std::string name = "empty");
  void add_dependency(NodeId before, NodeId after);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_edges() const;
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  /// True if a prefetch was dropped during capture.
  [[nodiscard]] bool prefetch_dropped() const { return prefetch_dropped_; }

  // --- capture hooks (invoked by GpuRuntime between begin/end_capture) ---
  void on_captured_launch(StreamId stream, const LaunchSpec& spec);
  void on_captured_h2d(StreamId stream, ArrayId array, const std::string& name);
  void on_captured_record_event(EventId event, StreamId stream);
  void on_captured_wait_event(StreamId stream, EventId event);
  void on_captured_prefetch(StreamId stream, ArrayId array);

  /// How a launch reaches the engine. There is one way: the whole graph —
  /// kernels, staged migrations, event edges — lowers into one runtime
  /// transaction, like a single cudaGraphLaunch call. The enum survives as
  /// a launch() argument for callers that name the mode explicitly. A
  /// static relaunch of a recorded op list is GpuRuntime::begin_record /
  /// end_record / replay.
  enum class Replay { Batched };

  /// Instantiated, executable graph bound to static internal streams.
  class Exec {
   public:
    /// Asynchronously replay all nodes as one engine transaction; call
    /// runtime.synchronize_device() (or sync the terminal streams) to wait
    /// for completion. If the runtime already has a batch open, the launch
    /// joins it instead of committing its own.
    void launch(GpuRuntime& rt, Replay replay = Replay::Batched);

    [[nodiscard]] std::size_t num_streams_used() const { return streams_.size(); }
    [[nodiscard]] StreamId stream_of(NodeId n) const {
      return streams_[static_cast<std::size_t>(assignment_[static_cast<std::size_t>(n)])];
    }

   private:
    friend class TaskGraph;
    /// Replay every node through the runtime (the body of launch()).
    void lower_nodes(GpuRuntime& rt);
    std::shared_ptr<const std::vector<Node>> nodes_;
    std::vector<NodeId> topo_order_;
    std::vector<int> assignment_;    // node -> index into streams_
    std::vector<StreamId> streams_;  // internal streams (created on demand)
    /// Per node: some child runs on another stream, so each launch records
    /// a completion event for it to wait on.
    std::vector<bool> cross_child_;
  };

  /// Validate (throws ApiError on cycles / bad edges) and bind to runtime.
  /// Pays the instantiation overhead on the runtime's host clock.
  [[nodiscard]] Exec instantiate(GpuRuntime& rt) const;

  /// Host-time cost model for graph management, per the paper's remark that
  /// graph creation has non-trivial overhead amortized over launches.
  static constexpr TimeUs kInstantiateBaseUs = 50.0;
  static constexpr TimeUs kInstantiatePerNodeUs = 2.0;
  static constexpr TimeUs kLaunchUs = 3.0;

 private:
  [[nodiscard]] std::vector<NodeId> topo_sort() const;  // throws on cycle

  std::vector<Node> nodes_;
  bool prefetch_dropped_ = false;

  // capture state
  std::unordered_map<StreamId, NodeId> capture_tail_;     // last node per stream
  std::unordered_map<EventId, NodeId> capture_event_src_;  // event -> node
};

}  // namespace psched::sim

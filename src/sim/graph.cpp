#include "sim/graph.hpp"

#include <algorithm>
#include <queue>

namespace psched::sim {

TaskGraph::NodeId TaskGraph::add_kernel(LaunchSpec spec) {
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = NodeKind::Kernel;
  n.name = spec.name;
  n.spec = std::move(spec);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

TaskGraph::NodeId TaskGraph::add_h2d(ArrayId array, std::string name) {
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = NodeKind::CopyH2D;
  n.name = std::move(name);
  n.array = array;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

TaskGraph::NodeId TaskGraph::add_empty(std::string name) {
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = NodeKind::Empty;
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

void TaskGraph::add_dependency(NodeId before, NodeId after) {
  if (before < 0 || after < 0 ||
      static_cast<std::size_t>(before) >= nodes_.size() ||
      static_cast<std::size_t>(after) >= nodes_.size()) {
    throw ApiError("add_dependency: invalid node id");
  }
  if (before == after) throw ApiError("add_dependency: self edge");
  auto& deps = nodes_[static_cast<std::size_t>(after)].deps;
  if (std::find(deps.begin(), deps.end(), before) == deps.end()) {
    deps.push_back(before);
  }
}

std::size_t TaskGraph::num_edges() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) n += node.deps.size();
  return n;
}

// --- capture hooks ---

void TaskGraph::on_captured_launch(StreamId stream, const LaunchSpec& spec) {
  const NodeId id = add_kernel(spec);
  auto it = capture_tail_.find(stream);
  if (it != capture_tail_.end()) add_dependency(it->second, id);
  capture_tail_[stream] = id;
}

void TaskGraph::on_captured_h2d(StreamId stream, ArrayId array,
                                const std::string& name) {
  const NodeId id = add_h2d(array, "h2d:" + name);
  auto it = capture_tail_.find(stream);
  if (it != capture_tail_.end()) add_dependency(it->second, id);
  capture_tail_[stream] = id;
}

void TaskGraph::on_captured_record_event(EventId event, StreamId stream) {
  auto it = capture_tail_.find(stream);
  // Recording on an empty captured stream maps the event to "no node".
  capture_event_src_[event] = it != capture_tail_.end() ? it->second : kNoNode;
}

void TaskGraph::on_captured_wait_event(StreamId stream, EventId event) {
  auto src = capture_event_src_.find(event);
  if (src == capture_event_src_.end()) {
    throw ApiError("stream capture: wait on an event never recorded inside "
                   "the capture region");
  }
  if (src->second == kNoNode) return;
  // Model the wait as an empty node on this stream depending on the source.
  const NodeId barrier = add_empty("wait");
  add_dependency(src->second, barrier);
  auto tail = capture_tail_.find(stream);
  if (tail != capture_tail_.end()) add_dependency(tail->second, barrier);
  capture_tail_[stream] = barrier;
}

void TaskGraph::on_captured_prefetch(StreamId /*stream*/, ArrayId /*array*/) {
  // CUDA Graphs (as evaluated in the paper) cannot represent UM prefetches:
  // the call is dropped and replayed launches fall back to fault migration.
  prefetch_dropped_ = true;
}

// --- instantiation & launch ---

std::vector<TaskGraph::NodeId> TaskGraph::topo_sort() const {
  const std::size_t n = nodes_.size();
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<NodeId>> children(n);
  for (const Node& node : nodes_) {
    for (NodeId dep : node.deps) {
      children[static_cast<std::size_t>(dep)].push_back(node.id);
      ++indegree[static_cast<std::size_t>(node.id)];
    }
  }
  // Deterministic Kahn's algorithm (min-id first).
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(static_cast<NodeId>(i));
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (NodeId c : children[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) ready.push(c);
    }
  }
  if (order.size() != n) {
    throw ApiError("task graph contains a cycle");
  }
  return order;
}

TaskGraph::Exec TaskGraph::instantiate(GpuRuntime& rt) const {
  Exec exec;
  exec.nodes_ = std::make_shared<const std::vector<Node>>(nodes_);
  exec.topo_order_ = topo_sort();

  // Static stream assignment: a node inherits the stream of its first
  // parent not yet continued by a sibling; otherwise it opens a new lane.
  const std::size_t n = nodes_.size();
  exec.assignment_.assign(n, -1);
  std::vector<bool> lane_continued(n, false);  // per node: stream continued?
  int lanes = 0;
  for (NodeId v : exec.topo_order_) {
    const Node& node = nodes_[static_cast<std::size_t>(v)];
    int lane = -1;
    for (NodeId dep : node.deps) {
      if (!lane_continued[static_cast<std::size_t>(dep)]) {
        lane = exec.assignment_[static_cast<std::size_t>(dep)];
        lane_continued[static_cast<std::size_t>(dep)] = true;
        break;
      }
    }
    if (lane < 0) lane = lanes++;
    exec.assignment_[static_cast<std::size_t>(v)] = lane;
  }
  // One pass over the edges: lanes map one-to-one onto streams, so a
  // child in another lane is a child on another stream.
  exec.cross_child_.assign(n, false);
  for (const Node& node : nodes_) {
    for (NodeId dep : node.deps) {
      if (exec.assignment_[static_cast<std::size_t>(dep)] !=
          exec.assignment_[static_cast<std::size_t>(node.id)]) {
        exec.cross_child_[static_cast<std::size_t>(dep)] = true;
      }
    }
  }
  exec.streams_.resize(static_cast<std::size_t>(lanes), kInvalidStream);
  for (auto& s : exec.streams_) s = rt.create_stream();

  rt.host_advance(kInstantiateBaseUs +
                  kInstantiatePerNodeUs * static_cast<double>(n));
  return exec;
}

void TaskGraph::Exec::launch(GpuRuntime& rt, TaskGraph::Replay /*replay*/) {
  rt.host_advance(TaskGraph::kLaunchUs);
  // Everything below appends to one open submission and reaches the
  // engine in a single transaction at commit. Joins an already open batch
  // rather than nesting.
  const bool own_batch = !rt.submitting();
  if (own_batch) rt.begin_submit();
  // The topo order about to be lowered IS the ready frontier: hand it to
  // the residency planner so admissions are future-scored and prefetch can
  // run ahead of the lowering. Skipped when the planner was already fed a
  // wider frontier (a drained ingest batch).
  const bool announced = !rt.memory().planner().active();
  if (announced) {
    std::vector<FrontierEntry> frontier;
    frontier.reserve(topo_order_.size());
    for (NodeId v : topo_order_) {
      const Node& node = (*nodes_)[static_cast<std::size_t>(v)];
      if (node.kind == NodeKind::Empty) continue;
      FrontierEntry fe;
      fe.device = rt.stream_device(stream_of(v));
      if (node.kind == NodeKind::Kernel) {
        for (const ArrayUse& use : node.spec.arrays) {
          fe.arrays.push_back(use.id);
        }
      } else {
        fe.arrays.push_back(node.array);
      }
      frontier.push_back(std::move(fe));
    }
    rt.announce_frontier(std::move(frontier));
  }
  // A throwing lowering (e.g. a node whose working set exceeds the
  // device) withdraws the frontier; ops already issued stay in the open
  // batch and flush at the next observation point.
  try {
    lower_nodes(rt);
  } catch (...) {
    if (announced) rt.clear_frontier();
    throw;
  }
  if (announced) rt.clear_frontier();
  if (own_batch) rt.commit();
}

void TaskGraph::Exec::lower_nodes(GpuRuntime& rt) {
  const auto& nodes = *nodes_;
  // Per-launch events for cross-stream edges.
  std::vector<EventId> done_event(nodes.size(), kInvalidEvent);
  for (NodeId v : topo_order_) {
    const Node& node = nodes[static_cast<std::size_t>(v)];
    const StreamId stream = stream_of(v);
    for (NodeId dep : node.deps) {
      if (stream_of(dep) != stream) {
        if (done_event[static_cast<std::size_t>(dep)] == kInvalidEvent) {
          throw ApiError("graph exec: missing event for cross-stream edge");
        }
        rt.stream_wait_event(stream, done_event[static_cast<std::size_t>(dep)]);
      }
    }
    switch (node.kind) {
      case NodeKind::Kernel:
        rt.launch(stream, node.spec);
        break;
      case NodeKind::CopyH2D:
        rt.memcpy_h2d_async(node.array, stream);
        break;
      case NodeKind::Empty:
        break;
    }
    // Record a completion event if any child lives on another stream.
    if (cross_child_[static_cast<std::size_t>(v)]) {
      const EventId e = rt.create_event();
      rt.record_event(e, stream);
      done_event[static_cast<std::size_t>(v)] = e;
    }
  }
}

}  // namespace psched::sim

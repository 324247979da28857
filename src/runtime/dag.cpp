#include "runtime/dag.hpp"

#include <algorithm>
#include <sstream>

namespace psched::rt {

void DagRecorder::record_history() {
  if (added_) {
    throw sim::ApiError(
        "DagRecorder: history must be enabled before the first vertex");
  }
  recording_ = true;
}

void DagRecorder::add(Computation& c) {
  for (const Computation* p : c.parents) {
    // Computations are registered in program order; an edge can only point
    // from an earlier to a later element.
    if (p->id < 0 || p->id >= c.id) {
      throw sim::ApiError("DagRecorder: edge violates registration order");
    }
  }
  if (recording_) {
    if (c.id != static_cast<long>(vertices_.size())) {
      throw sim::ApiError("DagRecorder: non-contiguous computation id");
    }
    // Parents ids are below c.id == vertices_.size(): all recorded.
    Vertex v;
    v.id = c.id;
    v.label.assign(c.label_prefix()).append(c.name);
    v.kind = c.kind;
    v.device = c.device;
    v.stream = c.stream;
    v.op = c.op;
    v.solo_us = c.solo_us;
    v.transfer_bytes = c.transfer_bytes;
    v.epoch = epoch_;
    vertices_.push_back(std::move(v));
    for (const Computation* p : c.parents) edges_.emplace_back(p->id, c.id);
  }
  added_ = true;

  // Vertices arrive in registration order, after their parents, so one
  // relaxation per vertex settles it. It starts no earlier than the finish
  // floor of all previous epochs: even with unlimited hardware the host
  // cannot issue work past a blocking read.
  double start = epoch_floor_;
  for (const Computation* p : c.parents) {
    start = std::max(start, p->path_finish_us);
  }
  const double cost =
      c.solo_us + (pcie_bytes_per_us_ > 0
                       ? c.transfer_bytes / pcie_bytes_per_us_
                       : 0);
  c.path_finish_us = start + cost;
  best_ = std::max(best_, c.path_finish_us);
}

double DagRecorder::critical_path_us(double pcie_bytes_per_us) const {
  if (pcie_bytes_per_us != pcie_bytes_per_us_) {
    throw sim::ApiError("DagRecorder: critical path kept at " +
                        std::to_string(pcie_bytes_per_us_) +
                        " bytes/us, queried at " +
                        std::to_string(pcie_bytes_per_us));
  }
  return best_;
}

void DagRecorder::require_history() const {
  if (!recording_) {
    throw sim::ApiError(
        "DagRecorder: no history recorded (enable it before registering "
        "computations, e.g. Context::record_dag)");
  }
}

const std::vector<DagRecorder::Vertex>& DagRecorder::vertices() const {
  require_history();
  return vertices_;
}

const std::vector<std::pair<long, long>>& DagRecorder::edges() const {
  require_history();
  return edges_;
}

bool DagRecorder::has_edge(long from, long to) const {
  return std::find(edges().begin(), edges().end(),
                   std::make_pair(from, to)) != edges().end();
}

std::string DagRecorder::to_dot() const {
  static const char* kColors[] = {"lightblue", "salmon",    "palegreen",
                                  "gold",      "plum",      "lightgrey",
                                  "orange",    "turquoise", "pink"};
  std::ostringstream out;
  out << "digraph computation {\n  rankdir=TB;\n";
  for (const Vertex& v : vertices()) {
    const char* color =
        v.stream >= 0
            ? kColors[static_cast<std::size_t>(v.stream) % std::size(kColors)]
            : "white";
    out << "  n" << v.id << " [label=\"" << v.label << "\\n(s" << v.stream
        << ")\", style=filled, fillcolor=" << color << "];\n";
  }
  for (const auto& [from, to] : edges_) {
    out << "  n" << from << " -> n" << to << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace psched::rt

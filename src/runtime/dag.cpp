#include "runtime/dag.hpp"

#include <algorithm>
#include <sstream>

namespace psched::rt {

void DagRecorder::add_vertex(const Computation& c) {
  Vertex v;
  v.id = c.id;
  v.label = c.label;
  v.kind = c.kind;
  v.device = c.device;
  v.stream = c.stream;
  v.solo_us = c.solo_us;
  v.transfer_bytes = c.transfer_bytes;
  v.epoch = current_epoch_;
  if (c.id != static_cast<long>(vertices_.size())) {
    throw sim::ApiError("DagRecorder: non-contiguous computation id");
  }
  vertices_.push_back(std::move(v));
}

void DagRecorder::annotate_vertex(const Computation& c) {
  if (c.id < 0 || c.id >= static_cast<long>(vertices_.size())) {
    throw sim::ApiError("DagRecorder: unknown vertex");
  }
  Vertex& v = vertices_[static_cast<std::size_t>(c.id)];
  v.device = c.device;
  v.stream = c.stream;
  v.solo_us = c.solo_us;
  v.transfer_bytes = c.transfer_bytes;
}

void DagRecorder::add_edge(long from, long to) {
  if (from < 0 || to < 0 || from >= static_cast<long>(vertices_.size()) ||
      to >= static_cast<long>(vertices_.size())) {
    throw sim::ApiError("DagRecorder: edge references unknown vertex");
  }
  if (from >= to) {
    // Computations are registered in program order; an edge can only point
    // from an earlier to a later element.
    throw sim::ApiError("DagRecorder: edge violates registration order");
  }
  edges_.emplace_back(from, to);
}

bool DagRecorder::has_edge(long from, long to) const {
  return std::find(edges_.begin(), edges_.end(), std::make_pair(from, to)) !=
         edges_.end();
}

double DagRecorder::critical_path_us(double pcie_bytes_per_us) const {
  // Vertex ids (and epochs) are monotone in submission order, so one
  // forward pass relaxes every edge. Each vertex starts no earlier than
  // the finish floor of all previous epochs: even with unlimited hardware
  // the host cannot issue work past a blocking read.
  const std::size_t nv = vertices_.size();
  // Incoming edges grouped by destination with one counting sort, so the
  // pass is O(V + E) whatever order the edges were recorded in.
  std::vector<std::size_t> first(nv + 1, 0);
  for (const auto& [from, to] : edges_) {
    ++first[static_cast<std::size_t>(to) + 1];
  }
  for (std::size_t i = 0; i < nv; ++i) first[i + 1] += first[i];
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  std::vector<std::size_t> preds(edges_.size());
  for (const auto& [from, to] : edges_) {
    preds[next[static_cast<std::size_t>(to)]++] =
        static_cast<std::size_t>(from);
  }

  std::vector<double> longest(nv, 0);
  double best = 0;
  double epoch_floor = 0;   // max finish over all completed epochs
  double epoch_best = 0;    // max finish inside the current epoch
  long epoch = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    const Vertex& v = vertices_[i];
    if (v.epoch != epoch) {
      epoch_floor = std::max(epoch_floor, epoch_best);
      epoch = v.epoch;
    }
    const double cost = v.solo_us + (pcie_bytes_per_us > 0
                                         ? v.transfer_bytes / pcie_bytes_per_us
                                         : 0);
    longest[i] = epoch_floor + cost;
    for (std::size_t k = first[i]; k < first[i + 1]; ++k) {
      longest[i] = std::max(longest[i], longest[preds[k]] + cost);
    }
    epoch_best = std::max(epoch_best, longest[i]);
    best = std::max(best, longest[i]);
  }
  return best;
}

std::string DagRecorder::to_dot() const {
  static const char* kColors[] = {"lightblue", "salmon",    "palegreen",
                                  "gold",      "plum",      "lightgrey",
                                  "orange",    "turquoise", "pink"};
  std::ostringstream out;
  out << "digraph computation {\n  rankdir=TB;\n";
  for (const Vertex& v : vertices_) {
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

void DagRecorder::clear() {
  vertices_.clear();
  edges_.clear();
}

}  // namespace psched::rt

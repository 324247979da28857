// Reference for the Fig. 9 contention-free bound over recorded DAG
// history: the offline O(V + E) longest-path pass the runtime used before
// the bound was kept online. Tests compare DagRecorder::critical_path_us
// against it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "runtime/dag.hpp"

namespace psched::rt::test {

/// Longest path through `dag`'s recorded history where each vertex costs
/// its solo kernel time plus its own data migration at `pcie_bytes_per_us`
/// (0: transfers ignored), and starts no earlier than the finish of every
/// vertex in an earlier host epoch.
inline double reference_critical_path_us(const DagRecorder& dag,
                                         double pcie_bytes_per_us) {
  const std::vector<DagRecorder::Vertex>& vertices = dag.vertices();
  const std::size_t nv = vertices.size();
  // Incoming edges grouped by destination with one counting sort, so the
  // pass is O(V + E) whatever order the edges were recorded in.
  std::vector<std::size_t> first(nv + 1, 0);
  for (const auto& [from, to] : dag.edges()) {
    ++first[static_cast<std::size_t>(to) + 1];
  }
  for (std::size_t i = 0; i < nv; ++i) first[i + 1] += first[i];
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  std::vector<std::size_t> preds(dag.edges().size());
  for (const auto& [from, to] : dag.edges()) {
    preds[next[static_cast<std::size_t>(to)]++] =
        static_cast<std::size_t>(from);
  }

  // Vertex ids (and epochs) are monotone in submission order, so one
  // forward pass relaxes every edge.
  std::vector<double> longest(nv, 0);
  double best = 0;
  double epoch_floor = 0;  // max finish over all completed epochs
  double epoch_best = 0;   // max finish over every vertex so far
  long epoch = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    const DagRecorder::Vertex& v = vertices[i];
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

/// Feed `history`'s vertices, edges and host epochs through `out` (a fresh
/// recorder, possibly at another rate) in registration order, the way a
/// Context would have.
inline void replay(const DagRecorder& history, DagRecorder& out) {
  std::deque<Computation> comps;
  for (const DagRecorder::Vertex& v : history.vertices()) {
    Computation& c = comps.emplace_back();
    c.id = v.id;
    c.kind = v.kind;
    c.solo_us = v.solo_us;
    c.transfer_bytes = v.transfer_bytes;
  }
  for (const auto& [from, to] : history.edges()) {
    comps[static_cast<std::size_t>(to)].parents.push_back(
        &comps[static_cast<std::size_t>(from)]);
  }
  long epoch = 0;
  for (const DagRecorder::Vertex& v : history.vertices()) {
    for (; epoch < v.epoch; ++epoch) out.host_barrier();
    out.add(comps[static_cast<std::size_t>(v.id)]);
  }
}

}  // namespace psched::rt::test

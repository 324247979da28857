// Computation DAG recorder.
//
// The scheduler itself only needs the active frontier (per-array writer and
// reader tracking). This recorder follows the DAG as it is built: it keeps
// the contention-free critical path of Fig. 9 online — each computation
// carries the finish of the longest path ending at it, and the recorder a
// running host-epoch floor and best — so the bound costs O(1) memory and
// an O(1) query. Per-vertex and per-edge history (introspection, Graphviz
// export) is kept only when record_history() opts in.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "runtime/computation.hpp"
#include "sim/types.hpp"

namespace psched::rt {

class DagRecorder {
 public:
  struct Vertex {
    long id = -1;
    std::string label;
    Computation::Kind kind = Computation::Kind::Kernel;
    sim::DeviceId device = sim::kInvalidDevice;
    sim::StreamId stream = sim::kInvalidStream;
    sim::OpId op = sim::kInvalidOp;
    double solo_us = 0;
    double transfer_bytes = 0;
    /// Host-order epoch: vertices submitted after a blocking host
    /// synchronization belong to a later epoch and cannot start before it.
    long epoch = 0;
  };

  /// `pcie_bytes_per_us` is the one transfer rate the critical path is
  /// kept at (0: transfers cost nothing). A Context binds its device's.
  explicit DagRecorder(double pcie_bytes_per_us = 0)
      : pcie_bytes_per_us_(pcie_bytes_per_us) {}

  /// Keep every vertex and edge from now on. Must precede the first add():
  /// vertex ids index the history.
  void record_history();

  /// Account computation `c` once its parent links are wired and its costs
  /// (solo_us, transfer_bytes) are final: sets `c.path_finish_us` to the
  /// longest contention-free path ending at `c` — each computation costs
  /// its solo kernel time plus its own data migration at full PCIe
  /// bandwidth — and records vertex and in-edges if history is on.
  void add(Computation& c);
  /// Record a blocking host synchronization: later vertices start a new
  /// epoch. Even on unlimited hardware the host program cannot issue work
  /// past a blocking read, so the contention-free bound accumulates across
  /// epochs instead of treating host-serialized iterations as concurrent.
  void host_barrier() {
    epoch_floor_ = best_;
    ++epoch_;
  }

  /// Longest path through the DAG so far — the theoretical execution time
  /// with unlimited hardware resources (the Fig. 9 "contention-free"
  /// bound). O(1). Throws ApiError unless `pcie_bytes_per_us` is the rate
  /// this recorder was constructed with.
  [[nodiscard]] double critical_path_us(double pcie_bytes_per_us) const;
  [[nodiscard]] double pcie_bytes_per_us() const { return pcie_bytes_per_us_; }

  // --- history (ApiError unless recording) ---
  [[nodiscard]] std::size_t num_vertices() const { return vertices().size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges().size(); }
  /// Vertex id == index.
  [[nodiscard]] const std::vector<Vertex>& vertices() const;
  [[nodiscard]] const std::vector<std::pair<long, long>>& edges() const;
  [[nodiscard]] bool has_edge(long from, long to) const;
  /// Graphviz DOT rendering (streams become colors, Fig. 6 style).
  [[nodiscard]] std::string to_dot() const;

 private:
  void require_history() const;

  double pcie_bytes_per_us_;
  double epoch_floor_ = 0;  ///< max finish over all completed epochs
  double best_ = 0;         ///< max finish over every vertex so far
  long epoch_ = 0;
  bool recording_ = false;
  bool added_ = false;  ///< add() has run: too late to start history
  std::vector<Vertex> vertices_;
  std::vector<std::pair<long, long>> edges_;
};

}  // namespace psched::rt

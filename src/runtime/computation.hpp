// ComputationalElement — a vertex of the computation DAG (section IV-A).
//
// Kernels, CPU accesses to managed arrays, and library calls are all
// modeled uniformly: a list of array uses (with read-only flags), links to
// parent computations, the dependency set, and the CUDA handles the
// scheduler bound the computation to.
//
// Records live in a ComputationPool and only while something can still
// reach them: once a computation is Finished and no array's writer/reader
// tracking and no live child points at it, it retires and its slot is
// reused by a later registration. Memory therefore follows the active
// frontier, not the length of the program.
#pragma once

#include <deque>
#include <string_view>
#include <vector>

#include "runtime/small_vector.hpp"
#include "runtime/value.hpp"
#include "sim/types.hpp"

namespace psched::rt {

class Computation {
 public:
  enum class Kind { Kernel, HostRead, HostWrite, Library };
  enum class State {
    Created,    ///< registered, not yet issued to the device
    Scheduled,  ///< issued asynchronously, considered *active*
    Finished,   ///< the CPU observed completion; no longer creates deps
  };

  /// One array argument with its access mode.
  struct Use {
    ArrayState* array = nullptr;
    bool read_only = false;
  };

  /// Registration order, unique over the context's lifetime; -1 while the
  /// record sits on its pool's free list.
  long id = -1;
  Kind kind = Kind::Kernel;
  /// The kernel's KernelDef name, the library function's name, or the
  /// accessed array's name. Read while the computation registers (launch
  /// name, DAG history label); label_prefix() tells the kinds apart.
  std::string_view name;
  /// Links and argument lists live inline up to the arities ordinary
  /// kernels have (registering one allocates nothing) and spill beyond.
  SmallVec<Use, 4> uses;

  /// Dependencies, in discovery order. Each link holds a reference on the
  /// parent; finishing drops them (a finished computation creates no
  /// dependencies, so nothing reads its parents again).
  SmallVec<Computation*, 4> parents;
  /// Id of the first computation that took this one as a parent (-1:
  /// none yet) — the child allowed to inherit its stream. An id, not an
  /// address: a retired slot is reused by a later computation.
  long first_child = -1;

  /// The dependency set of section IV-A: arrays through which this
  /// computation can still introduce dependencies. An array is removed when
  /// a later computation *writes* it; an empty set retires the element from
  /// the frontier.
  SmallSet<ArrayState*, 4> dep_set;

  State state = State::Created;
  /// Id of the last computation whose dependency inference visited this
  /// element (O(1) duplicate-parent test in infer_dependencies).
  long dep_mark = -1;
  /// References held on this record: its array's last_writer slot, reader
  /// list entries, and live children's parent links.
  int refs = 0;
  /// Device the placement policy chose (before stream acquisition).
  sim::DeviceId device = sim::kInvalidDevice;
  sim::StreamId stream = sim::kInvalidStream;
  sim::EventId event = sim::kInvalidEvent;
  sim::OpId op = sim::kInvalidOp;

  // Contention-free accounting for the Fig. 9 bound.
  double solo_us = 0;         ///< kernel duration alone on an idle device
  double transfer_bytes = 0;  ///< bytes this computation had to migrate
  /// Finish time on the longest contention-free path ending here
  /// (DagRecorder::add).
  double path_finish_us = 0;

  [[nodiscard]] bool is_active() const { return state != State::Finished; }
  [[nodiscard]] bool can_create_deps() const {
    return is_active() && !dep_set.empty();
  }
  /// Prefix that turns `name` into the launch / DAG label ("read:X").
  [[nodiscard]] const char* label_prefix() const;
};

/// Slot storage for a context's computations. A slot retires — goes on
/// the free list for the next acquire() — when its computation is
/// Finished and unreferenced, so the pool holds about one frontier's worth
/// of records however long the program runs. Records never move.
class ComputationPool {
 public:
  /// A reset record carrying the next registration id.
  [[nodiscard]] Computation& acquire();
  void retain(Computation& c) { ++c.refs; }
  /// Drop one reference; the last one on a finished computation retires it.
  void release(Computation& c);
  /// Mark `c` Finished and drop its parent links; retires it if nothing
  /// references it.
  void finish(Computation& c);

  [[nodiscard]] std::size_t live() const {
    return slots_.size() - free_.size();
  }
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }
  /// Every slot, live or free (ids of free slots are -1).
  [[nodiscard]] const std::deque<Computation>& slots() const { return slots_; }
  [[nodiscard]] const std::vector<Computation*>& free_slots() const {
    return free_;
  }

 private:
  void retire(Computation& c);

  std::deque<Computation> slots_;
  std::vector<Computation*> free_;
  long next_id_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace psched::rt

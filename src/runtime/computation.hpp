// ComputationalElement — a vertex of the computation DAG (section IV-A).
//
// Kernels, CPU accesses to managed arrays, and library calls are all
// modeled uniformly: a list of array uses (with read-only flags), links to
// parent/child computations, the dependency set, and the CUDA handles the
// scheduler bound the computation to.
#pragma once

#include <string>

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

  long id = -1;
  Kind kind = Kind::Kernel;
  std::string label;
  /// Links and argument lists live inline up to the arities ordinary
  /// kernels have (registering one allocates nothing) and spill beyond.
  SmallVec<Use, 4> uses;

  SmallVec<Computation*, 4> parents;
  SmallVec<Computation*, 4> children;

  /// The dependency set of section IV-A: arrays through which this
  /// computation can still introduce dependencies. An array is removed when
  /// a later computation *writes* it; an empty set retires the element from
  /// the frontier.
  SmallSet<ArrayState*, 4> dep_set;

  State state = State::Created;
  /// Id of the last computation whose dependency inference visited this
  /// element (O(1) duplicate-parent test in infer_dependencies).
  long dep_mark = -1;
  /// Device the placement policy chose (before stream acquisition).
  sim::DeviceId device = sim::kInvalidDevice;
  sim::StreamId stream = sim::kInvalidStream;
  sim::EventId event = sim::kInvalidEvent;
  sim::OpId op = sim::kInvalidOp;

  // Contention-free accounting for the Fig. 9 bound.
  double solo_us = 0;         ///< kernel duration alone on an idle device
  double transfer_bytes = 0;  ///< bytes this computation had to migrate

  [[nodiscard]] bool is_active() const { return state != State::Finished; }
  [[nodiscard]] bool can_create_deps() const {
    return is_active() && !dep_set.empty();
  }
  [[nodiscard]] const char* kind_name() const;
};

}  // namespace psched::rt

// Automatic dependency inference (section IV-A, Fig. 3).
//
// For every managed array we track the last writer and the set of active
// readers since that write. A new computation:
//
//   * WRITING array a depends on all active readers of a (write-after-read
//     anti-dependencies) — or, when there are none, on the last writer
//     (read-after-write / write-after-write; depending on the readers alone
//     is enough otherwise, because readers transitively depend on the
//     writer: "it will not, however, depend on both kernels", Fig. 3-B).
//     The write removes a from every earlier computation's dependency set
//     ("all dependency sets are updated") and installs the new computation
//     as last writer.
//
//   * READING array a (read-only annotation) depends on the last writer
//     only; the writer's dependency set is NOT updated (Fig. 3-C), so any
//     number of readers execute concurrently, each depending only on the
//     producer.
//
// Scalars never appear here (they are passed by copy). Computations that
// the CPU has already synchronized (State::Finished) never contribute.
//
// Every pointer this module stores — an array's last_writer and reader
// entries, a computation's parent links — holds a reference on the
// computation it names (ComputationPool::retain), and every pointer it
// drops releases one, so a finished computation retires as soon as the
// tracking stops naming it.
#pragma once

#include <span>

#include "runtime/computation.hpp"

namespace psched::rt {

/// Infer the dependencies of `c` from its `uses`, update the per-array
/// writer/reader tracking and all dependency sets, wire the DAG links, and
/// return the parent computations it found (deduplicated, excluding `c`
/// itself and inactive elements) — a view of the tail of `c.parents`,
/// valid until `c.parents` next changes. References are taken and dropped
/// through `pool`, which owns `c` and every computation the arrays name.
/// Allocates nothing for arities up to the Computation record's inline
/// capacities.
///
/// With `honor_read_only == false` every use is treated as a write — the
/// conservative behaviour the paper prescribes for unannotated signatures.
[[nodiscard]] std::span<Computation* const> infer_dependencies(
    Computation& c, ComputationPool& pool, bool honor_read_only = true);

/// Drop every computation `array` tracks (its last writer and readers),
/// releasing their references: the array's next version starts clean.
void forget_tracking(ArrayState& array, ComputationPool& pool);

}  // namespace psched::rt

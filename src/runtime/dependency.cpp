#include "runtime/dependency.hpp"

#include <algorithm>

namespace psched::rt {

namespace {

/// Remove computations that can no longer create dependencies from a
/// reader list (lazy pruning keeps the lists short on long-running apps),
/// releasing the references the entries held.
/// Stable single-pass compaction: readers were appended in registration
/// (id) order, and the scheduler's first-child-inherits rule depends on
/// the resulting parent order being deterministic — swap-and-pop would
/// shuffle it and change stream assignments.
void prune_inactive(std::vector<Computation*>& readers,
                    ComputationPool& pool) {
  std::erase_if(readers, [&pool](Computation* r) {
    if (r->is_active()) return false;
    pool.release(*r);
    return true;
  });
}

}  // namespace

void forget_tracking(ArrayState& array, ComputationPool& pool) {
  if (array.last_writer != nullptr) pool.release(*array.last_writer);
  array.last_writer = nullptr;
  for (Computation* r : array.readers) pool.release(*r);
  array.readers.clear();
}

std::span<Computation* const> infer_dependencies(Computation& c,
                                                 ComputationPool& pool,
                                                 bool honor_read_only) {
  // Coalesce duplicate array arguments: one write use dominates any number
  // of read uses of the same array within a single computation.
  struct ArrayAccess {
    ArrayState* array = nullptr;
    bool writes = false;
  };
  SmallVec<ArrayAccess, 8> combined;
  for (const Computation::Use& use : c.uses) {
    const bool writes = !use.read_only || !honor_read_only;
    auto it = std::find_if(combined.begin(), combined.end(),
                           [&](const ArrayAccess& a) {
                             return a.array == use.array;
                           });
    if (it == combined.end()) {
      combined.push_back({use.array, writes});
    } else {
      it->writes = it->writes || writes;
    }
  }

  // Parents are wired as they are found. Duplicates (a computation
  // reachable through several arrays) are filtered with the dep_mark
  // stamp: O(1) per candidate instead of a scan of the parents so far.
  const std::size_t first_parent = c.parents.size();
  auto add_dep = [&](Computation* d) {
    if (d == nullptr || d == &c || !d->is_active()) return;
    if (d->dep_mark == c.id) return;  // already a parent of c
    d->dep_mark = c.id;
    if (d->first_child < 0) d->first_child = c.id;
    pool.retain(*d);
    c.parents.push_back(d);
  };

  for (const auto& [array, writes] : combined) {
    Computation* writer =
        (array->last_writer != nullptr && array->last_writer->is_active())
            ? array->last_writer
            : nullptr;
    if (writes) {
      prune_inactive(array->readers, pool);
      if (!array->readers.empty()) {
        // WAR: readers already transitively depend on the writer.
        for (Computation* r : array->readers) add_dep(r);
      } else {
        add_dep(writer);  // RAW / WAW
      }
      // "All dependency sets are updated."
      if (array->last_writer != nullptr) {
        array->last_writer->dep_set.erase(array);
      }
      for (Computation* r : array->readers) r->dep_set.erase(array);
      forget_tracking(*array, pool);
      pool.retain(c);
      array->last_writer = &c;
    } else {
      add_dep(writer);  // the writer's dependency set is NOT updated
      // Readers are only consulted when a writer shows up, so a read is a
      // plain append — except at power-of-two sizes, where an amortized
      // O(1) prune bounds the list for arrays that are never (re)written
      // (a lookup table read by every kernel for the life of the app).
      const std::size_t n = array->readers.size();
      if (n >= 8 && (n & (n - 1)) == 0) prune_inactive(array->readers, pool);
      pool.retain(c);
      array->readers.push_back(&c);
    }
    // The new computation can introduce dependencies through this argument.
    c.dep_set.insert(array);
  }
  return std::span<Computation* const>(c.parents).subspan(first_parent);
}

}  // namespace psched::rt

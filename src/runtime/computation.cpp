#include "runtime/computation.hpp"

#include <algorithm>

namespace psched::rt {

const char* Computation::label_prefix() const {
  switch (kind) {
    case Kind::Kernel: return "";
    case Kind::HostRead: return "read:";
    case Kind::HostWrite: return "write:";
    case Kind::Library: return "lib:";
  }
  return "";
}

Computation& ComputationPool::acquire() {
  Computation* c = nullptr;
  if (free_.empty()) {
    c = &slots_.emplace_back();
  } else {
    c = free_.back();
    free_.pop_back();
  }
  c->id = next_id_++;
  peak_live_ = std::max(peak_live_, live());
  return *c;
}

void ComputationPool::release(Computation& c) {
  if (--c.refs == 0 && c.state == Computation::State::Finished) retire(c);
}

void ComputationPool::finish(Computation& c) {
  if (c.state == Computation::State::Finished) return;
  c.state = Computation::State::Finished;
  for (Computation* p : c.parents) release(*p);
  c.parents.clear();
  if (c.refs == 0) retire(c);
}

void ComputationPool::retire(Computation& c) {
  // Reset in place. SmallVec assignment copies elements, so spilled
  // argument and link buffers keep their capacity for the next
  // computation that lands in this slot.
  c = Computation{};
  free_.push_back(&c);
}

}  // namespace psched::rt

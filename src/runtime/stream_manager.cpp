#include "runtime/stream_manager.hpp"

namespace psched::rt {

StreamManager::StreamManager(sim::GpuRuntime& gpu, StreamPolicy policy)
    : gpu_(&gpu), policy_(policy) {
  devices_.resize(static_cast<std::size_t>(gpu_->num_devices()));
  if (policy_ == StreamPolicy::FifoReuse) {
    idle_observer_ = gpu_->engine().add_stream_idle_observer(
        [this](sim::StreamId s) { note_idle(s); });
  }
}

StreamManager::~StreamManager() {
  if (idle_observer_ != 0) {
    gpu_->engine().remove_stream_idle_observer(idle_observer_);
  }
}

std::size_t StreamManager::num_streams(sim::DeviceId device) const {
  return devices_[static_cast<std::size_t>(device)].pool.size();
}

void StreamManager::note_idle(sim::StreamId s) {
  if (static_cast<std::size_t>(s) < pool_device_.size() &&
      pool_device_[static_cast<std::size_t>(s)] != sim::kInvalidDevice) {
    devices_[static_cast<std::size_t>(pool_device_[static_cast<std::size_t>(s)])]
        .idle.push(s);
  }
}

sim::StreamId StreamManager::create_pooled_stream(sim::DeviceId device) {
  const sim::StreamId s = gpu_->create_stream(device);
  devices_[static_cast<std::size_t>(device)].pool.push_back(s);
  pool_.push_back(s);
  if (pool_device_.size() <= static_cast<std::size_t>(s)) {
    pool_device_.resize(static_cast<std::size_t>(s) + 1, sim::kInvalidDevice);
  }
  pool_device_[static_cast<std::size_t>(s)] = device;
  return s;
}

sim::StreamId StreamManager::inherit_from_parent(
    const Computation& c, sim::DeviceId device) const {
  // "If a computation has multiple children, the first child is scheduled
  // on the parent's stream to minimize synchronization events, while
  // following children are scheduled on other streams." Only applicable
  // when the parent's stream lives on the device `c` was placed on.
  for (const Computation* p : c.parents) {
    if (p->stream == sim::kInvalidStream) continue;  // synchronous parent
    if (p->first_child == c.id && gpu_->stream_device(p->stream) == device) {
      return p->stream;
    }
  }
  return sim::kInvalidStream;
}

sim::StreamId StreamManager::acquire(Computation& c) {
  const sim::DeviceId device =
      c.device == sim::kInvalidDevice ? sim::kDefaultDevice : c.device;
  DeviceState& dev = devices_[static_cast<std::size_t>(device)];

  if (policy_ == StreamPolicy::SingleStream) {
    if (dev.pool.empty()) create_pooled_stream(device);
    return dev.pool.front();
  }

  if (const sim::StreamId inherited = inherit_from_parent(c, device);
      inherited != sim::kInvalidStream) {
    return inherited;
  }

  if (policy_ == StreamPolicy::FifoReuse) {
    // Let completions up to the host clock land so the free-list reflects
    // the idleness the old full scan would have observed.
    gpu_->poll();
    while (!dev.idle.empty()) {
      const sim::StreamId s = dev.idle.top();
      dev.idle.pop();
      if (gpu_->stream_idle(s)) return s;
      // Stale entry: the stream picked up new work after it drained.
    }
  }
  return create_pooled_stream(device);
}

}  // namespace psched::rt

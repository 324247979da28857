#include "sim/tenant.hpp"

#include <utility>

#include "sim/ingest_queue.hpp"
#include "sim/qos.hpp"

namespace psched::sim {

GpuRuntime& Tenant::gpu() {
  mgr_->gpu_->set_active_tenant(id_);
  return *mgr_->gpu_;
}

// Forwarded calls hold the api gate across the activate + delegate pair:
// a concurrent drain batch (which saves and restores the ambient tenant
// under the same gate) can then never interleave between the two. The
// gate is recursive, so the delegate's own gating nests for free.

StreamId Tenant::create_stream(DeviceId device) {
  const auto gate = mgr_->gpu_->api_guard();
  const StreamId s = gpu().create_stream(device);
  streams_.push_back(s);
  return s;
}

EventId Tenant::create_event() {
  const auto gate = mgr_->gpu_->api_guard();
  return gpu().create_event();
}

ArrayId Tenant::alloc(std::size_t bytes, const std::string& name) {
  const auto gate = mgr_->gpu_->api_guard();
  return gpu().alloc(bytes, name);
}

void Tenant::free_array(ArrayId id) {
  const auto gate = mgr_->gpu_->api_guard();
  gpu().free_array(id);
}

OpId Tenant::launch(StreamId stream, const LaunchSpec& spec) {
  const auto gate = mgr_->gpu_->api_guard();
  GpuRuntime& rt = gpu();
  const OpId id = rt.launch(stream, spec);
  // Report the issue to the QoS policy (if one is attached) so completion
  // latency and outstanding depth are tracked per tenant. launch() already
  // ran the admission check and charged the host clock, so the stamp is
  // the op's actual issue time.
  if (mgr_->qos_ != nullptr) mgr_->qos_->on_op_issued(id_, id, rt.now());
  return id;
}

void Tenant::mem_prefetch_async(ArrayId id, StreamId stream) {
  const auto gate = mgr_->gpu_->api_guard();
  gpu().mem_prefetch_async(id, stream);
}

void Tenant::host_write(ArrayId id) {
  const auto gate = mgr_->gpu_->api_guard();
  gpu().host_write(id);
}

void Tenant::host_read(ArrayId id) {
  const auto gate = mgr_->gpu_->api_guard();
  gpu().host_read(id);
}

void Tenant::record_event(EventId event, StreamId stream) {
  const auto gate = mgr_->gpu_->api_guard();
  gpu().record_event(event, stream);
}

void Tenant::stream_wait_event(StreamId stream, EventId event) {
  const auto gate = mgr_->gpu_->api_guard();
  gpu().stream_wait_event(stream, event);
}

void Tenant::synchronize_stream(StreamId stream) {
  // Flush this tenant's queued work first, *without* holding the gate:
  // the helping drain acquires it per batch.
  mgr_->gpu_->flush_ingest(id_);
  const auto gate = mgr_->gpu_->api_guard();
  gpu().synchronize_stream(stream);
}

void Tenant::synchronize() {
  mgr_->gpu_->flush_ingest(id_);
  const auto gate = mgr_->gpu_->api_guard();
  GpuRuntime& rt = gpu();
  // Draining one stream can run the clock past completions on another,
  // but never *adds* work to a drained stream (the host is here, not
  // issuing), so one ascending pass reaches a tenant-idle state.
  for (const StreamId s : streams_) rt.synchronize_stream(s);
}

std::future<void> Tenant::run_async(std::function<void(GpuRuntime&)> fn) {
  if (mgr_->ingest_ == nullptr) {
    throw ApiError("run_async: no ingest service attached");
  }
  return mgr_->ingest_->submit_task(id_, std::move(fn));
}

std::future<void> Tenant::replay_async(const Submission& sub) {
  if (mgr_->ingest_ == nullptr) {
    throw ApiError("replay_async: no ingest service attached");
  }
  return mgr_->ingest_->submit_replay(id_, &sub);
}

void Tenant::post_replay(const Submission& sub) {
  if (mgr_->ingest_ == nullptr) {
    throw ApiError("post_replay: no ingest service attached");
  }
  mgr_->ingest_->post_replay(id_, &sub);
}

std::future<void> Tenant::flush_ingest() {
  if (mgr_->ingest_ == nullptr) {
    throw ApiError("flush_ingest: no ingest service attached");
  }
  return mgr_->ingest_->flush(id_);
}

void Tenant::flush_ingest_and_wait() {
  if (mgr_->ingest_ == nullptr) {
    throw ApiError("flush_ingest_and_wait: no ingest service attached");
  }
  mgr_->ingest_->flush_and_wait(id_);
}

int Tenant::ingest_shard() const {
  if (mgr_->ingest_ == nullptr) {
    throw ApiError("ingest_shard: no ingest service attached");
  }
  return mgr_->ingest_->shard_of(id_);
}

void TenantManager::attach_ingest(IngestService& svc) {
  ingest_ = &svc;
  for (const auto& t : tenants_) {
    if (t->spec_.ingest_shard >= 0) {
      svc.assign_shard(t->id_, t->spec_.ingest_shard);
    }
  }
}

void TenantManager::attach_qos(QosManager& qos) {
  if (qos_ != nullptr) {
    throw ApiError("attach_qos: a QoS manager is already attached");
  }
  for (const auto& t : tenants_) qos.register_tenant(t->id_, t->spec_);
  qos_ = &qos;
}

void TenantManager::detach_qos(QosManager& qos) {
  if (qos_ == &qos) qos_ = nullptr;
}

QosTenantStats Tenant::qos_stats() const {
  if (mgr_->qos_ == nullptr) {
    throw ApiError("qos_stats: no QoS manager attached");
  }
  return mgr_->qos_->stats(id_);
}

long Tenant::ops_completed() const {
  return mgr_->gpu_->engine().tenant_completed_ops(id_);
}

double Tenant::work_completed() const {
  return mgr_->gpu_->engine().tenant_completed_work(id_);
}

double Tenant::work_progress() const {
  const Engine& eng = mgr_->gpu_->engine();
  return eng.tenant_completed_work(id_) + eng.tenant_inflight_work(id_);
}

std::size_t Tenant::bytes_evicted(DeviceId d) const {
  return mgr_->gpu_->memory().tenant_evicted_bytes(id_, d);
}

std::size_t Tenant::bytes_evicted() const {
  std::size_t n = 0;
  for (DeviceId d = 0; d < mgr_->gpu_->num_devices(); ++d) {
    n += bytes_evicted(d);
  }
  return n;
}

std::size_t Tenant::device_bytes_used(DeviceId d) const {
  return mgr_->gpu_->memory().tenant_used_bytes(id_, d);
}

Tenant& TenantManager::create_tenant(TenantSpec spec) {
  const auto id = static_cast<TenantId>(tenants_.size());
  if (spec.name.empty()) spec.name = "tenant" + std::to_string(id);
  // Class-config validation up front (before any state changes), whether
  // or not a QoS manager is attached yet: a latency class without a
  // target is meaningless and would otherwise surface only at attach.
  if (spec.service_class == ServiceClass::LatencyCritical &&
      !(spec.target_p99_us > 0)) {
    throw QosError("create_tenant: LatencyCritical tenant " +
                       std::to_string(id) +
                       " needs a positive target_p99_us (got " +
                       std::to_string(spec.target_p99_us) + ")",
                   id);
  }
  gpu_->engine().set_tenant_weight(id, spec.weight);
  if (spec.device_quota_bytes != MemoryManager::kNoQuota) {
    for (DeviceId d = 0; d < gpu_->num_devices(); ++d) {
      gpu_->memory().set_tenant_quota(id, d, spec.device_quota_bytes);
    }
  }
  tenants_.push_back(
      std::unique_ptr<Tenant>(new Tenant(*this, id, std::move(spec))));
  Tenant& t = *tenants_.back();
  if (ingest_ != nullptr && t.spec_.ingest_shard >= 0) {
    ingest_->assign_shard(id, t.spec_.ingest_shard);
  }
  if (qos_ != nullptr) qos_->register_tenant(id, t.spec_);
  return t;
}

Tenant& TenantManager::tenant(TenantId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= tenants_.size()) {
    throw ApiError("tenant: unknown tenant " + std::to_string(id));
  }
  return *tenants_[static_cast<std::size_t>(id)];
}

const Tenant& TenantManager::tenant(TenantId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= tenants_.size()) {
    throw ApiError("tenant: unknown tenant " + std::to_string(id));
  }
  return *tenants_[static_cast<std::size_t>(id)];
}

double TenantManager::jain_index(std::span<const double> xs) {
  double sum = 0;
  double sum_sq = 0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (xs.empty() || sum_sq <= 0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

double TenantManager::work_fairness() const {
  std::vector<double> work;
  work.reserve(tenants_.size());
  for (const auto& t : tenants_) work.push_back(t->work_completed());
  return jain_index(work);
}

}  // namespace psched::sim

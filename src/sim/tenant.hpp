// Multi-tenant application scheduling: N independent apps on one engine.
//
// The source paper schedules the DAG of a single polyglot application; a
// production runtime serves many at once. The TenantManager multiplexes N
// applications onto one GpuRuntime (one Engine / Machine / MemoryManager),
// handing each a Tenant handle that carries
//   * a TenantId — stamped on the tenant's streams at creation; every op
//     enqueued on those streams inherits it inside the engine, so tagging
//     survives transactions and recorded replays without per-op plumbing;
//   * a fair-share weight — within a saturated resource class the engine
//     splits bandwidth across tenants in proportion to weight, then
//     equally among a tenant's own ops (a weight-2 tenant converges to 2x
//     a weight-1 tenant's throughput under saturation);
//   * per-device soft memory quotas — quotas never block an admission;
//     they bias LRU eviction toward over-quota tenants' pages before any
//     under-quota tenant's are touched (pinned/pending exemptions
//     unchanged), so a thrashing app pages against itself first.
//
// With a single tenant every one of these mechanisms compiles down to the
// historical behaviour bit-for-bit (guarded by the golden-equivalence
// suite): classes with a uniform tenant column take the unweighted solve,
// and with no quotas configured the eviction order is untouched.
//
// The handle is a thin forwarding facade: each call sets the runtime's
// ambient tenant and delegates, so the full GpuRuntime API remains
// available through Tenant::gpu() for anything not forwarded here. Every
// forwarded call holds the runtime's api gate across the set-tenant +
// delegate pair, so handles may be driven from concurrent OS threads once
// an IngestService is attached (sim/ingest_queue.hpp) — the *_async
// methods below route through the tenant's ingest shard without touching
// engine state from the producer thread at all.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/memory.hpp"
#include "sim/runtime.hpp"
#include "sim/types.hpp"

namespace psched::sim {

/// Admission-time description of one application.
struct TenantSpec {
  std::string name;
  /// Fair-share weight (> 0): relative bandwidth under saturation.
  double weight = 1.0;
  /// Uniform per-device soft residency quota in bytes
  /// (MemoryManager::kNoQuota = unlimited).
  std::size_t device_quota_bytes = MemoryManager::kNoQuota;
  /// Ingest shard this tenant's queued work drains through once an
  /// IngestService is attached (-1 = the service's modulo default).
  int ingest_shard = -1;
  /// Latency service class (see sim/qos.hpp). Batch tenants are the
  /// historical behaviour; LatencyCritical tenants must declare a
  /// positive p99 completion-latency target below, enforced by an
  /// attached QosManager (QosError at create_tenant otherwise).
  ServiceClass service_class = ServiceClass::Batch;
  /// p99 completion-latency target in microseconds (LatencyCritical
  /// only; ignored for Batch).
  double target_p99_us = 0;
};

class TenantManager;
class QosManager;      // qos.hpp
struct QosTenantStats;  // qos.hpp

/// A GpuRuntime-like handle owned by one application. Every forwarded
/// call activates this tenant on the shared runtime first.
class Tenant {
 public:
  [[nodiscard]] TenantId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] double weight() const { return spec_.weight; }

  /// Activate this tenant and return the shared runtime: the full
  /// GpuRuntime API as this application. The ambient tenant sticks until
  /// another handle's call changes it, so re-fetch after interleaving.
  [[nodiscard]] GpuRuntime& gpu();

  // --- forwarded surface (the calls the multi-app harness drives) ---
  StreamId create_stream(DeviceId device = kDefaultDevice);
  EventId create_event();
  ArrayId alloc(std::size_t bytes, const std::string& name);
  void free_array(ArrayId id);
  OpId launch(StreamId stream, const LaunchSpec& spec);
  void mem_prefetch_async(ArrayId id, StreamId stream);
  void host_write(ArrayId id);
  void host_read(ArrayId id);
  void record_event(EventId event, StreamId stream);
  void stream_wait_event(StreamId stream, EventId event);
  void synchronize_stream(StreamId stream);
  /// Drain every stream this handle created (the tenant-scoped analogue
  /// of synchronize_device, which would block on other tenants' work).
  void synchronize();

  // --- concurrent submission (requires TenantManager::attach_ingest) ---
  /// Queue a closure onto this tenant's ingest shard from any OS thread;
  /// it runs on the drain with this tenant active. The token resolves
  /// once the closure's drain batch has committed.
  std::future<void> run_async(std::function<void(GpuRuntime&)> fn);
  /// Queue a recorded submission for replay through this tenant's shard
  /// (keep `sub` alive until the token resolves).
  std::future<void> replay_async(const Submission& sub);
  void post_replay(const Submission& sub);  ///< fire-and-forget form
  /// Token for / blocking flush of everything queued to this tenant's
  /// shard so far.
  std::future<void> flush_ingest();
  void flush_ingest_and_wait();
  /// Shard this tenant drains through (ApiError if no service attached).
  [[nodiscard]] int ingest_shard() const;

  // --- per-tenant accounting ---
  [[nodiscard]] long ops_completed() const;
  /// Completed kernel work in solo-us — the throughput numerator the
  /// multi-app harness reports (work/us is contention-free-normalized).
  [[nodiscard]] double work_completed() const;
  /// work_completed plus the progress of this tenant's running kernels:
  /// a quantization-free reading at any virtual instant.
  [[nodiscard]] double work_progress() const;
  [[nodiscard]] std::size_t bytes_evicted(DeviceId d) const;
  [[nodiscard]] std::size_t bytes_evicted() const;  ///< roster total
  [[nodiscard]] std::size_t device_bytes_used(DeviceId d) const;
  [[nodiscard]] ServiceClass service_class() const {
    return spec_.service_class;
  }
  /// Live QoS view of this tenant — service lag, eligibility, deadline
  /// misses, outstanding depth — so admission behaviour is observable
  /// without a profiler attached. ApiError if no QosManager is attached.
  [[nodiscard]] QosTenantStats qos_stats() const;
  /// Streams this handle created (e.g. for engine-level assertions).
  [[nodiscard]] const std::vector<StreamId>& streams() const {
    return streams_;
  }

 private:
  friend class TenantManager;
  Tenant(TenantManager& mgr, TenantId id, TenantSpec spec)
      : mgr_(&mgr), id_(id), spec_(std::move(spec)) {}
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  TenantManager* mgr_;
  TenantId id_;
  TenantSpec spec_;
  std::vector<StreamId> streams_;  ///< created through this handle
};

/// Owns the tenant handles and wires their weights / quotas into the
/// shared engine and memory manager.
class TenantManager {
 public:
  /// `gpu` must outlive the manager (same terms as rt::Context).
  explicit TenantManager(GpuRuntime& gpu) : gpu_(&gpu) {}

  TenantManager(const TenantManager&) = delete;
  TenantManager& operator=(const TenantManager&) = delete;

  /// Admit one application: registers its weight with the engine and its
  /// quota with the memory manager, returns its handle (stable address).
  /// Tenant ids are dense, starting at 0 — the first tenant coincides
  /// with the default tenant, so a one-app TenantManager run is the
  /// plain single-app run.
  Tenant& create_tenant(TenantSpec spec);
  [[nodiscard]] Tenant& tenant(TenantId id);
  [[nodiscard]] const Tenant& tenant(TenantId id) const;
  [[nodiscard]] std::size_t num_tenants() const { return tenants_.size(); }
  [[nodiscard]] GpuRuntime& gpu() { return *gpu_; }

  /// Route tenants through `svc` (which must be attached to the same
  /// runtime and outlive the manager's use of it): applies every
  /// tenant's TenantSpec::ingest_shard pin — existing and future — and
  /// enables the handles' *_async / flush_ingest surface.
  void attach_ingest(IngestService& svc);
  [[nodiscard]] IngestService* ingest() const { return ingest_; }

  /// Called by QosManager's constructor / destructor: registers every
  /// existing (and future) tenant's service class with the QoS subsystem
  /// and enables the handles' qos_stats() surface.
  void attach_qos(QosManager& qos);
  void detach_qos(QosManager& qos);
  [[nodiscard]] QosManager* qos() const { return qos_; }

  /// Jain's fairness index over per-tenant values: 1 = perfectly fair,
  /// 1/n = maximally unfair. Empty/zero input yields 1.
  [[nodiscard]] static double jain_index(std::span<const double> xs);
  /// Jain's index over all tenants' completed kernel work.
  [[nodiscard]] double work_fairness() const;

 private:
  friend class Tenant;
  GpuRuntime* gpu_;
  IngestService* ingest_ = nullptr;
  QosManager* qos_ = nullptr;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace psched::sim

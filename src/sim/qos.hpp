// Latency QoS subsystem: per-tenant service classes with EEVDF virtual
// deadlines, p99-driven re-weighting and admission control.
//
// The tenancy core (sim/tenant.hpp) and the virtual-service solver split
// *throughput* by weight: a latency-critical tenant behind a batch flood
// still sees unbounded queueing delay, because a fair share of bandwidth
// says nothing about when a given request finishes. The QosManager layers
// a latency policy on top of the existing mechanisms without adding any
// new scheduling machinery inside the engine:
//
//   * Service classes. Each tenant declares `ServiceClass::Batch` or
//     `ServiceClass::LatencyCritical{target_p99_us}` in its TenantSpec.
//     Invalid configurations (a latency class without a positive target)
//     throw QosError at create_tenant.
//   * Lag / eligibility. tick() samples each tenant's received service
//     (completed + in-flight kernel work — the same quantization-free
//     progress reading the fairness harness uses) and integrates its
//     *entitled* service: the weight-proportional share of the total
//     progress among currently backlogged tenants, i.e. the ideal
//     weighted-service line of the PR 8 virtual-time integrals. lag =
//     entitled - received; a tenant is *eligible* while lag >= 0 (it has
//     not been over-served). Idle tenants re-join at the line (lag 0).
//   * EEVDF dispatch. Each tick publishes (eligible, virtual deadline)
//     per tenant into the engine; the ready-head sweep then visits
//     same-instant candidates in earliest-eligible-virtual-deadline order
//     instead of pure stream-id order, so contended sequential resources
//     (DMA copy-engine handover) go to the eligible tenant with the most
//     urgent deadline — deadline = earliest outstanding issue + target for
//     latency classes, infinity for batch. Engines that never see a key
//     keep the historical sweep bit-for-bit.
//   * Feedback re-weighting. Completion latency is sampled per tracked op
//     into log-bucket histograms; once per control period the controller
//     compares the window p99 of each latency class against its target
//     and re-prices the tenant's weight through the existing
//     set_tenant_weight zero-member-touch path: multiplicative boost
//     proportional to the overshoot on a miss, decay back toward the
//     declared weight when comfortably under target. Boosts are capped so
//     batch tenants always keep a guaranteed share of a saturated class
//     (ResourceModel::weight_for_share).
//   * Admission control. Per-tenant bounds on outstanding queue depth and
//     service lag; check_admission (wired into GpuRuntime's launch and
//     replay and the IngestService producer paths) throws a structured,
//     recoverable AdmissionError *before* any state changes, so a
//     producer can back off and resubmit once the backlog drains.
//
// Threading: tick() and on_op_issued() run under the runtime api gate
// (they touch engine state); check_admission() may be called from any
// producer thread and only reads QoS-internal state under the manager's
// own mutex.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "sim/tenant.hpp"
#include "sim/types.hpp"

namespace psched::sim {

/// Per-tenant admission bounds (-1 = unbounded).
struct QosLimits {
  /// Maximum outstanding (issued or queued, not yet completed) items; a
  /// submission finding the tenant at or beyond this depth is rejected.
  long max_queue_depth = -1;
  /// Maximum service lag in solo-us: once the tenant has fallen this far
  /// behind its entitled service line, adding work only grows its delay,
  /// so further submissions are rejected until the backlog drains.
  double max_lag_us = -1;
};

/// Snapshot of one tenant's QoS state (Tenant::qos_stats()).
struct QosTenantStats {
  TenantId tenant = kInvalidTenant;
  ServiceClass service_class = ServiceClass::Batch;
  double target_p99_us = 0;
  /// Entitled minus received service (solo-us) as of the last tick.
  double lag_us = 0;
  /// lag >= 0: the tenant has not been over-served and may dispatch.
  bool eligible = true;
  /// Current EEVDF virtual deadline (infinity for batch classes).
  TimeUs vdeadline = kTimeInfinity;
  long outstanding = 0;        ///< tracked ops issued but not completed
  long completed = 0;          ///< tracked ops completed
  long deadline_misses = 0;    ///< completions with latency > target
  long admission_rejections = 0;
  double weight = 1.0;         ///< current engine weight (boost included)
  double p50_us = 0;           ///< cumulative completion-latency median
  double p99_us = 0;           ///< cumulative completion-latency p99
};

class QosManager {
 public:
  /// Attaches to `mgr` (Tenant::qos_stats() now works, handles report
  /// issued ops here) and registers every existing tenant.
  explicit QosManager(TenantManager& mgr);
  ~QosManager();

  QosManager(const QosManager&) = delete;
  QosManager& operator=(const QosManager&) = delete;

  /// Admit one tenant to QoS tracking (TenantManager calls this for every
  /// existing and future tenant while attached). QosError on an invalid
  /// class config.
  void register_tenant(TenantId t, const TenantSpec& spec);

  /// Set `t`'s admission bounds (QosError on an unregistered tenant).
  void set_limits(TenantId t, QosLimits limits);

  /// Throw AdmissionError if admitting one more item for `t` would exceed
  /// its bounds. `extra_depth` adds caller-side queued items the manager
  /// cannot see (the tenant's items queued in an ingest service). Callable
  /// from any thread; counts the rejection. Unregistered tenants pass (no
  /// limits).
  void check_admission(TenantId t, long extra_depth, const char* call);

  /// A tracked op was issued for `t` at host time `host_time` (called by
  /// the Tenant handles under the api gate). Completion latency is
  /// sampled when tick() observes the op done.
  void on_op_issued(TenantId t, OpId id, TimeUs host_time);

  /// Advance the QoS state machine to the runtime's current virtual time:
  /// poll tracked completions into the latency histograms, integrate the
  /// entitled-service line and each tenant's lag, publish (eligibility,
  /// deadline) keys to the engine, and run the feedback controller once
  /// per control period. Call from the driving thread after advancing the
  /// clock (the manager polls the runtime first, so queued completions up
  /// to now() are visible).
  void tick();

  /// Clear latency histograms and miss counters (warmup boundary). Lag,
  /// weights and tracked ops are preserved.
  void reset_stats();

  [[nodiscard]] QosTenantStats stats(TenantId t) const;
  [[nodiscard]] std::size_t num_tenants() const;
  /// Sum of all registered tenants' lags (solo-us) — conserved near zero
  /// while every tenant is backlogged (the entitled line redistributes
  /// received service, it does not create or destroy it).
  [[nodiscard]] double total_lag() const;

 private:
  /// Log-bucket latency histogram: geometric buckets with 4 buckets per
  /// octave starting at 1us (relative quantization error <= 2^(1/4)).
  struct Hist {
    static constexpr int kBuckets = 96;  // covers ~1us .. ~16e6 us
    std::vector<long> counts = std::vector<long>(kBuckets, 0);
    long total = 0;

    void add(double us);
    /// Upper edge of the bucket holding quantile `q` (0 when empty).
    [[nodiscard]] double percentile(double q) const;
    void clear();
  };

  struct State {
    ServiceClass cls = ServiceClass::Batch;
    double target_us = 0;
    double spec_weight = 1.0;  ///< declared weight: the entitlement line
    double weight = 1.0;       ///< current engine weight (boost included)
    QosLimits limits;
    double lag = 0;
    bool eligible = true;
    TimeUs deadline = kTimeInfinity;
    double last_received = 0;  ///< progress snapshot at the prior tick
    long completed = 0;
    long misses = 0;
    long rejected = 0;
    /// Issued, not yet observed complete: (op, issue host time).
    std::vector<std::pair<OpId, TimeUs>> tracked;
    Hist window;      ///< cleared every control period (controller input)
    Hist cumulative;  ///< cleared only by reset_stats (reporting)
  };

  void controller_step();  ///< caller holds mu_ and the api gate

  TenantManager* mgr_;
  GpuRuntime* rt_;
  mutable std::mutex mu_;
  std::vector<State> states_;
  std::vector<double> delta_;  ///< per-tick received-service scratch
  TimeUs next_control_ = 0;
};

}  // namespace psched::sim

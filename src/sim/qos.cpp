#include "sim/qos.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/resource_model.hpp"

namespace psched::sim {

namespace {
/// Eligibility tolerance: lag accumulates fluid-model rounding residue of
/// order ulp(work) per tick, which must not flip a balanced tenant
/// ineligible.
constexpr double kLagEps = 1e-9;

// Feedback controller constants.
/// Sampling window: the controller runs once per this many microseconds
/// of virtual time.
constexpr TimeUs kControlPeriodUs = 200.0;
/// Per-period multiplicative weight boost bounds: the boost factor is the
/// p99/target overshoot, clamped into [kMinBoost, kMaxBoost].
constexpr double kMinBoost = 1.25;
constexpr double kMaxBoost = 4.0;
/// Relaxation: when the window p99 is under kRelaxThreshold * target, the
/// weight decays by kDecay toward the declared spec weight.
constexpr double kDecay = 0.8;
constexpr double kRelaxThreshold = 0.5;
/// Cap on any latency class's share of a saturated class: the weight
/// boost never exceeds ResourceModel::weight_for_share(this, others).
constexpr double kMaxLatencyShare = 0.95;
}  // namespace

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

void QosManager::Hist::add(double us) {
  int idx = 0;
  if (us > 1.0) {
    idx = static_cast<int>(std::log2(us) * 4.0) + 1;
  }
  idx = std::clamp(idx, 0, kBuckets - 1);
  ++counts[static_cast<std::size_t>(idx)];
  ++total;
}

double QosManager::Hist::percentile(double q) const {
  if (total == 0) return 0;
  long want = static_cast<long>(std::ceil(q * static_cast<double>(total)));
  if (want < 1) want = 1;
  long cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += counts[static_cast<std::size_t>(i)];
    if (cum >= want) {
      // Upper edge of bucket i: bucket 0 is (0, 1us], bucket i covers
      // (2^((i-1)/4), 2^(i/4)] microseconds.
      return i == 0 ? 1.0 : std::exp2(static_cast<double>(i) / 4.0);
    }
  }
  return std::exp2(static_cast<double>(kBuckets - 1) / 4.0);
}

void QosManager::Hist::clear() {
  std::fill(counts.begin(), counts.end(), 0);
  total = 0;
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

QosManager::QosManager(TenantManager& mgr)
    : mgr_(&mgr), rt_(&mgr.gpu()) {
  next_control_ = rt_->engine().now() + kControlPeriodUs;
  mgr_->attach_qos(*this);   // registers existing tenants (may throw)
  rt_->attach_qos(this);     // enables launch-path admission checks
}

QosManager::~QosManager() {
  rt_->detach_qos(this);
  mgr_->detach_qos(*this);
  // Restore the stock ready-head sweep: an engine outliving its QoS
  // policy behaves as if it never saw one.
  const auto gate = rt_->api_guard();
  rt_->engine().clear_tenant_qos();
}

void QosManager::register_tenant(TenantId t, const TenantSpec& spec) {
  if (t < 0 || t >= kMaxTenants) {
    throw QosError("register_tenant: invalid tenant " + std::to_string(t),
                   t);
  }
  if (spec.service_class == ServiceClass::LatencyCritical &&
      !(spec.target_p99_us > 0)) {
    throw QosError("register_tenant: LatencyCritical tenant " +
                       std::to_string(t) +
                       " needs a positive target_p99_us (got " +
                       std::to_string(spec.target_p99_us) + ")",
                   t);
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (states_.size() <= static_cast<std::size_t>(t)) {
    states_.resize(static_cast<std::size_t>(t) + 1);
  }
  State& s = states_[static_cast<std::size_t>(t)];
  s.cls = spec.service_class;
  s.target_us = spec.target_p99_us;
  s.spec_weight = spec.weight;
  s.weight = spec.weight;
}

void QosManager::set_limits(TenantId t, QosLimits limits) {
  std::lock_guard<std::mutex> lk(mu_);
  if (t < 0 || static_cast<std::size_t>(t) >= states_.size()) {
    throw QosError("set_limits: unregistered tenant " + std::to_string(t),
                   t);
  }
  states_[static_cast<std::size_t>(t)].limits = limits;
}

// ---------------------------------------------------------------------
// Admission + issue tracking
// ---------------------------------------------------------------------

void QosManager::check_admission(TenantId t, long extra_depth,
                                 const char* call) {
  std::lock_guard<std::mutex> lk(mu_);
  if (t < 0 || static_cast<std::size_t>(t) >= states_.size()) return;
  State& s = states_[static_cast<std::size_t>(t)];
  const long depth = static_cast<long>(s.tracked.size()) + extra_depth;
  if (s.limits.max_queue_depth >= 0 && depth >= s.limits.max_queue_depth) {
    ++s.rejected;
    throw AdmissionError(call, t, s.cls, depth, s.limits.max_queue_depth,
                         s.lag, s.limits.max_lag_us);
  }
  if (s.limits.max_lag_us >= 0 && s.lag > s.limits.max_lag_us) {
    ++s.rejected;
    throw AdmissionError(call, t, s.cls, depth, -1, s.lag,
                         s.limits.max_lag_us);
  }
}

void QosManager::on_op_issued(TenantId t, OpId id, TimeUs host_time) {
  if (id == kInvalidOp) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (t < 0 || static_cast<std::size_t>(t) >= states_.size()) return;
  states_[static_cast<std::size_t>(t)].tracked.emplace_back(id, host_time);
}

// ---------------------------------------------------------------------
// The QoS state machine
// ---------------------------------------------------------------------

void QosManager::tick() {
  const auto gate = rt_->api_guard();
  rt_->poll();  // fold completions up to the current host time
  Engine& eng = rt_->engine();
  std::lock_guard<std::mutex> lk(mu_);
  const TimeUs now = eng.now();
  const std::size_t nt = states_.size();

  // 1. Sample completion latency for tracked ops that finished.
  for (std::size_t t = 0; t < nt; ++t) {
    State& s = states_[t];
    auto& tr = s.tracked;
    for (std::size_t i = 0; i < tr.size();) {
      if (!eng.op_done(tr[i].first)) {
        ++i;
        continue;
      }
      const Op rec = eng.op(tr[i].first);
      const double lat = rec.end_time - tr[i].second;
      s.window.add(lat);
      s.cumulative.add(lat);
      ++s.completed;
      if (s.cls == ServiceClass::LatencyCritical && lat > s.target_us) {
        ++s.misses;
      }
      tr[i] = tr.back();
      tr.pop_back();
    }
  }

  // 2. Integrate the entitled-service line: the interval's total progress
  // redistributed over the *backlogged* tenants in spec-weight proportion
  // is what an ideal weighted-fair server would have given each of them.
  // lag accumulates entitled - received; idle tenants re-join at the line.
  double dt_total = 0;
  double w_backlogged = 0;
  delta_.assign(nt, 0.0);
  for (std::size_t t = 0; t < nt; ++t) {
    State& s = states_[t];
    const double received =
        eng.tenant_completed_work(static_cast<TenantId>(t)) +
        eng.tenant_inflight_work(static_cast<TenantId>(t));
    delta_[t] = received - s.last_received;
    s.last_received = received;
    dt_total += delta_[t];
    if (!s.tracked.empty()) w_backlogged += s.spec_weight;
  }
  for (std::size_t t = 0; t < nt; ++t) {
    State& s = states_[t];
    if (!s.tracked.empty() && w_backlogged > 0) {
      s.lag += dt_total * (s.spec_weight / w_backlogged) - delta_[t];
    } else {
      s.lag = 0;
    }
  }

  // 3. Publish the EEVDF keys: eligibility from the lag sign, deadlines
  // from the class target anchored at the earliest outstanding issue.
  for (std::size_t t = 0; t < nt; ++t) {
    State& s = states_[t];
    s.eligible = s.lag >= -kLagEps;
    if (s.cls == ServiceClass::LatencyCritical) {
      TimeUs earliest = kTimeInfinity;
      for (const auto& p : s.tracked) earliest = std::min(earliest, p.second);
      s.deadline = (earliest == kTimeInfinity ? now : earliest) + s.target_us;
    } else {
      s.deadline = kTimeInfinity;
    }
    eng.set_tenant_qos(static_cast<TenantId>(t), s.eligible, s.deadline);
  }

  // 4. Feedback controller, once per control period.
  if (now >= next_control_) {
    controller_step();
    next_control_ = now + kControlPeriodUs;
  }
}

void QosManager::controller_step() {
  Engine& eng = rt_->engine();
  for (std::size_t t = 0; t < states_.size(); ++t) {
    State& s = states_[t];
    if (s.cls != ServiceClass::LatencyCritical || s.window.total == 0) {
      s.window.clear();
      continue;
    }
    const double wp99 = s.window.percentile(0.99);
    double next = s.weight;
    if (wp99 > s.target_us) {
      // Boost proportionally to the overshoot, but never past the weight
      // that would hand this tenant more than max_latency_share of a
      // saturated class — batch tenants keep a guaranteed sliver.
      const double factor =
          std::clamp(wp99 / s.target_us, kMinBoost, kMaxBoost);
      double others = 0;
      for (std::size_t u = 0; u < states_.size(); ++u) {
        if (u != t) others += states_[u].weight;
      }
      const double cap =
          ResourceModel::weight_for_share(kMaxLatencyShare, others);
      next = std::min(s.weight * factor, std::max(cap, s.spec_weight));
    } else if (wp99 < kRelaxThreshold * s.target_us &&
               s.weight > s.spec_weight) {
      next = std::max(s.spec_weight, s.weight * kDecay);
    }
    if (next != s.weight) {
      s.weight = next;
      eng.set_tenant_weight(static_cast<TenantId>(t), next);
    }
    s.window.clear();
  }
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

void QosManager::reset_stats() {
  std::lock_guard<std::mutex> lk(mu_);
  for (State& s : states_) {
    s.window.clear();
    s.cumulative.clear();
    s.misses = 0;
  }
}

QosTenantStats QosManager::stats(TenantId t) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (t < 0 || static_cast<std::size_t>(t) >= states_.size()) {
    throw QosError("stats: unregistered tenant " + std::to_string(t), t);
  }
  const State& s = states_[static_cast<std::size_t>(t)];
  QosTenantStats out;
  out.tenant = t;
  out.service_class = s.cls;
  out.target_p99_us = s.target_us;
  out.lag_us = s.lag;
  out.eligible = s.eligible;
  out.vdeadline = s.deadline;
  out.outstanding = static_cast<long>(s.tracked.size());
  out.completed = s.completed;
  out.deadline_misses = s.misses;
  out.admission_rejections = s.rejected;
  out.weight = s.weight;
  out.p50_us = s.cumulative.percentile(0.50);
  out.p99_us = s.cumulative.percentile(0.99);
  return out;
}

std::size_t QosManager::num_tenants() const {
  std::lock_guard<std::mutex> lk(mu_);
  return states_.size();
}

double QosManager::total_lag() const {
  std::lock_guard<std::mutex> lk(mu_);
  double sum = 0;
  for (const State& s : states_) sum += s.lag;
  return sum;
}

}  // namespace psched::sim

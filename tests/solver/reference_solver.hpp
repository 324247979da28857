// Test-only full-scan rate oracle for the engine's fluid solver.
//
// The engine prices running ops through two regimes — a per-member full
// scan and the virtual-service incremental path — and switches between
// them on its own. This oracle re-derives the rate every running op
// should have from public API alone, by folding nothing and scanning
// everything:
//   * the running set comes from Engine::op(id) snapshots (kind, device,
//     peer, tenant, sm_demand, occupancy, bw_need);
//   * the arithmetic comes from ResourceModel::utilization,
//     solve_kernel_class, class_share and water_fill_budgets, plus
//     Machine::p2p_bytes_per_us and Engine::tenant_weight;
//   * classes spanning several tenants are re-shared weight-
//     proportionally, with the same intra-tenant spread as the engine's
//     apply_tenant_shares.
//
// MidpointChecker drives a scenario to the midpoint of every inter-event
// interval of a reference run — where the running set and every rate are
// constant — and compares each running op's rate with the oracle there.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource_model.hpp"

namespace psched::sim::test {

/// Weighted per-tenant re-share of one class's base rates (kernels: the
/// base solve; transfers: the equal share), conserving the class total.
inline void reference_tenant_shares(const Engine& eng,
                                    const std::vector<TenantId>& tenants,
                                    bool kernel_class,
                                    std::vector<double>& rates) {
  std::vector<TenantId> ids;
  std::vector<double> weight;
  std::vector<double> rate_sum;
  std::vector<double> cap;  // members per tenant: rate 1.0 apiece
  const auto slot = [&ids](TenantId t) {
    return static_cast<std::size_t>(std::find(ids.begin(), ids.end(), t) -
                                    ids.begin());
  };
  double total_weight = 0;
  double total_rate = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::size_t j = slot(tenants[i]);
    if (j == ids.size()) {
      ids.push_back(tenants[i]);
      weight.push_back(eng.tenant_weight(tenants[i]));
      rate_sum.push_back(0);
      cap.push_back(0);
      total_weight += weight.back();
    }
    rate_sum[j] += rates[i];
    cap[j] += 1.0;
    total_rate += rates[i];
  }
  if (total_weight <= 0 || total_rate <= 0) return;
  if (!kernel_class) {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const std::size_t j = slot(tenants[i]);
      rates[i] = total_rate * weight[j] / (total_weight * cap[j]);
    }
    return;
  }
  std::vector<double> budget;
  std::vector<char> active;
  ResourceModel::water_fill_budgets(weight, cap, total_rate, budget, active);
  // Each tenant's budget spreads over its members in proportion to their
  // base rates, members capped at 1.0 (a capped member's overflow
  // re-spreads over the rest).
  std::vector<char> capped(tenants.size(), 0);
  for (std::size_t j = 0; j < ids.size(); ++j) {
    double left = budget[j];
    double unc_sum = rate_sum[j];
    bool any = true;
    while (any && unc_sum > 0) {
      const double f = left / unc_sum;
      any = false;
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        if (tenants[i] != ids[j] || capped[i] || f * rates[i] < 1.0) continue;
        left -= 1.0;
        unc_sum -= rates[i];
        rates[i] = 1.0;
        capped[i] = 1;
        any = true;
      }
      if (!any) {
        for (std::size_t i = 0; i < tenants.size(); ++i) {
          if (tenants[i] == ids[j] && !capped[i]) rates[i] *= f;
        }
      }
    }
  }
}

/// Expected rate of every op in `running` (live snapshots of the engine's
/// running ops at eng.now()), keyed by op id. Rate-less kinds are skipped.
inline std::map<OpId, double> reference_rates(const Engine& eng,
                                              const std::vector<Op>& running) {
  // One class per (kind, device) — CopyP2P per directed (peer, device)
  // link — exactly the engine's solver domains.
  std::map<std::tuple<OpKind, DeviceId, DeviceId>, std::vector<const Op*>>
      classes;
  for (const Op& op : running) {
    if (op.kind == OpKind::Marker || op.kind == OpKind::Host) continue;
    const DeviceId peer =
        op.kind == OpKind::CopyP2P ? op.peer : kInvalidDevice;
    classes[{op.kind, op.device, peer}].push_back(&op);
  }
  std::map<OpId, double> out;
  for (const auto& [key, members] : classes) {
    const auto [kind, device, peer] = key;
    const std::size_t n = members.size();
    std::vector<double> rates;
    if (kind == OpKind::Kernel) {
      std::vector<double> fill;
      std::vector<double> solo_u;
      std::vector<double> bw;
      for (const Op* op : members) {
        fill.push_back((op->sm_demand / eng.spec(device).sm_count) *
                       op->occupancy);
        solo_u.push_back(ResourceModel::utilization(fill.back()));
        bw.push_back(op->bw_need);
      }
      eng.model(device).solve_kernel_class(fill, solo_u, bw, rates);
    } else if (kind == OpKind::CopyP2P) {
      rates.assign(n, eng.machine().p2p_bytes_per_us(peer, device) /
                          static_cast<double>(n));
    } else {
      rates.assign(n, eng.model(device).class_share(kind, n));
    }
    std::vector<TenantId> tenants;
    for (const Op* op : members) tenants.push_back(op->tenant);
    if (std::adjacent_find(tenants.begin(), tenants.end(),
                           std::not_equal_to<>()) != tenants.end()) {
      reference_tenant_shares(eng, tenants, kind == OpKind::Kernel, rates);
    }
    for (std::size_t i = 0; i < n; ++i) out[members[i]->id] = rates[i];
  }
  return out;
}

/// How a scenario moves the clock: a plain pass-through, or (overridden by
/// MidpointChecker) a drive that stops to check rates on the way.
class Stepper {
 public:
  virtual ~Stepper() = default;
  virtual void advance_to(Engine& eng, TimeUs t) { eng.advance_to(t); }
  virtual TimeUs run_all(Engine& eng) { return eng.run_all(); }
};

/// A scenario builds its own engine, drives it through `d`, and returns
/// the finished timeline.
using Scenario = std::function<std::vector<TimelineEntry>(Stepper& d)>;

class MidpointChecker : public Stepper {
 public:
  static constexpr double kRelTol = 1e-9;

  MidpointChecker(std::vector<TimelineEntry> reference, std::string name)
      : ref_(std::move(reference)), name_(std::move(name)) {
    std::vector<TimeUs> times;
    for (const TimelineEntry& e : ref_) {
      times.push_back(e.start);
      times.push_back(e.end);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    for (std::size_t i = 1; i < times.size(); ++i) {
      // Skip slivers: a stop within the completion tolerance of an event
      // would complete that op early and perturb the schedule.
      const TimeUs a = times[i - 1];
      const TimeUs b = times[i];
      if (b - a > 1e-4 + 1e-8 * b) mids_.push_back(0.5 * (a + b));
    }
  }

  void advance_to(Engine& eng, TimeUs t) override {
    check_until(eng, t);
    eng.advance_to(t);
  }
  TimeUs run_all(Engine& eng) override {
    check_until(eng, kTimeInfinity);
    return eng.run_all();
  }

  [[nodiscard]] long checks() const { return checks_; }
  [[nodiscard]] long rates_checked() const { return rates_checked_; }

 private:
  void check_until(Engine& eng, TimeUs t) {
    while (next_ < mids_.size() && mids_[next_] < t) {
      const TimeUs mid = mids_[next_++];
      if (mid <= eng.now()) continue;
      eng.advance_to(mid);
      eng.audit();
      check(eng);
    }
  }

  void check(const Engine& eng) {
    // The running set at `mid`: every recorded op whose reference span
    // covers it (markers never reach the timeline and carry no rate).
    std::vector<Op> running;
    for (const TimelineEntry& e : ref_) {
      if (e.start > eng.now() || e.end <= eng.now()) continue;
      Op snap = eng.op(e.op);
      ASSERT_EQ(snap.state, OpState::Running)
          << name_ << ": op " << e.op << " (" << e.name << ") at t="
          << eng.now();
      running.push_back(std::move(snap));
    }
    const std::map<OpId, double> want = reference_rates(eng, running);
    for (const Op& op : running) {
      const auto it = want.find(op.id);
      if (it == want.end()) continue;
      const double tol = std::max(kRelTol * std::abs(it->second), 1e-15);
      EXPECT_NEAR(op.rate, it->second, tol)
          << name_ << ": op " << op.id << " (" << op.name << ", tenant "
          << op.tenant << ") at t=" << eng.now();
      ++rates_checked_;
    }
    ++checks_;
  }

  std::vector<TimelineEntry> ref_;
  std::string name_;
  std::vector<TimeUs> mids_;
  std::size_t next_ = 0;
  long checks_ = 0;
  long rates_checked_ = 0;
};

/// Run `scenario` once plainly for its reference timeline, then again
/// through a MidpointChecker. Stopping at the midpoints must not move the
/// schedule: the checked run's timeline equals the reference exactly.
inline void expect_rates_match_reference(const Scenario& scenario,
                                         const std::string& name) {
  Stepper plain;
  const std::vector<TimelineEntry> ref = scenario(plain);
  MidpointChecker checker(ref, name);
  const std::vector<TimelineEntry> got = scenario(checker);
  EXPECT_GT(checker.checks(), 0) << name;
  EXPECT_GT(checker.rates_checked(), 0) << name;
  ASSERT_EQ(got.size(), ref.size()) << name;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i].op, ref[i].op) << name << ": entry " << i;
    EXPECT_EQ(got[i].start, ref[i].start) << name << ": entry " << i;
    EXPECT_EQ(got[i].end, ref[i].end) << name << ": entry " << i;
  }
}

}  // namespace psched::sim::test

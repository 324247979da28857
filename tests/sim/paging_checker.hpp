// Test-only physical-order checker for paged residency.
//
// The MemoryManager applies residency decisions at issue time: frames are
// charged and released when an admission or a planner serve is planned,
// long before the transfers that realize them run. This checker asks
// whether the schedule the engine then produced is physically possible —
// whether every page actually had a frame to land in when it moved.
//
// PagingRecorder observes a scenario from public state alone. After every
// API call the test drives, it snapshots, for each tracked array,
//   * the ops in its pending read/write sets — every op touching an array
//     (kernels, fetches, fault migrations, eviction write-backs) registers
//     there from issue until completion, so each op is attributed to its
//     arrays and to the call that issued it;
//   * its charged bytes per device — increases are frames acquired in that
//     call, decreases frames released.
// An op issued by a call cannot complete before the call returns (the
// engine only advances to the host clock, and every attributed op has
// nonzero duration), so one snapshot per call sees every op.
//
// check_paging then replays the recording against the timeline and
// asserts, per device:
//   1. no page-in starts before the page-outs issued ahead of it in the
//      same call end (they free its frames);
//   2. no page-out starts before the victim's last previously issued user
//      ends;
//   3. no kernel starts before the page-ins of its arrays issued ahead of
//      it end;
//   4. resident bytes over virtual time never exceed capacity: a charge
//      occupies its frames from the first op that touches the array after
//      it, a release frees them when the write-back ends — or, for a
//      dropped copy, when the array's last issued op ends.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/runtime.hpp"
#include "sim/timeline.hpp"

namespace psched::sim::test {

class PagingRecorder {
 public:
  /// One per-call change of an array's charge on a device.
  struct Delta {
    int call;
    ArrayId array;
    DeviceId device;
    long long bytes;  ///< > 0 acquired, < 0 released
  };

  /// Snapshot after one API call of the scenario; `arrays` are the live
  /// arrays to track (the list may grow from call to call).
  void after_call(const GpuRuntime& rt, const std::vector<ArrayId>& arrays) {
    if (capacity_.empty()) {
      for (DeviceId d = 0; d < rt.num_devices(); ++d) {
        capacity_.push_back(rt.memory().device_capacity(d));
      }
    }
    for (const ArrayId id : arrays) {
      if (charged_.count(id) == 0) {
        charged_[id].assign(static_cast<std::size_t>(rt.num_devices()), 0);
      }
      const ArrayInfo& a = rt.memory().info(id);
      for (const auto* set : {&a.pending_reads, &a.pending_writes}) {
        for (const OpId op : *set) {
          if (op_call_.emplace(op, call_).second || op_call_[op] == call_) {
            auto& owners = op_arrays_[op];
            if (std::find(owners.begin(), owners.end(), a.id) ==
                owners.end()) {
              owners.push_back(a.id);
            }
          }
        }
      }
      for (DeviceId d = 0; d < rt.num_devices(); ++d) {
        const std::size_t now = a.resident_bytes_on(d);
        std::size_t& before = charged_[id][static_cast<std::size_t>(d)];
        if (now != before) {
          deltas_.push_back({call_, a.id, d,
                             static_cast<long long>(now) -
                                 static_cast<long long>(before)});
          before = now;
        }
      }
    }
    ++call_;
  }

  [[nodiscard]] const std::map<OpId, std::vector<ArrayId>>& op_arrays() const {
    return op_arrays_;
  }
  [[nodiscard]] const std::map<OpId, int>& op_call() const { return op_call_; }
  [[nodiscard]] const std::vector<Delta>& deltas() const { return deltas_; }
  [[nodiscard]] const std::vector<std::size_t>& capacity() const {
    return capacity_;
  }

 private:
  std::map<ArrayId, std::vector<std::size_t>> charged_;  ///< per device
  std::vector<std::size_t> capacity_;
  std::map<OpId, std::vector<ArrayId>> op_arrays_;
  std::map<OpId, int> op_call_;
  std::vector<Delta> deltas_;
  int call_ = 0;
};

namespace paging_detail {

inline bool is_page_in(const TimelineEntry& e) {
  return e.kind == OpKind::Fault || e.kind == OpKind::CopyH2D ||
         e.kind == OpKind::CopyP2P;
}
inline bool is_page_out(const TimelineEntry& e) {
  return e.kind == OpKind::CopyD2H && e.name.rfind("evict:", 0) == 0;
}
/// `a` no earlier than `b`, at the golden tolerance.
inline bool not_before(TimeUs a, TimeUs b) {
  return a >= b - std::max(1e-6, 1e-9 * std::abs(b));
}

}  // namespace paging_detail

/// Every physical-order violation the recording and timeline show, one
/// human-readable line each (empty: the schedule is physically sound).
/// `capacity` overrides the recorded per-device capacities when given.
inline std::vector<std::string> check_paging(
    const PagingRecorder& rec, const std::vector<TimelineEntry>& timeline,
    std::vector<std::size_t> capacity = {}) {
  if (capacity.empty()) capacity = rec.capacity();
  using namespace paging_detail;
  std::vector<std::string> bad;
  std::map<OpId, const TimelineEntry*> entry;
  for (const TimelineEntry& e : timeline) entry[e.op] = &e;
  const auto& op_arrays = rec.op_arrays();
  const auto& op_call = rec.op_call();
  // Attributed ops per (array, device), in issue order.
  std::map<std::pair<ArrayId, DeviceId>, std::vector<const TimelineEntry*>>
      ops_of;
  for (const auto& [op, arrays] : op_arrays) {
    const auto it = entry.find(op);
    if (it == entry.end()) continue;
    for (const ArrayId a : arrays) {
      ops_of[{a, it->second->device}].push_back(it->second);
    }
  }
  const auto describe = [](const TimelineEntry& e) {
    return e.name + " (op " + std::to_string(e.op) + ")";
  };

  // 1. Page-ins behind the page-outs issued ahead of them in their call.
  for (const auto& [op, arrays] : op_arrays) {
    const auto pi = entry.find(op);
    if (pi == entry.end() || !is_page_in(*pi->second)) continue;
    const int call = op_call.at(op);
    for (const auto& [other, unused] : op_arrays) {
      if (other >= op) break;
      const auto po = entry.find(other);
      if (po == entry.end() || !is_page_out(*po->second) ||
          op_call.at(other) != call ||
          po->second->device != pi->second->device) {
        continue;
      }
      if (!not_before(pi->second->start, po->second->end)) {
        bad.push_back("page-in " + describe(*pi->second) + " starts at " +
                      std::to_string(pi->second->start) + " before page-out " +
                      describe(*po->second) + " ends at " +
                      std::to_string(po->second->end));
      }
    }
  }

  // 2. Page-outs behind the victim's last previously issued user.
  for (const auto& [op, arrays] : op_arrays) {
    const auto po = entry.find(op);
    if (po == entry.end() || !is_page_out(*po->second)) continue;
    for (const ArrayId v : arrays) {
      const TimelineEntry* last = nullptr;
      for (const auto& [other, others] : op_arrays) {
        if (other >= op) break;
        const auto u = entry.find(other);
        if (u == entry.end() || is_page_out(*u->second)) continue;
        if (std::find(others.begin(), others.end(), v) != others.end()) {
          last = u->second;
        }
      }
      if (last != nullptr && !not_before(po->second->start, last->end)) {
        bad.push_back("page-out " + describe(*po->second) + " starts at " +
                      std::to_string(po->second->start) +
                      " before its victim's last user " + describe(*last) +
                      " ends at " + std::to_string(last->end));
      }
    }
  }

  // 3. Kernels behind the page-ins of their arrays.
  for (const auto& [key, ops] : ops_of) {
    for (const TimelineEntry* k : ops) {
      if (k->kind != OpKind::Kernel) continue;
      for (const TimelineEntry* p : ops) {
        if (p->op >= k->op || !is_page_in(*p)) continue;
        if (!not_before(k->start, p->end)) {
          bad.push_back("kernel " + describe(*k) + " starts at " +
                        std::to_string(k->start) + " before page-in " +
                        describe(*p) + " ends at " + std::to_string(p->end));
        }
      }
    }
  }

  // 4. Resident bytes over virtual time, per device. Write-back bytes
  // free when their page-out op lands (one op may carry several victims,
  // and one victim's pages may split over several ops in a call);
  // dropped copies free when the array's last op issued so far ends.
  std::map<DeviceId, std::vector<std::pair<TimeUs, long long>>> sweep;
  std::map<std::pair<int, DeviceId>, std::vector<const TimelineEntry*>>
      page_outs;  // per (call, device)
  for (const auto& [op, arrays] : op_arrays) {
    const auto it = entry.find(op);
    if (it == entry.end() || !is_page_out(*it->second)) continue;
    page_outs[{op_call.at(op), it->second->device}].push_back(it->second);
    sweep[it->second->device].emplace_back(
        it->second->end, -static_cast<long long>(it->second->bytes));
  }
  std::map<std::pair<int, DeviceId>, long long> written;  // released via ops
  for (const PagingRecorder::Delta& d : rec.deltas()) {
    const auto it = ops_of.find({d.array, d.device});
    const std::vector<const TimelineEntry*> none;
    const auto& ops = it != ops_of.end() ? it->second : none;
    if (d.bytes > 0) {
      // Frames are occupied from the first op touching the array after
      // the charge (its page-in, or the kernel materializing it) — from
      // time 0 when the recording saw none, which only a missed snapshot
      // explains.
      TimeUs at = kTimeInfinity;
      for (const TimelineEntry* e : ops) {
        if (op_call.at(e->op) >= d.call && !is_page_out(*e)) {
          at = std::min(at, e->start);
        }
      }
      sweep[d.device].emplace_back(at < kTimeInfinity ? at : 0, d.bytes);
      continue;
    }
    bool written_back = false;
    TimeUs last_use = 0;
    for (const TimelineEntry* e : ops) {
      const int call = op_call.at(e->op);
      if (is_page_out(*e) && call == d.call) written_back = true;
      if (!is_page_out(*e) && call <= d.call) {
        last_use = std::max(last_use, e->end);
      }
    }
    if (written_back) {
      written[{d.call, d.device}] -= d.bytes;
    } else {
      sweep[d.device].emplace_back(last_use, d.bytes);
    }
  }
  // Victims with a page-out op may also have dropped some pages (a copy
  // current elsewhere): whatever the ops did not carry frees when the
  // call's last page-out lands.
  for (const auto& [key, bytes] : written) {
    long long carried = 0;
    TimeUs last = 0;
    for (const TimelineEntry* e : page_outs[key]) {
      carried += static_cast<long long>(e->bytes);
      last = std::max(last, e->end);
    }
    if (bytes > carried) sweep[key.second].emplace_back(last, carried - bytes);
  }
  for (auto& [dev, events] : sweep) {
    // Releases before acquisitions at one instant (within tolerance).
    std::sort(events.begin(), events.end(),
              [](const auto& x, const auto& y) {
                if (std::abs(x.first - y.first) >
                    std::max(1e-6, 1e-9 * std::abs(y.first))) {
                  return x.first < y.first;
                }
                return x.second < y.second;
              });
    long long resident = 0;
    const auto cap =
        static_cast<long long>(capacity[static_cast<std::size_t>(dev)]);
    for (const auto& [t, bytes] : events) {
      resident += bytes;
      if (resident > cap) {
        bad.push_back("device " + std::to_string(dev) + " holds " +
                      std::to_string(resident) + " bytes at " +
                      std::to_string(t) + ", capacity " + std::to_string(cap));
        break;
      }
    }
  }
  return bad;
}

/// gtest form: every violation is a failure line.
inline void expect_physical_paging(const PagingRecorder& rec,
                                   const std::vector<TimelineEntry>& timeline) {
  for (const std::string& v : check_paging(rec, timeline)) ADD_FAILURE() << v;
}

}  // namespace psched::sim::test

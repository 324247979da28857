#include "sim/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace psched::sim {

namespace {

bool counts_for_makespan(const TimelineEntry& e) {
  return e.kind != OpKind::Marker && e.kind != OpKind::Host;
}

}  // namespace

void Timeline::record(const TimelineEntry& e) {
  if (counts_for_makespan(e)) {
    agg_.begin = std::min(agg_.begin, e.start);
    agg_.end = std::max(agg_.end, e.end);
  }
  if (e.kind == OpKind::Kernel) {
    agg_.kernel_time += e.duration();
    agg_.kernel_profile += e.prof;
  } else if (is_transfer(e.kind)) {
    agg_.transfer_time += e.duration();
  }
  entries_.push_back(e);
}

TimeUs Timeline::makespan() const {
  if (entries_.empty()) return 0;
  const TimeUs b = begin_time();
  const TimeUs e = end_time();
  return e > b ? e - b : 0;
}

IntervalSet Timeline::cover(OpKind kind) const {
  std::vector<Interval> ivs;
  for (const auto& e : entries_) {
    if (e.kind == kind) ivs.push_back(e.interval());
  }
  return IntervalSet(std::move(ivs));
}

IntervalSet Timeline::kernel_cover() const { return cover(OpKind::Kernel); }

IntervalSet Timeline::transfer_cover() const {
  std::vector<Interval> ivs;
  for (const auto& e : entries_) {
    if (is_transfer(e.kind)) ivs.push_back(e.interval());
  }
  return IntervalSet(std::move(ivs));
}

OverlapMetrics Timeline::overlap_metrics() const {
  // One sweep over entry boundaries. With K kernels, T transfers and A
  // counted entries covering time t, an entry's overlap with the union of
  // the *others* integrates to the four sums
  //   CT = ∫K·[T≥1]   TC = ∫T·[K≥1]   CC = ∫K·[K≥2]   TOT = ∫A·[A≥2].
  struct Edge {
    TimeUs t;
    int dk, dt, da;  // change of K, T and A at t
  };
  std::vector<Edge> edges;
  TimeUs kernel_total = 0, transfer_total = 0, any_total = 0;
  for (const auto& e : entries_) {
    if (!counts_for_makespan(e)) continue;
    const Interval iv = e.interval();
    const int is_k = e.kind == OpKind::Kernel ? 1 : 0;
    const int is_t = is_transfer(e.kind) ? 1 : 0;
    if (is_k) kernel_total += iv.length();
    if (is_t) transfer_total += iv.length();
    any_total += iv.length();
    if (iv.empty()) continue;
    edges.push_back({iv.begin, is_k, is_t, 1});
    edges.push_back({iv.end, -is_k, -is_t, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  TimeUs kernel_ct = 0, kernel_cc = 0, transfer_tc = 0, any_overlap = 0;
  int k = 0, t = 0, a = 0;
  TimeUs prev = 0;
  for (const Edge& edge : edges) {
    const TimeUs len = edge.t - prev;
    if (len > 0) {
      if (t >= 1) kernel_ct += k * len;
      if (k >= 1) transfer_tc += t * len;
      if (k >= 2) kernel_cc += k * len;
      if (a >= 2) any_overlap += a * len;
    }
    k += edge.dk;
    t += edge.dt;
    a += edge.da;
    prev = edge.t;
  }

  OverlapMetrics m;
  m.ct = kernel_total > 0 ? kernel_ct / kernel_total : 0;
  m.tc = transfer_total > 0 ? transfer_tc / transfer_total : 0;
  m.cc = kernel_total > 0 ? kernel_cc / kernel_total : 0;
  m.tot = any_total > 0 ? any_overlap / any_total : 0;
  return m;
}

std::string Timeline::render_ascii(int width) const {
  std::ostringstream out;
  const TimeUs t0 = begin_time();
  const TimeUs t1 = end_time();
  const TimeUs span = std::max<TimeUs>(t1 - t0, 1e-9);

  std::map<StreamId, std::vector<const TimelineEntry*>> by_stream;
  for (const auto& e : entries_) {
    if (!counts_for_makespan(e)) continue;
    by_stream[e.stream].push_back(&e);
  }

  out << "timeline: " << t0 << " .. " << t1 << " us (makespan "
      << makespan() << " us)\n";
  for (auto& [stream, ops] : by_stream) {
    std::string row(static_cast<std::size_t>(width), '.');
    std::sort(ops.begin(), ops.end(),
              [](const TimelineEntry* a, const TimelineEntry* b) {
                return a->start < b->start;
              });
    for (const TimelineEntry* e : ops) {
      int lo = static_cast<int>((e->start - t0) / span * width);
      int hi = static_cast<int>((e->end - t0) / span * width);
      lo = std::clamp(lo, 0, width - 1);
      hi = std::clamp(hi, lo + 1, width);
      char c = '?';
      switch (e->kind) {
        case OpKind::Kernel: c = e->name.empty() ? 'K' : e->name[0]; break;
        case OpKind::CopyH2D: c = '>'; break;
        case OpKind::CopyD2H: c = '<'; break;
        case OpKind::Fault: c = 'f'; break;
        case OpKind::CopyP2P: c = 'p'; break;
        default: c = '.'; break;
      }
      for (int i = lo; i < hi; ++i) row[static_cast<std::size_t>(i)] = c;
    }
    out << "S" << stream << " |" << row << "|\n";
  }
  // Legend of kernels per stream.
  for (auto& [stream, ops] : by_stream) {
    for (const TimelineEntry* e : ops) {
      if (e->kind == OpKind::Kernel) {
        out << "  S" << stream << " " << e->name << " [" << e->start << ", "
            << e->end << ") us\n";
      }
    }
  }
  return out.str();
}

}  // namespace psched::sim

#include "sim/timeline.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>

namespace psched::sim {

namespace {

bool counts_for_makespan(OpKind kind) {
  return kind != OpKind::Marker && kind != OpKind::Host;
}

/// The profile's fields as bit patterns: interning compares and hashes
/// these, so the round trip is exact (-0.0 and NaN payloads included).
std::array<std::uint64_t, 6> profile_bits(const KernelProfile& p) {
  return {std::bit_cast<std::uint64_t>(p.flops_sp),
          std::bit_cast<std::uint64_t>(p.flops_dp),
          std::bit_cast<std::uint64_t>(p.dram_bytes),
          std::bit_cast<std::uint64_t>(p.l2_bytes),
          std::bit_cast<std::uint64_t>(p.instructions),
          std::bit_cast<std::uint64_t>(p.duty)};
}

}  // namespace

template <typename Same>
std::uint32_t Timeline::InternIndex::find_or_add(std::uint64_t hash,
                                                 std::uint32_t next,
                                                 Same&& same) {
  if ((used_ + 1) * 4 > slots_.size() * 3) grow();
  const auto h = static_cast<std::uint32_t>(hash ^ (hash >> 32));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.id_plus1 == 0) {
      slot = {h, next + 1};
      ++used_;
      return next;
    }
    if (slot.hash == h && same(slot.id_plus1 - 1)) return slot.id_plus1 - 1;
  }
}

void Timeline::InternIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id_plus1 == 0) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id_plus1 != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void Timeline::InternIndex::clear() {
  if (used_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  used_ = 0;
}

void Timeline::clear() {
  rows_.clear();
  agg_ = Aggregates{};
  name_chars_.clear();
  name_end_.clear();
  name_index_.clear();
  last_name_ = 0;
  profiles_.clear();
  profile_index_.clear();
  last_prof_ = 0;
}

std::string_view Timeline::name(NameId id) const {
  const std::uint32_t begin = id == 0 ? 0 : name_end_[id - 1];
  return {name_chars_.data() + begin, name_end_[id] - begin};
}

NameId Timeline::intern_name(std::string_view s) {
  if (!name_end_.empty() && name(last_name_) == s) return last_name_;
  const auto next = static_cast<NameId>(name_end_.size());
  const NameId id =
      name_index_.find_or_add(std::hash<std::string_view>{}(s), next,
                              [&](std::uint32_t i) { return name(i) == s; });
  if (id == next) {
    name_chars_.insert(name_chars_.end(), s.begin(), s.end());
    name_end_.push_back(static_cast<std::uint32_t>(name_chars_.size()));
  }
  last_name_ = id;
  return id;
}

const KernelProfile& Timeline::profile(ProfileId id) const {
  static const KernelProfile kDefault{};
  return id == 0 ? kDefault : profiles_[id - 1];
}

ProfileId Timeline::intern_profile(const KernelProfile& p) {
  const auto bits = profile_bits(p);
  if (bits == profile_bits(profile(last_prof_))) return last_prof_;
  if (bits == profile_bits(KernelProfile{})) return last_prof_ = 0;
  std::uint64_t hash = 0;
  for (const std::uint64_t b : bits) {
    hash = (hash ^ b) * 0x9e3779b97f4a7c15ULL;
    hash ^= hash >> 29;
  }
  const auto next = static_cast<ProfileId>(profiles_.size() + 1);
  const ProfileId id = profile_index_.find_or_add(
      hash, next,
      [&](std::uint32_t i) { return profile_bits(profile(i)) == bits; });
  if (id == next) profiles_.push_back(p);
  last_prof_ = id;
  return id;
}

void Timeline::append(OpId op, OpKind kind, StreamId stream, DeviceId device,
                      DeviceId peer, std::string_view name, TimeUs start,
                      TimeUs end, double bytes, const KernelProfile& prof) {
  if (counts_for_makespan(kind)) {
    agg_.begin = std::min(agg_.begin, start);
    agg_.end = std::max(agg_.end, end);
  }
  if (kind == OpKind::Kernel) {
    agg_.kernel_time += end - start;
    agg_.kernel_profile += prof;
  } else if (is_transfer(kind)) {
    agg_.transfer_time += end - start;
  }
  rows_.push_back({op, start, end, bytes, stream, device, peer,
                   intern_name(name), intern_profile(prof), kind});
}

void Timeline::record(const TimelineEntry& e) {
  append(e.op, e.kind, e.stream, e.device, e.peer, e.name, e.start, e.end,
         e.bytes, e.prof);
}

void Timeline::record(const Op& op) {
  append(op.id, op.kind, op.stream, op.device, op.peer, op.name,
         op.start_time, op.end_time, op.bytes, op.prof);
}

TimelineEntry Timeline::entry(std::size_t i) const {
  const Row& r = rows_[i];
  TimelineEntry e;
  e.op = r.op;
  e.kind = r.kind;
  e.stream = r.stream;
  e.device = r.device;
  e.peer = r.peer;
  e.name = name(r.name);
  e.start = r.start;
  e.end = r.end;
  e.bytes = r.bytes;
  e.prof = profile(r.prof);
  return e;
}

std::vector<TimelineEntry> Timeline::Entries::to_vector() const {
  std::vector<TimelineEntry> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(tl_->entry(i));
  return out;
}

TimeUs Timeline::makespan() const {
  if (empty()) return 0;
  const TimeUs b = begin_time();
  const TimeUs e = end_time();
  return e > b ? e - b : 0;
}

IntervalSet Timeline::cover(OpKind kind) const {
  std::vector<Interval> ivs;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].kind == kind) ivs.push_back(rows_[i].interval());
  }
  return IntervalSet(std::move(ivs));
}

IntervalSet Timeline::kernel_cover() const { return cover(OpKind::Kernel); }

IntervalSet Timeline::transfer_cover() const {
  std::vector<Interval> ivs;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (is_transfer(rows_[i].kind)) ivs.push_back(rows_[i].interval());
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
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& e = rows_[i];
    if (!counts_for_makespan(e.kind)) continue;
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

  std::map<StreamId, std::vector<const Row*>> by_stream;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& e = rows_[i];
    if (!counts_for_makespan(e.kind)) continue;
    by_stream[e.stream].push_back(&e);
  }

  out << "timeline: " << t0 << " .. " << t1 << " us (makespan "
      << makespan() << " us)\n";
  for (auto& [stream, ops] : by_stream) {
    std::string row(static_cast<std::size_t>(width), '.');
    std::sort(ops.begin(), ops.end(),
              [](const Row* a, const Row* b) {
                return a->start < b->start;
              });
    for (const Row* e : ops) {
      const std::string_view name = this->name(e->name);
      int lo = static_cast<int>((e->start - t0) / span * width);
      int hi = static_cast<int>((e->end - t0) / span * width);
      lo = std::clamp(lo, 0, width - 1);
      hi = std::clamp(hi, lo + 1, width);
      char c = '?';
      switch (e->kind) {
        case OpKind::Kernel: c = name.empty() ? 'K' : name[0]; break;
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
    for (const Row* e : ops) {
      if (e->kind == OpKind::Kernel) {
        out << "  S" << stream << " " << name(e->name) << " [" << e->start << ", "
            << e->end << ") us\n";
      }
    }
  }
  return out.str();
}

}  // namespace psched::sim

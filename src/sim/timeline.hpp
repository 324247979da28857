// Execution timeline: the record of every completed device operation.
//
// The timeline is the primary measurement artifact of a simulation run. It
// provides the paper's headline quantities:
//   * makespan — "total time spent by GPU execution, from the first kernel
//     scheduling until the end of execution" (section V-A);
//   * the four overlap metrics CT / TC / CC / TOT of section V-F (Fig. 11);
//   * an ASCII rendering of the per-stream schedule (Fig. 10).
//
// Storage. Every completed op is one 56-byte Row in append-only chunks of
// 1024 rows that never move (ChunkedStore), so a long run copies nothing
// as it grows. A row holds ids, kind, times and bytes; the op's name and
// kernel profile are interned in per-timeline tables and the row keeps
// their ids. Each table has a one-entry memo in front of a hash index, so
// recording allocates nothing once the tables hold the run's names and
// profiles. clear() empties rows and tables but keeps their memory, so a
// timeline cleared after every wave stays allocation-free and bounded.
//
// Reading. entries() is a read-only view that rebuilds each TimelineEntry
// by value, exactly as record() received it (name and profile included);
// to_vector() copies them all out. The O(1) queries (makespan, busy
// totals, the kernel profile) are online aggregates and read no rows.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "sim/chunked_store.hpp"
#include "sim/interval.hpp"
#include "sim/op.hpp"
#include "sim/types.hpp"

namespace psched::sim {

/// One completed operation.
struct TimelineEntry {
  OpId op = kInvalidOp;
  OpKind kind = OpKind::Marker;
  StreamId stream = kInvalidStream;
  DeviceId device = kDefaultDevice;  ///< device the op executed on
  DeviceId peer = kInvalidDevice;    ///< CopyP2P only: source device
  std::string name;
  TimeUs start = 0;
  TimeUs end = 0;
  double bytes = 0;         ///< transfer size (transfers only)
  KernelProfile prof;       ///< kernel counters (kernels only)

  [[nodiscard]] TimeUs duration() const { return end - start; }
  [[nodiscard]] Interval interval() const { return {start, end}; }
};

/// Overlap metrics as defined in section V-F of the paper.
struct OverlapMetrics {
  double ct = 0;   ///< fraction of kernel time overlapped with any transfer
  double tc = 0;   ///< fraction of transfer time overlapped with any kernel
  double cc = 0;   ///< fraction of kernel time overlapped with other kernels
  double tot = 0;  ///< fraction of op time overlapped with any other op
};

/// Index of an op name interned in one Timeline.
using NameId = std::uint32_t;
/// Index of a kernel profile interned in one Timeline; 0 is the default
/// `KernelProfile{}` every non-kernel op carries.
using ProfileId = std::uint32_t;

class Timeline {
 public:
  /// One stored entry: a TimelineEntry with its name and profile interned.
  struct Row {
    OpId op;
    TimeUs start;
    TimeUs end;
    double bytes;
    StreamId stream;
    DeviceId device;
    DeviceId peer;
    NameId name;
    ProfileId prof;
    OpKind kind;

    [[nodiscard]] Interval interval() const { return {start, end}; }
  };
  static constexpr std::size_t kRowsPerChunk = 1024;

  /// Read-only view of the recorded entries. Elements are rebuilt
  /// TimelineEntry values, not references; the view follows the timeline
  /// (a record() after taking it shows up in it).
  class Entries {
   public:
    class iterator {
     public:
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::input_iterator_tag;
      using value_type = TimelineEntry;
      using difference_type = std::ptrdiff_t;
      using reference = TimelineEntry;

      iterator() = default;
      TimelineEntry operator*() const { return tl_->entry(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator t = *this;
        ++i_;
        return t;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      friend class Entries;
      iterator(const Timeline* tl, std::size_t i) : tl_(tl), i_(i) {}
      const Timeline* tl_ = nullptr;
      std::size_t i_ = 0;
    };

    [[nodiscard]] std::size_t size() const { return tl_->rows_.size(); }
    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] TimelineEntry operator[](std::size_t i) const {
      return tl_->entry(i);
    }
    [[nodiscard]] iterator begin() const { return {tl_, 0}; }
    [[nodiscard]] iterator end() const { return {tl_, size()}; }
    /// Every entry, copied out in record order.
    [[nodiscard]] std::vector<TimelineEntry> to_vector() const;

   private:
    friend class Timeline;
    explicit Entries(const Timeline* tl) : tl_(tl) {}
    const Timeline* tl_;
  };

  /// Drop every entry and interned name and profile; the memory stays
  /// allocated for the next records.
  void clear();
  /// Record one completed op; aggregate quantities (makespan bounds, busy
  /// totals, kernel counters) are folded in here so the hot-path queries
  /// below are O(1) instead of rescanning the rows.
  void record(const TimelineEntry& e);
  /// Record a retired op straight from the engine's record.
  void record(const Op& op);

  [[nodiscard]] Entries entries() const { return Entries(this); }
  [[nodiscard]] bool empty() const { return rows_.size() == 0; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  /// Stored row `i`, in record order, and the name a NameId stands for:
  /// for scans that need neither a copied name nor the profile.
  [[nodiscard]] const Row& row(std::size_t i) const { return rows_[i]; }
  [[nodiscard]] std::string_view name(NameId id) const;

  /// First op start (markers and host spans excluded). O(1).
  [[nodiscard]] TimeUs begin_time() const {
    return std::isfinite(agg_.begin) ? agg_.begin : 0;
  }
  /// Last op end (markers and host spans excluded). O(1).
  [[nodiscard]] TimeUs end_time() const { return agg_.end; }
  /// GPU execution time: end_time() - begin_time(). O(1).
  [[nodiscard]] TimeUs makespan() const;

  /// Sum of kernel durations (no overlap accounting). O(1).
  [[nodiscard]] TimeUs total_kernel_time() const { return agg_.kernel_time; }
  /// Sum of transfer durations (copies + faults). O(1).
  [[nodiscard]] TimeUs total_transfer_time() const {
    return agg_.transfer_time;
  }

  /// Compute the CT/TC/CC/TOT overlap fractions (section V-F).
  [[nodiscard]] OverlapMetrics overlap_metrics() const;

  /// Union of busy intervals of a given category.
  [[nodiscard]] IntervalSet cover(OpKind kind) const;
  [[nodiscard]] IntervalSet kernel_cover() const;
  [[nodiscard]] IntervalSet transfer_cover() const;

  /// Render an ASCII per-stream timeline (Fig. 10 style). `width` is the
  /// number of character columns used for the time axis.
  [[nodiscard]] std::string render_ascii(int width = 100) const;

  /// Aggregate kernel counters over the whole run. O(1).
  [[nodiscard]] const KernelProfile& total_kernel_profile() const {
    return agg_.kernel_profile;
  }

 private:
  struct Aggregates {
    TimeUs begin = kTimeInfinity;
    TimeUs end = 0;
    TimeUs kernel_time = 0;
    TimeUs transfer_time = 0;
    KernelProfile kernel_profile;
  };

  /// Open-addressed hash index from interned values to their ids. Each
  /// slot keeps the value's hash, so growing never reads the values; the
  /// values themselves live in the owner's tables. clear() keeps the slots.
  class InternIndex {
   public:
    /// The id of the value with `hash` for which `same(id)` holds, or
    /// `next` (recorded as that value's id) if there is none.
    template <typename Same>
    std::uint32_t find_or_add(std::uint64_t hash, std::uint32_t next,
                              Same&& same);
    void clear();

   private:
    struct Slot {
      std::uint32_t hash = 0;
      std::uint32_t id_plus1 = 0;  ///< 0: empty
    };
    void grow();
    std::vector<Slot> slots_;  ///< power-of-two size
    std::size_t used_ = 0;
  };

  void append(OpId op, OpKind kind, StreamId stream, DeviceId device,
              DeviceId peer, std::string_view name, TimeUs start, TimeUs end,
              double bytes, const KernelProfile& prof);
  NameId intern_name(std::string_view name);
  ProfileId intern_profile(const KernelProfile& prof);
  [[nodiscard]] const KernelProfile& profile(ProfileId id) const;
  [[nodiscard]] TimelineEntry entry(std::size_t i) const;

  ChunkedStore<Row, kRowsPerChunk> rows_;
  Aggregates agg_;

  /// Interned names, back to back; name i is [name_end_[i-1], name_end_[i]).
  std::vector<char> name_chars_;
  std::vector<std::uint32_t> name_end_;
  InternIndex name_index_;
  NameId last_name_ = 0;  ///< memo, once name_end_ is non-empty

  /// Interned profiles: ProfileId i > 0 is profiles_[i - 1].
  std::vector<KernelProfile> profiles_;
  InternIndex profile_index_;
  ProfileId last_prof_ = 0;  ///< memo
};

static_assert(sizeof(Timeline::Row) <= 56);

}  // namespace psched::sim
